// Package minisl implements MiniSL, a small GLSL-ES-like shading language
// for the simulated GPU's programmable (GLES 2) pipeline.
//
// The real system hands shader source to a closed vendor compiler inside
// libGLESv2; the simulation compiles a GLSL subset once, at Compile. Names
// are scoped by block as in GLSL ES 1.00, every declaration gets a cell of
// its own, and every expression a static type (see typing.go): a program
// GLSL ES 1.00 would reject — a name read outside its scope, a write to a
// uniform, a component read past a value's width, a call of the wrong
// arity, matrix arithmetic other than mat4*mat4 and mat4*vec4 — fails to
// compile. The AST is then turned into a tree of Go closures that each run
// one node over a span of invocations at once — one lane per fragment, up
// to gpu.SpanSize lanes, like a GPU's SIMD group. A cell is draw-uniform
// (a constant, a uniform, a node over only those), held once and read with
// stride 0, or typed: the components of its static width in every lane. A
// node computes only its declared components, at widths fixed at compile
// time. Per lane, a frame keeps a step budget and a fetch count; the step
// limit, the only fault left at run time, takes a lane out of the span, so
// invocations that diverge (branches, loops, the step limit) still behave
// exactly as if each ran alone. A shader without a loop cannot reach the
// step limit unless it has that many statements, so it is compiled to keep
// no step budget at all. A draw binds its uniforms once (Program.Bind);
// each raster tile then takes its own Frame and shades the tile's spans
// through it: the rasterizer interpolates the varyings the shader reads,
// at their declared widths, straight into their cells' component planes
// (Frame.Inputs), and Frame.Shade hands back each lane's
// colour as the RGBA8 word the target stores. A fragment shader that is
// the single statement gl_FragColor = texture2D(s, v) — the present blit,
// the canvas uploads — tells the rasterizer so (Binding.TexelCopy), which
// then copies a 1:1 rectangle drawn with it rather than shading it. A run
// resets only what an invocation can observe, so shading allocates nothing
// per vertex, fragment or span.
// glCompileShader/glLinkProgram stay expensive on the virtual clock
// (proportional to token count — visible as the glLinkProgram spike in
// Figure 9), and shader-based paths such as Cycada's presentRenderbuffer
// blit do real per-pixel work.
//
// Supported subset: global declarations with the attribute / uniform /
// varying qualifiers; types float, vec2, vec3, vec4, mat4 (not for
// attributes and varyings) and sampler2D (uniforms only); `void main() {
// ... }`; local declarations, assignment, if/else, for; arithmetic on
// scalars and vectors with scalar broadcast, and mat4*mat4 and mat4*vec4;
// swizzle reads and single-component swizzle writes; calls to the builtins
// texture2D, vec2, vec3, vec4, clamp, min, max, dot, mix, fract, floor,
// abs, sin, cos, pow, length, normalize; and the specials gl_Position
// (vertex) and gl_FragColor (fragment). A `precision` statement is
// accepted and ignored. A uniform is bound at its declared type only
// (Binding.Set).
package minisl

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"cycada/internal/sim/gpu"
)

// Kind distinguishes vertex and fragment shaders.
type Kind uint8

// Shader kinds.
const (
	Vertex Kind = iota + 1
	Fragment
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Vertex {
		return "vertex"
	}
	return "fragment"
}

// Decl is a global declaration (attribute/uniform/varying).
type Decl struct {
	Name string
	Type string // "float", "vec2".."vec4", "mat4", "sampler2D"
}

// Shader is a compiled shader. Compile resolves every name the source reads
// or writes to the cell of the declaration in scope, so evaluation runs over
// a frame's flat planes instead of looking names up.
type Shader struct {
	Kind       Kind
	Attributes []Decl
	Uniforms   []Decl
	Varyings   []Decl
	Tokens     int // total token count (drives compile cost)
	body       []stmt
	run        stmtFn // body, compiled to lane closures
	counted    bool   // run charges steps: the body may reach the step limit
	// consts are the literals and the zero values of declarations without
	// an initializer, each in its cell of the uniform frame.
	consts  []*numExpr
	cells   int // cells of the variables, constants and matrix products
	temps   int // temporary cells, after those
	src     string
	globals map[string]variable // the global scope: the declarations and the stage's special output
}

// Source returns the original source text.
func (s *Shader) Source() string { return s.src }

// CompileError is a shader compilation failure with a GLES-style info log.
type CompileError struct {
	Line int
	Msg  string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("ERROR: 0:%d: %s", e.Line, e.Msg)
}

// ---- AST ----
//
// Every node carries its kind (see typing.go), and every variable is the
// cell of its declaration.

type stmt interface{ isStmt() }

// assignStmt stores val to the variable at cell, of type t: the whole
// value, or, when comp >= 0, component comp alone, from val's first. A
// declaration is an assignment to its fresh cell.
type assignStmt struct {
	cell int
	t    vtype
	comp int
	val  expr
}

type ifStmt struct {
	cond      expr
	then, els []stmt
}

type forStmt struct {
	init stmt
	cond expr
	post stmt
	body []stmt
}

func (*assignStmt) isStmt() {}
func (*ifStmt) isStmt()     {}
func (*forStmt) isStmt()    {}

type expr interface{ info() kind }

// numExpr is a constant: a literal, or a declaration's zero value.
type numExpr struct {
	kind
	v    Value
	cell int
}

type varExpr struct {
	kind
	cell int
}

type swizzleExpr struct {
	kind
	base expr
	idx  [4]uint8 // component indices
	n    int      // swizzle length
}

type binOp uint8

const (
	opAdd binOp = iota
	opSub
	opMul
	opDiv
	opLT
	opGT
	opLE
	opGE
	opEQ
	opNE
)

var opNames = [...]string{"+", "-", "*", "/", "<", ">", "<=", ">=", "==", "!="}

var binOps = func() map[string]binOp {
	m := map[string]binOp{}
	for op, name := range opNames {
		m[name] = binOp(op)
	}
	return m
}()

type binExpr struct {
	kind
	op   binOp
	l, r expr
	cell int // mat4*mat4: the product's own four cells
}

type unaryExpr struct {
	kind
	not bool // '!' rather than '-'
	x   expr
}

// builtin identifies a callee.
type builtin uint8

const (
	fnVec2 builtin = iota
	fnVec3
	fnVec4
	fnTexture2D
	fnClamp
	fnMin
	fnMax
	fnPow
	fnDot
	fnMix
	fnFract
	fnFloor
	fnAbs
	fnSin
	fnCos
	fnLength
	fnNormalize
)

var builtins = map[string]builtin{
	"vec2": fnVec2, "vec3": fnVec3, "vec4": fnVec4, "texture2D": fnTexture2D,
	"clamp": fnClamp, "min": fnMin, "max": fnMax, "pow": fnPow, "dot": fnDot,
	"mix": fnMix, "fract": fnFract, "floor": fnFloor, "abs": fnAbs,
	"sin": fnSin, "cos": fnCos, "length": fnLength, "normalize": fnNormalize,
}

type callExpr struct {
	kind
	fn   builtin
	args []expr
}

// ---- Lexer ----

type token struct {
	kind string // "ident", "num", "punct", "eof"
	text string
	num  float32
	line int
}

type lexer struct {
	src  []rune
	pos  int
	line int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: []rune(src), line: 1}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case unicode.IsSpace(c):
			l.pos++
		case c == '/' && l.peek(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.peek(1) == '*':
			l.pos += 2
			for l.pos < len(l.src) && !(l.src[l.pos] == '*' && l.peek(1) == '/') {
				if l.src[l.pos] == '\n' {
					l.line++
				}
				l.pos++
			}
			l.pos += 2
		case unicode.IsLetter(c) || c == '_':
			start := l.pos
			for l.pos < len(l.src) && (unicode.IsLetter(l.src[l.pos]) || unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '_') {
				l.pos++
			}
			l.emit("ident", string(l.src[start:l.pos]), 0)
		case unicode.IsDigit(c) || (c == '.' && unicode.IsDigit(l.peek(1))):
			start := l.pos
			for l.pos < len(l.src) && (unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
				l.pos++
			}
			text := string(l.src[start:l.pos])
			// A well-formed literal too large for float32 reads as ±Inf.
			f, err := strconv.ParseFloat(text, 32)
			if err != nil && !errors.Is(err, strconv.ErrRange) {
				return nil, &CompileError{Line: l.line, Msg: "bad number " + text}
			}
			l.emit("num", text, float32(f))
		default:
			two := ""
			if l.pos+1 < len(l.src) {
				two = string(l.src[l.pos : l.pos+2])
			}
			switch two {
			case "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "++", "--":
				l.emit("punct", two, 0)
				l.pos += 2
				continue
			}
			switch c {
			case '+', '-', '*', '/', '(', ')', '{', '}', ';', ',', '.', '=', '<', '>', '!':
				l.emit("punct", string(c), 0)
				l.pos++
			default:
				return nil, &CompileError{Line: l.line, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	l.emit("eof", "", 0)
	return l.toks, nil
}

func (l *lexer) peek(n int) rune {
	if l.pos+n < len(l.src) {
		return l.src[l.pos+n]
	}
	return 0
}

func (l *lexer) emit(kind, text string, num float32) {
	l.toks = append(l.toks, token{kind: kind, text: text, num: num, line: l.line})
}

// ---- Parser ----

type parser struct {
	toks     []token
	pos      int
	sh       *Shader
	scopes   []map[string]variable // the global scope first, the innermost last
	consts   map[uint32]*numExpr   // literal bits -> constant
	identity *numExpr              // the zero value of a mat4 declaration
}

// variable is a declared name: its cell and kind, and, for one the shader
// may not write — a uniform, an attribute, a fragment shader's varying —
// its qualifier.
type variable struct {
	kind
	cell     int
	readOnly string
}

// specialOut names each stage's built-in output.
func specialOut(k Kind) string {
	if k == Vertex {
		return "gl_Position"
	}
	return "gl_FragColor"
}

// Compile compiles MiniSL source into a Shader. A parse or type error
// panics with its *CompileError (see fail), which Compile returns.
func Compile(src string, kind Kind) (sh *Shader, err error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(*CompileError)
			if !ok {
				panic(r)
			}
			sh, err = nil, ce
		}
	}()
	p := &parser{toks: toks, sh: &Shader{Kind: kind, Tokens: len(toks), src: src}, consts: map[uint32]*numExpr{}}
	p.scopes = []map[string]variable{{}}
	p.declare(specialOut(kind), 1, tVec4, vecCell, "")
	p.parseTop()
	p.sh.globals = p.scopes[0]
	compileBody(p.sh)
	return p.sh, nil
}

// fail aborts the compilation with a CompileError at line.
func fail(line int, msg string) { panic(&CompileError{Line: line, Msg: msg}) }

// alloc returns the first of the cells a value of type t takes: a matrix
// four, its columns, and every other type one.
func (p *parser) alloc(t vtype) int {
	c := p.sh.cells
	p.sh.cells++
	if t == tMat {
		p.sh.cells += 3
	}
	return c
}

// declare gives name, declared at line, a cell in the innermost scope.
func (p *parser) declare(name string, line int, t vtype, c class, readOnly string) variable {
	scope := p.scopes[len(p.scopes)-1]
	if _, ok := scope[name]; ok {
		fail(line, "redefinition of "+name)
	}
	v := variable{kind: kind{c, t}, cell: p.alloc(t), readOnly: readOnly}
	scope[name] = v
	return v
}

// lookup resolves a name to the innermost declaration of it in scope.
func (p *parser) lookup(name token) variable {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if v, ok := p.scopes[i][name.text]; ok {
			return v
		}
	}
	fail(name.line, "undeclared identifier "+name.text)
	return variable{}
}

// constant returns a literal, numbered once per distinct value. Like every
// value a shader computes, it has no hidden component but zero.
func (p *parser) constant(f float32) *numExpr {
	bits := math.Float32bits(f)
	if e, ok := p.consts[bits]; ok {
		return e
	}
	e := p.newConst(Vec(1, f))
	p.consts[bits] = e
	return e
}

func (p *parser) newConst(v Value) *numExpr {
	t := typeOfValue(v)
	e := &numExpr{kind: kind{uniCell, t}, v: v, cell: p.alloc(t)}
	p.sh.consts = append(p.sh.consts, e)
	return e
}

// zero returns the value a declaration of type t without an initializer
// holds: zero, splatted, or the identity matrix.
func (p *parser) zero(t vtype) *numExpr {
	if t != tMat {
		return p.constant(0)
	}
	if p.identity == nil {
		p.identity = p.newConst(Mat(gpu.Identity()))
	}
	return p.identity
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) accept(kind, text string) bool {
	if p.cur().kind == kind && p.cur().text == text {
		p.pos++
		return true
	}
	return false
}

// expect consumes a token of kind with text (any text when empty), or
// fails.
func (p *parser) expect(kind, text string) token {
	t := p.cur()
	if t.kind != kind || (text != "" && t.text != text) {
		fail(t.line, fmt.Sprintf("expected %q, found %q", text, t.text))
	}
	p.pos++
	return t
}

func (p *parser) parseTop() {
	for p.cur().kind != "eof" {
		t := p.cur()
		switch {
		case t.text == "precision":
			for p.cur().kind != "eof" && !p.accept("punct", ";") {
				p.pos++
			}
		case t.text == "attribute" || t.text == "uniform" || t.text == "varying":
			p.parseGlobal()
		case t.text == "void":
			p.pos++
			p.expect("ident", "main")
			p.expect("punct", "(")
			p.expect("punct", ")")
			p.sh.body = p.parseBlock()
		default:
			fail(t.line, "unexpected token "+t.text)
		}
	}
	if p.sh.body == nil {
		fail(1, "no main function")
	}
}

// parseGlobal parses an attribute, uniform or varying declaration. Only a
// vertex shader's varyings, its outputs, may be written.
func (p *parser) parseGlobal() {
	qual := p.next().text
	typ := p.expect("ident", "")
	t, ok := typeNames[typ.text]
	if !ok {
		fail(typ.line, "unknown type "+typ.text)
	}
	name := p.expect("ident", "")
	p.expect("punct", ";")
	if qual == "attribute" && p.sh.Kind != Vertex {
		fail(name.line, "attribute in fragment shader")
	}
	if qual != "uniform" && !t.vector() {
		fail(name.line, fmt.Sprintf("%s %s: only float and vectors can be %ss", qual, name.text, qual))
	}
	c, readOnly := vecCell, qual
	switch {
	case qual == "uniform":
		c = uniCell
	case qual == "varying" && p.sh.Kind == Vertex:
		readOnly = ""
	}
	p.declare(name.text, name.line, t, c, readOnly)
	d := Decl{Name: name.text, Type: typ.text}
	switch qual {
	case "attribute":
		p.sh.Attributes = append(p.sh.Attributes, d)
	case "uniform":
		p.sh.Uniforms = append(p.sh.Uniforms, d)
	default:
		p.sh.Varyings = append(p.sh.Varyings, d)
	}
}

// parseBlock parses a block, a scope of its own.
func (p *parser) parseBlock() []stmt {
	p.expect("punct", "{")
	p.scopes = append(p.scopes, map[string]variable{})
	var out []stmt
	for !p.accept("punct", "}") {
		if p.cur().kind == "eof" {
			fail(p.cur().line, "unterminated block")
		}
		out = append(out, p.parseStmt())
	}
	p.scopes = p.scopes[:len(p.scopes)-1]
	return out
}

// parseCondition parses a condition, which reads its first component.
func (p *parser) parseCondition() expr {
	line := p.cur().line
	e := p.parseExpr()
	operands(line, "condition", e.info().t)
	return e
}

func (p *parser) parseStmt() stmt {
	switch p.cur().text {
	case "if":
		p.pos++
		p.expect("punct", "(")
		st := &ifStmt{cond: p.parseCondition()}
		p.expect("punct", ")")
		st.then = p.parseBlock()
		if p.accept("ident", "else") {
			st.els = p.parseBlock()
		}
		return st
	case "for":
		// The names the header declares are in scope until the loop ends.
		p.pos++
		p.expect("punct", "(")
		p.scopes = append(p.scopes, map[string]variable{})
		st := &forStmt{init: p.parseSimpleStmt()}
		p.expect("punct", ";")
		st.cond = p.parseCondition()
		p.expect("punct", ";")
		st.post = p.parseSimpleStmt()
		p.expect("punct", ")")
		st.body = p.parseBlock()
		p.scopes = p.scopes[:len(p.scopes)-1]
		return st
	}
	s := p.parseSimpleStmt()
	p.expect("punct", ";")
	return s
}

// parseSimpleStmt parses a declaration or assignment without the trailing
// semicolon (shared by for-headers and expression statements). A declared
// name is in scope from the end of its declaration on, so its initializer
// reads the name as declared outside.
func (p *parser) parseSimpleStmt() stmt {
	if t, ok := typeNames[p.cur().text]; ok {
		p.pos++
		name := p.expect("ident", "")
		if t == tSampler {
			fail(name.line, "sampler2D "+name.text+": samplers are uniforms only")
		}
		var init expr
		if p.accept("punct", "=") {
			init = p.parseExpr()
		} else {
			init = p.zero(t)
		}
		checkStore(name.line, t, init.info().t, name.text)
		v := p.declare(name.text, name.line, t, vecCell, "")
		return &assignStmt{cell: v.cell, t: t, comp: -1, val: init}
	}
	name := p.expect("ident", "")
	v := p.lookup(name)
	st := &assignStmt{cell: v.cell, t: v.t, comp: -1}
	if p.accept("punct", ".") {
		sw := p.expect("ident", "")
		if !validSwizzle(sw.text) {
			fail(sw.line, "invalid swizzle ."+sw.text)
		}
		if len(sw.text) != 1 {
			fail(sw.line, "only single-component swizzle writes supported")
		}
		operands(sw.line, "swizzle", v.t)
		checkSwizzle(sw.line, v.t, sw.text)
		st.comp = int(swizzleIndex(rune(sw.text[0])))
	}
	if v.readOnly != "" {
		fail(name.line, "cannot assign to "+v.readOnly+" "+name.text)
	}
	// Compound assignment and increment forms.
	self := &varExpr{kind: v.kind, cell: v.cell}
	switch op := p.cur().text; op {
	case "=", "+=", "-=", "*=", "/=":
		p.pos++
		st.val = p.parseExpr()
		if op != "=" {
			st.val = p.binary(binOps[op[:1]], self, st.val, name.line)
		}
	case "++", "--":
		p.pos++
		st.val = p.binary(binOps[op[:1]], self, p.constant(1), name.line)
	default:
		fail(name.line, "expected assignment after "+name.text)
	}
	if st.comp < 0 {
		checkStore(name.line, v.t, st.val.info().t, name.text)
	} else {
		operands(name.line, "assignment", st.val.info().t)
	}
	return st
}

// Expression grammar: cmp > addsub > muldiv > unary > postfix > primary.
func (p *parser) parseExpr() expr { return p.parseCmp() }

func (p *parser) parseCmp() expr {
	return p.parseBinary(p.parseAdd, "<", ">", "<=", ">=", "==", "!=")
}

func (p *parser) parseAdd() expr { return p.parseBinary(p.parseMul, "+", "-") }

func (p *parser) parseMul() expr { return p.parseBinary(p.parseUnary, "*", "/") }

// parseBinary parses a left-associative chain of operand separated by any of
// ops.
func (p *parser) parseBinary(operand func() expr, ops ...string) expr {
	l := operand()
	for p.cur().kind == "punct" && slices.Contains(ops, p.cur().text) {
		t := p.next()
		l = p.binary(binOps[t.text], l, operand(), t.line)
	}
	return l
}

func (p *parser) parseUnary() expr {
	if p.cur().kind == "punct" && (p.cur().text == "-" || p.cur().text == "!") {
		op := p.next()
		return unary(op.text == "!", p.parseUnary(), op.line)
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() expr {
	e := p.parsePrimary()
	for p.accept("punct", ".") {
		sw := p.expect("ident", "")
		if !validSwizzle(sw.text) {
			fail(sw.line, "invalid swizzle ."+sw.text)
		}
		e = swizzle(e, sw)
	}
	return e
}

func (p *parser) parsePrimary() expr {
	t := p.cur()
	switch {
	case t.kind == "num":
		p.pos++
		return p.constant(t.num)
	case t.kind == "ident":
		p.pos++
		if p.accept("punct", "(") {
			return p.parseCall(t)
		}
		v := p.lookup(t)
		return &varExpr{kind: v.kind, cell: v.cell}
	case t.kind == "punct" && t.text == "(":
		p.pos++
		e := p.parseExpr()
		p.expect("punct", ")")
		return e
	}
	fail(t.line, "unexpected token "+t.text)
	return nil
}

// parseCall parses a call's arguments after its opening parenthesis.
func (p *parser) parseCall(fn token) expr {
	var args []expr
	if !p.accept("punct", ")") {
		for {
			args = append(args, p.parseExpr())
			if p.accept("punct", ")") {
				break
			}
			p.expect("punct", ",")
		}
	}
	return call(fn, args)
}

func validSwizzle(s string) bool {
	if len(s) == 0 || len(s) > 4 {
		return false
	}
	return strings.Trim(s, "xyzwrgba") == ""
}
