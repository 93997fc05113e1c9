// Package minisl implements MiniSL, a small GLSL-ES-like shading language
// for the simulated GPU's programmable (GLES 2) pipeline.
//
// The real system hands shader source to a closed vendor compiler inside
// libGLESv2; the simulation compiles a GLSL subset once, at Compile: every
// identifier is resolved to a slot index, and the AST is turned into a tree
// of Go closures that each run one node over a span of invocations at once —
// one lane per fragment, up to gpu.SpanSize lanes, like a GPU's SIMD group.
// Compile types every expression as GLSL ES 1.00 does, and rejects a
// program that reads a component past a value's declared width where
// widths are known (see typing.go). It classes every slot, constant and
// temporary: a typed cell has its static width in every lane and no
// reference, a draw-uniform one (a constant, a uniform the shader never
// writes, a node over only those) is held once and read with stride 0, and
// only the rest keep a width and a reference (the matrix or sampler a
// value points to, with a mask of the lanes that hold one) per lane. A
// typed node computes only its declared components, at widths fixed at
// compile time.
// It also keeps a "defined" bit per slot and lane, and per lane a step
// budget, a fetch count and a runtime error (with a mask of the lanes that
// faulted), so invocations that diverge (branches, loops, faults) still
// behave exactly as if each ran alone. A shader without a loop cannot reach
// the step limit unless it has that many statements, so it is compiled to
// keep no step budget at all. texture2D resolves a texture's sampling terms
// once per run of lanes that share it (gpu.Texture.Sampler). A draw binds
// its uniforms into slot order once (Program.Bind); each raster tile then
// takes its own Frame and shades the tile's spans through it: the
// rasterizer interpolates the varyings the shader reads, at their declared
// widths, straight into their slots' component planes (Frame.Inputs), and
// Frame.Shade hands back each
// lane's colour as the RGBA8 word the target stores. A fragment shader
// that is the single statement gl_FragColor = texture2D(s, v) — the present
// blit, the canvas uploads — tells the rasterizer so (Binding.TexelCopy),
// which then copies a 1:1 rectangle drawn with it rather than shading it. A
// run resets only what an invocation can observe, so shading allocates
// nothing per vertex, fragment or span.
// glCompileShader/glLinkProgram stay expensive on the virtual clock
// (proportional to token count — visible as the glLinkProgram spike in
// Figure 9), and shader-based paths such as Cycada's presentRenderbuffer
// blit do real per-pixel work.
//
// Supported subset: global declarations with the attribute / uniform /
// varying qualifiers; types float, vec2, vec3, vec4, mat4, sampler2D;
// `void main() { ... }`; local declarations, assignment, if/else, for;
// arithmetic on scalars/vectors/matrices with scalar broadcast; swizzle
// reads; calls to the builtins texture2D, vec2, vec3, vec4, clamp, min, max,
// dot, mix, fract, floor, abs, sin, cos, pow, length, normalize; and the
// specials gl_Position (vertex) and gl_FragColor (fragment). A `precision`
// statement is accepted and ignored. A uniform is bound at its declared
// type only (Binding.Set).
package minisl

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
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

// Shader is a compiled shader. Compile resolves every identifier the source
// names — its declarations, its locals, the stage's special output and any
// name it only reads — to a slot index, so evaluation runs over a frame's
// flat planes instead of looking names up.
type Shader struct {
	Kind       Kind
	Attributes []Decl
	Uniforms   []Decl
	Varyings   []Decl
	Tokens     int // total token count (drives compile cost)
	body       []stmt
	run        stmtFn  // body, compiled to lane closures
	counted    bool    // run charges steps: the body may reach the step limit
	consts     []Value // distinct literals, in cell order after the slots
	temps      int     // temporary cells, after the constants
	src        string
	slots      map[string]int // identifier -> slot
	written    []bool         // slot-indexed: an assignment or declaration target
	class      []class        // slot-indexed: how a frame holds the slot (see typeSlots)
	typ        []vtype        // slot-indexed: the slot's static type
	dynamic    int            // nodes and statements compiled to read widths per lane
	scratch    int            // call-argument cells one run needs
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
// Identifiers are slot indices into the invocation's frame; the name stays
// only for runtime error messages.

type stmt interface{ isStmt() }

type declStmt struct {
	slot int
	name string
	typ  vtype
	zero Value // the declared type's zero value
	init expr  // may be nil
	line int
}

type assignStmt struct {
	slot    int
	name    string
	swizzle string // optional single-component write target, e.g. "x"
	val     expr
	line    int
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

func (*declStmt) isStmt()   {}
func (*assignStmt) isStmt() {}
func (*ifStmt) isStmt()     {}
func (*forStmt) isStmt()    {}

type expr interface{ isExpr() }

type numExpr struct {
	v Value
	k int // index into the shader's constants
}

type varExpr struct {
	slot int
	name string
	line int
}

type swizzleExpr struct {
	base expr
	text string
	idx  [4]uint8 // component indices
	n    int      // swizzle length
	line int
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

var binOps = map[string]binOp{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv,
	"<": opLT, ">": opGT, "<=": opLE, ">=": opGE, "==": opEQ, "!=": opNE,
}

type binExpr struct {
	op   binOp
	l, r expr
	line int
}

type unaryExpr struct {
	not bool // '!' rather than '-'
	x   expr
}

// builtin identifies a callee; an unknown name fails only when the call runs.
type builtin uint8

const (
	fnUnknown builtin = iota
	fnVec2
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
	fn   builtin
	name string
	args []expr
	base int // the arguments' offset in the frame's argument cells
	line int
}

func (*numExpr) isExpr()     {}
func (*varExpr) isExpr()     {}
func (*swizzleExpr) isExpr() {}
func (*binExpr) isExpr()     {}
func (*unaryExpr) isExpr()   {}
func (*callExpr) isExpr()    {}

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
	callBase int            // argument-cell offset for the arguments of the next call parsed
	consts   map[uint32]int // literal bits -> index into sh.consts
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
	p := &parser{toks: toks, sh: &Shader{Kind: kind, Tokens: len(toks), src: src, slots: map[string]int{}}, consts: map[uint32]int{}}
	p.slot(specialOut(kind))
	p.parseTop()
	compileBody(p.sh)
	return p.sh, nil
}

// fail aborts the compilation with a CompileError at line.
func fail(line int, msg string) { panic(&CompileError{Line: line, Msg: msg}) }

// slot resolves an identifier to its frame slot, allocating one on first use.
func (p *parser) slot(name string) int {
	if s, ok := p.sh.slots[name]; ok {
		return s
	}
	s := len(p.sh.written)
	p.sh.slots[name] = s
	p.sh.written = append(p.sh.written, false)
	return s
}

// constant returns a literal, numbered once per distinct value. Like every
// value a shader computes, it has no hidden component but zero.
func (p *parser) constant(f float32) *numExpr {
	v := Vec(1, f)
	bits := math.Float32bits(f)
	k, ok := p.consts[bits]
	if !ok {
		k = len(p.sh.consts)
		p.consts[bits] = k
		p.sh.consts = append(p.sh.consts, v)
	}
	return &numExpr{v: v, k: k}
}

// target resolves an assignment or declaration target.
func (p *parser) target(name string) int {
	s := p.slot(name)
	p.sh.written[s] = true
	return s
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
			qual := p.next().text
			typ := p.expect("ident", "")
			if _, ok := typeNames[typ.text]; !ok {
				fail(typ.line, "unknown type "+typ.text)
			}
			name := p.expect("ident", "")
			p.expect("punct", ";")
			d := Decl{Name: name.text, Type: typ.text}
			for _, prev := range slices.Concat(p.sh.Attributes, p.sh.Uniforms, p.sh.Varyings) {
				if prev.Name == d.Name && prev.Type != d.Type {
					fail(name.line, "redefinition of "+d.Name+" with another type")
				}
			}
			switch qual {
			case "attribute":
				if p.sh.Kind != Vertex {
					fail(name.line, "attribute in fragment shader")
				}
				p.sh.Attributes = append(p.sh.Attributes, d)
			case "uniform":
				p.sh.Uniforms = append(p.sh.Uniforms, d)
			case "varying":
				p.sh.Varyings = append(p.sh.Varyings, d)
			}
			p.slot(d.Name)
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

func (p *parser) parseBlock() []stmt {
	p.expect("punct", "{")
	var out []stmt
	for !p.accept("punct", "}") {
		if p.cur().kind == "eof" {
			fail(p.cur().line, "unterminated block")
		}
		out = append(out, p.parseStmt())
	}
	return out
}

// parenExpr parses a parenthesized expression.
func (p *parser) parenExpr() expr {
	p.expect("punct", "(")
	e := p.parseExpr()
	p.expect("punct", ")")
	return e
}

func (p *parser) parseStmt() stmt {
	switch p.cur().text {
	case "if":
		p.pos++
		st := &ifStmt{cond: p.parenExpr(), then: p.parseBlock()}
		if p.accept("ident", "else") {
			st.els = p.parseBlock()
		}
		return st
	case "for":
		p.pos++
		p.expect("punct", "(")
		st := &forStmt{init: p.parseSimpleStmt()}
		p.expect("punct", ";")
		st.cond = p.parseExpr()
		p.expect("punct", ";")
		st.post = p.parseSimpleStmt()
		p.expect("punct", ")")
		st.body = p.parseBlock()
		return st
	}
	s := p.parseSimpleStmt()
	p.expect("punct", ";")
	return s
}

// parseSimpleStmt parses a declaration or assignment without the trailing
// semicolon (shared by for-headers and expression statements).
func (p *parser) parseSimpleStmt() stmt {
	if ty, ok := typeNames[p.cur().text]; ok {
		typ := p.next().text
		name := p.expect("ident", "")
		var init expr
		if p.accept("punct", "=") {
			init = p.parseExpr()
		}
		return &declStmt{slot: p.target(name.text), name: name.text, typ: ty, zero: zeroOf(typ), init: init, line: name.line}
	}
	name := p.expect("ident", "")
	sw := ""
	if p.accept("punct", ".") {
		swt := p.expect("ident", "")
		if !validSwizzle(swt.text) {
			fail(swt.line, "invalid swizzle ."+swt.text)
		}
		sw = swt.text
	}
	slot := p.target(name.text)
	self := &varExpr{slot: slot, name: name.text, line: name.line}
	// Compound assignment and increment forms.
	st := &assignStmt{slot: slot, name: name.text, swizzle: sw, line: name.line}
	switch op := p.cur().text; op {
	case "=", "+=", "-=", "*=", "/=":
		p.pos++
		st.val = p.parseExpr()
		if op != "=" {
			st.val = &binExpr{op: binOps[op[:1]], l: self, r: st.val, line: name.line}
		}
	case "++", "--":
		p.pos++
		o := opAdd
		if op == "--" {
			o = opSub
		}
		st.val = &binExpr{op: o, l: self, r: p.constant(1), line: name.line}
	default:
		fail(name.line, "expected assignment after "+name.text)
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
		l = &binExpr{op: binOps[t.text], l: l, r: operand(), line: t.line}
	}
	return l
}

func (p *parser) parseUnary() expr {
	if p.cur().kind == "punct" && (p.cur().text == "-" || p.cur().text == "!") {
		op := p.next().text
		return &unaryExpr{not: op == "!", x: p.parseUnary()}
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
		s := &swizzleExpr{base: e, text: sw.text, n: len(sw.text), line: sw.line}
		for i, c := range sw.text {
			s.idx[i] = swizzleIndex(c)
		}
		e = s
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
		return &varExpr{slot: p.slot(t.text), name: t.text, line: t.line}
	case t.kind == "punct" && t.text == "(":
		return p.parenExpr()
	}
	fail(t.line, "unexpected token "+t.text)
	return nil
}

// parseCall parses a call's arguments after its opening parenthesis. An
// argument's cell is kept in the frame's argument cells once evaluated, so
// calls nested inside argument k start their own arguments at base+k: every
// argument still pending is above them, every finished one below.
func (p *parser) parseCall(fn token) expr {
	c := &callExpr{fn: builtins[fn.text], name: fn.text, base: p.callBase, line: fn.line}
	if !p.accept("punct", ")") {
		for {
			p.callBase = c.base + len(c.args)
			c.args = append(c.args, p.parseExpr())
			if p.accept("punct", ")") {
				break
			}
			p.expect("punct", ",")
		}
	}
	p.callBase = c.base
	p.sh.scratch = max(p.sh.scratch, c.base+len(c.args))
	return c
}

func validSwizzle(s string) bool {
	if len(s) == 0 || len(s) > 4 {
		return false
	}
	return strings.Trim(s, "xyzwrgba") == ""
}
