// Package minisl implements MiniSL, a small GLSL-ES-like shading language
// for the simulated GPU's programmable (GLES 2) pipeline.
//
// The real system hands shader source to a closed vendor compiler inside
// libGLESv2; the simulation compiles a GLSL subset once, at Compile: every
// identifier is resolved to a slot index, and the AST is turned into a tree
// of Go closures that each run one node over a span of invocations at once —
// one lane per fragment, up to gpu.SpanSize lanes, like a GPU's SIMD group.
// Compile types every slot, constant and temporary: a typed cell has one
// width in every lane and no reference, a draw-uniform one (a constant, a
// uniform the shader never writes, a node over only those) is held once
// and read with stride 0, and only the rest keep a width and a reference
// (the matrix or sampler a value points to, with a mask of the lanes that
// hold one) per lane. Most nodes therefore fix their widths once per span
// and move only components.
// It also keeps a "defined" bit per slot and lane, and per lane a step
// budget, a fetch count and a runtime error (with a mask of the lanes that
// faulted), so invocations that diverge (branches, loops, faults) still
// behave exactly as if each ran alone. A shader without a loop cannot reach
// the step limit unless it has that many statements, so it is compiled to
// keep no step budget at all. texture2D resolves a texture's sampling terms
// once per run of lanes that share it (gpu.Texture.Sampler). A draw binds
// its uniforms into slot order once (Program.Bind); each raster tile then
// takes its own Frame and shades the tile's spans through it: the
// rasterizer interpolates the varyings the shader reads straight into their
// slots' component planes (Frame.Inputs), and Frame.Shade hands back each
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
// statement is accepted and ignored.
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
	widths     []uint8        // slot-indexed: a typed slot's width
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
	slot  int
	zero  Value // the declared type's zero value
	width int   // coercion width of the declared type; 0 for mat4/sampler2D
	init  expr  // may be nil
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

var typeNames = map[string]bool{
	"float": true, "vec2": true, "vec3": true, "vec4": true,
	"mat4": true, "sampler2D": true,
}

// specialOut names each stage's built-in output.
func specialOut(k Kind) string {
	if k == Vertex {
		return "gl_Position"
	}
	return "gl_FragColor"
}

// Compile compiles MiniSL source into a Shader.
func Compile(src string, kind Kind) (*Shader, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, sh: &Shader{Kind: kind, Tokens: len(toks), src: src, slots: map[string]int{}}, consts: map[uint32]int{}}
	p.slot(specialOut(kind))
	if err := p.parseTop(); err != nil {
		return nil, err
	}
	compileBody(p.sh)
	return p.sh, nil
}

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

// constant returns a literal, numbered once per distinct value.
func (p *parser) constant(f float32) *numExpr {
	bits := math.Float32bits(f)
	k, ok := p.consts[bits]
	if !ok {
		k = len(p.sh.consts)
		p.consts[bits] = k
		p.sh.consts = append(p.sh.consts, Float(f))
	}
	return &numExpr{v: Float(f), k: k}
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

func (p *parser) expect(kind, text string) (token, error) {
	t := p.cur()
	if t.kind != kind || (text != "" && t.text != text) {
		return t, &CompileError{Line: t.line, Msg: fmt.Sprintf("expected %q, found %q", text, t.text)}
	}
	p.pos++
	return t, nil
}

func (p *parser) parseTop() error {
	for p.cur().kind != "eof" {
		t := p.cur()
		switch {
		case t.text == "precision":
			for p.cur().kind != "eof" && !p.accept("punct", ";") {
				p.pos++
			}
		case t.text == "attribute" || t.text == "uniform" || t.text == "varying":
			qual := p.next().text
			typ, err := p.expect("ident", "")
			if err != nil {
				return err
			}
			if !typeNames[typ.text] {
				return &CompileError{Line: typ.line, Msg: "unknown type " + typ.text}
			}
			name, err := p.expect("ident", "")
			if err != nil {
				return err
			}
			if _, err := p.expect("punct", ";"); err != nil {
				return err
			}
			d := Decl{Name: name.text, Type: typ.text}
			switch qual {
			case "attribute":
				if p.sh.Kind != Vertex {
					return &CompileError{Line: name.line, Msg: "attribute in fragment shader"}
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
			if _, err := p.expect("ident", "main"); err != nil {
				return err
			}
			if _, err := p.expect("punct", "("); err != nil {
				return err
			}
			if _, err := p.expect("punct", ")"); err != nil {
				return err
			}
			body, err := p.parseBlock()
			if err != nil {
				return err
			}
			p.sh.body = body
		default:
			return &CompileError{Line: t.line, Msg: "unexpected token " + t.text}
		}
	}
	if p.sh.body == nil {
		return &CompileError{Line: 1, Msg: "no main function"}
	}
	return nil
}

func (p *parser) parseBlock() ([]stmt, error) {
	if _, err := p.expect("punct", "{"); err != nil {
		return nil, err
	}
	var out []stmt
	for !p.accept("punct", "}") {
		if p.cur().kind == "eof" {
			return nil, &CompileError{Line: p.cur().line, Msg: "unterminated block"}
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (p *parser) parseStmt() (stmt, error) {
	t := p.cur()
	switch {
	case t.text == "if":
		p.pos++
		if _, err := p.expect("punct", "("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ")"); err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		var els []stmt
		if p.accept("ident", "else") {
			els, err = p.parseBlock()
			if err != nil {
				return nil, err
			}
		}
		return &ifStmt{cond: cond, then: then, els: els}, nil
	case t.text == "for":
		p.pos++
		if _, err := p.expect("punct", "("); err != nil {
			return nil, err
		}
		init, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ";"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ";"); err != nil {
			return nil, err
		}
		post, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &forStmt{init: init, cond: cond, post: post, body: body}, nil
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ";"); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// parseSimpleStmt parses a declaration or assignment without the trailing
// semicolon (shared by for-headers and expression statements).
func (p *parser) parseSimpleStmt() (stmt, error) {
	t := p.cur()
	if typeNames[t.text] {
		typ := p.next().text
		name, err := p.expect("ident", "")
		if err != nil {
			return nil, err
		}
		var init expr
		if p.accept("punct", "=") {
			init, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		d := &declStmt{slot: p.target(name.text), zero: zeroOf(typ), init: init}
		if typ != "mat4" && typ != "sampler2D" {
			d.width = widthOf(typ)
		}
		return d, nil
	}
	name, err := p.expect("ident", "")
	if err != nil {
		return nil, err
	}
	sw := ""
	if p.accept("punct", ".") {
		swt, err := p.expect("ident", "")
		if err != nil {
			return nil, err
		}
		if !validSwizzle(swt.text) {
			return nil, &CompileError{Line: swt.line, Msg: "invalid swizzle ." + swt.text}
		}
		sw = swt.text
	}
	slot := p.target(name.text)
	self := &varExpr{slot: slot, name: name.text, line: name.line}
	// Compound assignment and increment forms.
	op := p.cur().text
	switch op {
	case "=", "+=", "-=", "*=", "/=":
		p.pos++
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if op != "=" {
			val = &binExpr{op: binOps[op[:1]], l: self, r: val, line: name.line}
		}
		return &assignStmt{slot: slot, name: name.text, swizzle: sw, val: val, line: name.line}, nil
	case "++", "--":
		p.pos++
		o := opAdd
		if op == "--" {
			o = opSub
		}
		return &assignStmt{
			slot: slot, name: name.text, swizzle: sw, line: name.line,
			val: &binExpr{op: o, l: self, r: p.constant(1), line: name.line},
		}, nil
	}
	return nil, &CompileError{Line: name.line, Msg: "expected assignment after " + name.text}
}

// Expression grammar: cmp > addsub > muldiv > unary > postfix > primary.
func (p *parser) parseExpr() (expr, error) { return p.parseCmp() }

func (p *parser) parseCmp() (expr, error) {
	return p.parseBinary(p.parseAdd, "<", ">", "<=", ">=", "==", "!=")
}

func (p *parser) parseAdd() (expr, error) { return p.parseBinary(p.parseMul, "+", "-") }

func (p *parser) parseMul() (expr, error) { return p.parseBinary(p.parseUnary, "*", "/") }

// parseBinary parses a left-associative chain of operand separated by any of
// ops.
func (p *parser) parseBinary(operand func() (expr, error), ops ...string) (expr, error) {
	l, err := operand()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == "punct" && slices.Contains(ops, p.cur().text) {
		t := p.next()
		r, err := operand()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: binOps[t.text], l: l, r: r, line: t.line}
	}
	return l, nil
}

func (p *parser) parseUnary() (expr, error) {
	if p.cur().kind == "punct" && (p.cur().text == "-" || p.cur().text == "!") {
		op := p.next().text
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{not: op == "!", x: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.accept("punct", ".") {
		sw, err := p.expect("ident", "")
		if err != nil {
			return nil, err
		}
		if !validSwizzle(sw.text) {
			return nil, &CompileError{Line: sw.line, Msg: "invalid swizzle ." + sw.text}
		}
		s := &swizzleExpr{base: e, n: len(sw.text)}
		for i, c := range sw.text {
			s.idx[i] = swizzleIndex(c)
		}
		e = s
	}
	return e, nil
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.cur()
	switch {
	case t.kind == "num":
		p.pos++
		return p.constant(t.num), nil
	case t.kind == "ident":
		p.pos++
		if p.accept("punct", "(") {
			return p.parseCall(t)
		}
		return &varExpr{slot: p.slot(t.text), name: t.text, line: t.line}, nil
	case t.kind == "punct" && t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, &CompileError{Line: t.line, Msg: "unexpected token " + t.text}
	}
}

// parseCall parses a call's arguments after its opening parenthesis. An
// argument's cell is kept in the frame's argument cells once evaluated, so
// calls nested inside argument k start their own arguments at base+k: every
// argument still pending is above them, every finished one below.
func (p *parser) parseCall(fn token) (expr, error) {
	c := &callExpr{fn: builtins[fn.text], name: fn.text, base: p.callBase, line: fn.line}
	defer func() { p.callBase = c.base }()
	if !p.accept("punct", ")") {
		for {
			p.callBase = c.base + len(c.args)
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.args = append(c.args, a)
			if p.accept("punct", ")") {
				break
			}
			if _, err := p.expect("punct", ","); err != nil {
				return nil, err
			}
		}
	}
	p.sh.scratch = max(p.sh.scratch, c.base+len(c.args))
	return c, nil
}

func validSwizzle(s string) bool {
	if len(s) == 0 || len(s) > 4 {
		return false
	}
	return strings.Trim(s, "xyzwrgba") == ""
}
