package minisl

import "fmt"

// The parser types every expression as it builds it, as GLSL ES 1.00 does,
// and fails the compilation on a program GLSL ES 1.00 rejects. Every width
// is then known at compile time: no value's components past its declared
// width — its hidden components — are ever read, and a node computes only
// its declared components.

// vtype is an expression's static type: a width for float and vec2..vec4,
// or mat4 or sampler2D. The zero vtype is no type: the type of an API value
// of a width outside 1..4.
type vtype uint8

const (
	tFloat vtype = iota + 1
	tVec2
	tVec3
	tVec4
	tMat
	tSampler
)

// vector reports whether t is float or a vector, whose width is t itself.
func (t vtype) vector() bool { return t >= tFloat && t <= tVec4 }

// width is a vector type's width, and 0 for every other type.
func (t vtype) width() int {
	if t.vector() {
		return int(t)
	}
	return 0
}

var vtypeNames = [...]string{"?", "float", "vec2", "vec3", "vec4", "mat4", "sampler2D"}

// typeNames maps each type's name to it.
var typeNames = func() map[string]vtype {
	m := map[string]vtype{}
	for t, name := range vtypeNames[1:] {
		m[name] = vtype(t + 1)
	}
	return m
}()

func (t vtype) String() string { return vtypeNames[t] }

// class is how a frame holds a cell.
type class uint8

const (
	// uniCell is draw-uniform: one value for every lane of every span, held
	// in the single lane of the frame's uniform frame (Frame.u) and read
	// with stride 0. Constants and uniforms are draw-uniform, and so is a
	// node over only draw-uniform operands, but texture2D, whose fetches
	// count per lane.
	uniCell class = iota
	// vecCell is typed: the components of its static width in every lane.
	vecCell
)

// A node over operands of classes a and b is of class max(a, b).

// kind is an expression's class and static type.
type kind struct {
	class
	t vtype
}

func (k kind) info() kind { return k }

// operands fails the compilation unless each of ts is float or a vector:
// mat4 has only its products, and a sampler2D is only texture2D's first
// argument.
func operands(line int, what string, ts ...vtype) {
	for _, t := range ts {
		if !t.vector() {
			fail(line, fmt.Sprintf("%s: a %v operand", what, t))
		}
	}
}

// checkStore checks a value of type v stored whole into a variable of type
// to: it must be of that type, or a scalar, which splats to a vector.
func checkStore(line int, to, v vtype, name string) {
	if v != to && !(to.vector() && v == tFloat) {
		fail(line, fmt.Sprintf("cannot store %v in %v %s", v, to, name))
	}
}

// checkSwizzle checks that the components sw names lie within type b.
func checkSwizzle(line int, b vtype, sw string) {
	for _, c := range sw {
		if int(swizzleIndex(c)) >= b.width() {
			fail(line, fmt.Sprintf("swizzle .%s reads past %v", sw, b))
		}
	}
}

// checkWidths checks that the vectors among a component-wise operation's
// operands have one width; a scalar among them splats.
func checkWidths(line int, what string, ts ...vtype) {
	w := tFloat
	for _, ty := range ts {
		if ty == tFloat {
			continue
		}
		if w != tFloat && ty != w {
			fail(line, fmt.Sprintf("%s: %v and %v differ in width", what, w, ty))
		}
		w = ty
	}
}

func swizzle(base expr, sw token) *swizzleExpr {
	b := base.info()
	operands(sw.line, "swizzle", b.t)
	checkSwizzle(sw.line, b.t, sw.text)
	s := &swizzleExpr{kind: kind{b.class, vtype(len(sw.text))}, base: base, n: len(sw.text)}
	for i, c := range sw.text {
		s.idx[i] = swizzleIndex(c)
	}
	return s
}

// unary types -x, of x's type, or !x, a float.
func unary(not bool, x expr, line int) *unaryExpr {
	k := x.info()
	operands(line, "operator", k.t)
	if not {
		k.t = tFloat
	}
	return &unaryExpr{kind: k, not: not, x: x}
}

// binary types l op r: a comparison is a float; arithmetic over vectors of
// one width, or a scalar and a vector, has the wider type; a matrix has
// only mat4*mat4, a mat4 in four cells of its own, and mat4*vec4.
func (p *parser) binary(op binOp, l, r expr, line int) *binExpr {
	lt, rt := l.info().t, r.info().t
	e := &binExpr{kind: kind{class: max(l.info().class, r.info().class)}, op: op, l: l, r: r}
	switch {
	case op == opMul && lt == tMat && rt == tMat:
		e.t, e.cell = tMat, p.alloc(tMat)
	case op == opMul && lt == tMat && rt == tVec4:
		e.t = tVec4
	case lt == tMat || rt == tMat:
		fail(line, fmt.Sprintf("%v %s %v: matrices have only mat4*mat4 and mat4*vec4", lt, opNames[op], rt))
	default:
		operands(line, "operator", lt, rt)
		e.t = tFloat
		if op < opLT {
			checkWidths(line, "operator", lt, rt)
			e.t = max(lt, rt)
		}
	}
	return e
}

// arity maps each builtin of fixed arity to its argument count and the
// message a call with another count fails with.
var arity = map[builtin]struct {
	n   int
	msg string
}{
	fnTexture2D: {2, "needs (sampler, vec2)"},
	fnClamp:     {3, "needs 3 args"}, fnMix: {3, "needs 3 args"},
	fnMin: {2, "needs 2 args"}, fnMax: {2, "needs 2 args"}, fnPow: {2, "needs 2 args"}, fnDot: {2, "needs 2 args"},
	fnFract: {1, "needs 1 arg"}, fnFloor: {1, "needs 1 arg"}, fnAbs: {1, "needs 1 arg"}, fnSin: {1, "needs 1 arg"},
	fnCos: {1, "needs 1 arg"}, fnLength: {1, "needs 1 arg"}, fnNormalize: {1, "needs 1 arg"},
}

// componentWise lists the builtins whose vector arguments must have one
// width.
var componentWise = map[builtin]bool{fnClamp: true, fnMin: true, fnMax: true, fnPow: true, fnMix: true, fnDot: true}

// call types a builtin call. texture2D samples a sampler2D at vector
// coordinates, a vec4; a constructor needs its width's components; every
// other builtin takes floats and vectors, and returns a float (dot,
// length) or its first argument's type.
func call(fn token, args []expr) *callExpr {
	b, ok := builtins[fn.text]
	if !ok {
		fail(fn.line, fn.text+": unknown function")
	}
	if a, ok := arity[b]; ok && len(args) != a.n {
		fail(fn.line, fn.text+": "+a.msg)
	}
	e := &callExpr{fn: b, args: args}
	ts := make([]vtype, len(args))
	for i, a := range args {
		ts[i] = a.info().t
		e.class = max(e.class, a.info().class)
	}
	switch {
	case b == fnTexture2D:
		if ts[0] != tSampler {
			fail(fn.line, "texture2D: needs (sampler, vec2)")
		}
		operands(fn.line, fn.text, ts[1])
		if ts[1] == tFloat {
			fail(fn.line, "texture2D: float coordinates; needs a vec2")
		}
		e.kind = kind{vecCell, tVec4}
		return e
	case b <= fnVec4:
		operands(fn.line, fn.text, ts...)
		e.t = vtype(b-fnVec2) + tVec2
		if _, n := ctorPlan(e.t.width(), ts[:min(len(ts), 4)]); n < e.t.width() {
			fail(fn.line, fmt.Sprintf("%s: needs %d components, got %d", fn.text, e.t.width(), n))
		}
		return e
	}
	operands(fn.line, fn.text, ts...)
	if componentWise[b] {
		checkWidths(fn.line, fn.text, ts...)
	}
	e.t = ts[0]
	if b == fnDot || b == fnLength {
		e.t = tFloat
	}
	return e
}
