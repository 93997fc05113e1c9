package minisl

import (
	"fmt"
	"slices"
)

// Compile types every expression and every cell of a shader's frame before
// it builds the closures. Static types hold MiniSL to GLSL ES 1.00's rules on
// widths, so that no value's components past its declared width — its
// hidden components — are read where widths are known at compile time, and
// a typed node computes only its declared components.

// vtype is an expression's static type: a width for float and vec2..vec4,
// or one of the reference types. tAny is a value whose type is not fixed at
// compile time: a name declared with two types, or none.
type vtype uint8

const (
	tAny vtype = iota
	tFloat
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
	// uniCell is draw-uniform: one value for every lane of every span,
	// held in the single lane of the frame's uniform frame (Frame.u) with
	// its width and reference, and read with stride 0.
	uniCell class = iota
	// vecCell holds the components of its static width in every lane, and
	// no reference in any lane.
	vecCell
	// dynCell holds components, a width and a reference in every lane.
	dynCell
)

// The classes are ordered so that a node over operands of classes a and b
// is, unless its result fixes its own width, of class max(a, b).

// kind is an expression's class and static type.
type kind struct {
	class
	t vtype
}

// Roles a slot has at entry.
const (
	roleUniform = 1 << iota
	roleAttrib
	roleVarying
	roleOut
)

// typer holds each slot's static type and class, and each expression's
// static type and class.
type typer struct {
	class []class // slot-indexed
	typ   []vtype // slot-indexed
	types map[expr]vtype
	memo  map[expr]class
}

// typeSlots types sh's slots and expressions; a broken width rule fails
// the compilation.
//
// A slot's static type is the type every declaration of it gives it —
// gl_FragColor and gl_Position are vec4 — or tAny. A uniform the shader
// never writes is draw-uniform. A slot is typed when its static type is a
// vector and it never holds a reference: gl_FragColor and gl_Position, a
// varying that a fragment shader only reads, a vertex shader's varying or a
// local, and only while every value written to it whole is typed or a
// draw-uniform vector. Everything else is dynamic: an attribute (its width
// comes with each vertex), a uniform the shader writes, a slot of two roles
// or of type tAny, and a mat4 or sampler2D local, which takes its value's
// width.
func typeSlots(sh *Shader) *typer {
	n := len(sh.written)
	t := &typer{class: make([]class, n), typ: make([]vtype, n), types: map[expr]vtype{}}
	roles := make([]uint8, n)
	seen, conflict := make([]bool, n), make([]bool, n)
	declare := func(s int, ty vtype) {
		switch {
		case !seen[s]:
			t.typ[s], seen[s] = ty, true
		case t.typ[s] != ty:
			conflict[s] = true
		}
	}
	out := sh.slots[specialOut(sh.Kind)]
	roles[out] |= roleOut
	declare(out, tVec4)
	for _, ds := range []struct {
		decls []Decl
		role  uint8
	}{{sh.Uniforms, roleUniform}, {sh.Attributes, roleAttrib}, {sh.Varyings, roleVarying}} {
		for _, d := range ds.decls {
			s := sh.slots[d.Name]
			roles[s] |= ds.role
			declare(s, typeNames[d.Type])
		}
	}
	walk(sh.body, func(s stmt) {
		if d, ok := s.(*declStmt); ok {
			declare(d.slot, d.typ)
		}
	})
	for s, r := range roles {
		if conflict[s] {
			t.typ[s] = tAny
		}
		vec := t.typ[s].vector()
		switch {
		case r == roleUniform && !sh.written[s]:
			t.class[s] = uniCell
		case vec && (r == roleOut || r == 0 || r == roleVarying && !(sh.Kind == Fragment && sh.written[s])):
			t.class[s] = vecCell
		default:
			t.class[s] = dynCell
		}
	}
	t.check(sh.body)
	// Writes demote slots, which can make other values dynamic.
	for changed := true; changed; {
		changed = false
		t.memo = map[expr]class{}
		walk(sh.body, func(s stmt) {
			slot, val := -1, expr(nil)
			switch st := s.(type) {
			case *declStmt:
				slot, val = st.slot, st.init
			case *assignStmt:
				if st.swizzle == "" {
					slot, val = st.slot, st.val
				}
			}
			if val == nil || t.class[slot] != vecCell {
				return
			}
			if k := t.kind(val); k.class == dynCell || k.class == uniCell && !k.t.vector() {
				t.class[slot] = dynCell
				changed = true
			}
		})
	}
	t.memo = map[expr]class{}
	return t
}

// walk calls fn on every statement of body, at every depth.
func walk(body []stmt, fn func(stmt)) {
	for _, s := range body {
		fn(s)
		switch st := s.(type) {
		case *ifStmt:
			walk(st.then, fn)
			walk(st.els, fn)
		case *forStmt:
			walk([]stmt{st.init, st.post}, fn)
			walk(st.body, fn)
		}
	}
}

// check types every statement of body: a vector stored whole into a slot
// of another vector type, unless it is a scalar, which splats, and a
// component written past its slot's type, break the rules, as do the
// expressions typeOf rejects.
func (t *typer) check(body []stmt) {
	walk(body, func(s stmt) {
		switch st := s.(type) {
		case *declStmt:
			if st.init != nil {
				checkStore(st.line, st.typ, t.typeOf(st.init), st.name)
			}
		case *assignStmt:
			v, to := t.typeOf(st.val), t.typ[st.slot]
			if st.swizzle == "" {
				checkStore(st.line, to, v, st.name)
			} else if to.vector() {
				checkSwizzle(st.line, to, st.swizzle)
			}
		case *ifStmt:
			t.typeOf(st.cond)
		case *forStmt:
			t.typeOf(st.cond)
		}
	})
}

// checkStore checks a value of type v stored whole into a slot of type to.
func checkStore(line int, to, v vtype, name string) {
	if to.vector() && v.vector() && v != to && v != tFloat {
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
		if !ty.vector() || ty == tFloat {
			continue
		}
		if w != tFloat && ty != w {
			fail(line, fmt.Sprintf("%s: %v and %v differ in width", what, w, ty))
		}
		w = ty
	}
}

// componentWise lists the builtins whose vector arguments must have one
// width.
var componentWise = map[builtin]bool{fnClamp: true, fnMin: true, fnMax: true, fnPow: true, fnMix: true, fnDot: true}

// typeOf returns e's static type, and fails the compilation when e breaks
// a width rule. A swizzle, a comparison, ! and texture2D fix their own
// type. Any other node with an operand that is not a vector is of type
// tAny, but mat4*mat4 (a mat4) and a mat4 times a vector (a vec4): the
// rest of matrix arithmetic faults when it runs.
func (t *typer) typeOf(e expr) vtype {
	if ty, ok := t.types[e]; ok {
		return ty
	}
	var ty vtype
	switch ex := e.(type) {
	case *numExpr:
		ty = tFloat
	case *varExpr:
		ty = t.typ[ex.slot]
	case *swizzleExpr:
		if b := t.typeOf(ex.base); b.vector() {
			checkSwizzle(ex.line, b, ex.text)
		}
		ty = vtype(ex.n)
	case *unaryExpr:
		ty = tFloat
		if x := t.typeOf(ex.x); !ex.not {
			ty = x
			if !x.vector() {
				ty = tAny
			}
		}
	case *binExpr:
		l, r := t.typeOf(ex.l), t.typeOf(ex.r)
		switch {
		case ex.op >= opLT:
			ty = tFloat
		case l.vector() && r.vector():
			checkWidths(ex.line, "operator", l, r)
			ty = max(l, r)
		case ex.op == opMul && l == tMat && r == tMat:
			ty = tMat
		case ex.op == opMul && l == tMat && r.vector():
			ty = tVec4
		default:
			ty = tAny
		}
	case *callExpr:
		args := make([]vtype, len(ex.args))
		for i, a := range ex.args {
			args[i] = t.typeOf(a)
		}
		switch {
		case ex.fault() != "":
			ty = tAny
		case ex.fn == fnTexture2D:
			if args[1] == tFloat {
				fail(ex.line, "texture2D: float coordinates; needs a vec2")
			}
			ty = tVec4
		case slices.ContainsFunc(args, func(a vtype) bool { return !a.vector() }):
			ty = tAny
		case ex.fn <= fnVec4:
			ty = vtype(ex.fn-fnVec2) + tVec2
		case ex.fn == fnDot || ex.fn == fnLength:
			ty = tFloat
		default:
			ty = args[0]
		}
		if componentWise[ex.fn] && ex.fault() == "" {
			checkWidths(ex.line, ex.name, args...)
		}
	}
	t.types[e] = ty
	return ty
}

// kind returns e's kind. A node over draw-uniform operands only is itself
// draw-uniform, except texture2D, whose fetches count per lane. A node with
// a dynamic operand is dynamic, except those whose result has a width of
// its own whatever the operands': a swizzle, a comparison, !, texture2D and
// a call that faults on its arity. Every other node is typed if its static
// type is a vector, and so its operands' widths are fixed too (see typeOf);
// else it is dynamic too.
func (t *typer) kind(e expr) kind {
	ty := t.typeOf(e)
	if c, ok := t.memo[e]; ok {
		return kind{c, ty}
	}
	var c class
	fixedResult := false
	switch ex := e.(type) {
	case *numExpr:
		c = uniCell
	case *varExpr:
		c = t.class[ex.slot]
	case *swizzleExpr:
		c, fixedResult = fixed(t.kind(ex.base).class), true
	case *unaryExpr:
		c, fixedResult = t.kind(ex.x).class, ex.not
		if ex.not {
			c = fixed(c)
		}
	case *binExpr:
		c, fixedResult = max(t.kind(ex.l).class, t.kind(ex.r).class), ex.op >= opLT
		if fixedResult {
			c = fixed(c)
		}
	case *callExpr:
		c = uniCell
		for _, a := range ex.args {
			c = max(c, t.kind(a).class)
		}
		if ex.fn == fnTexture2D || ex.fault() != "" {
			c, fixedResult = vecCell, true
		}
	}
	if c == vecCell && !fixedResult && !ty.vector() {
		c = dynCell
	}
	t.memo[e] = c
	return kind{c, ty}
}

// fixed is the class of a node whose result has the same width in every
// lane and no reference, over operands of class c: draw-uniform if they
// are, else typed.
func fixed(c class) class {
	if c == uniCell {
		return uniCell
	}
	return vecCell
}
