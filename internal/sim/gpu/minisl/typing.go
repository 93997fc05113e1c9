package minisl

// Compile types every cell of a shader's frame before it builds the
// closures, so that a node can fix its operands' widths once per span
// instead of reading them in every lane.

// class is how a frame holds a cell.
type class uint8

const (
	// uniCell is draw-uniform: one value for every lane of every span,
	// held in the single lane of the frame's uniform frame (Frame.u) with
	// its width and reference, and read with stride 0.
	uniCell class = iota
	// vecCell holds components in every lane, one width for the whole cell
	// (Frame.cw), and no reference in any lane.
	vecCell
	// dynCell holds components, a width and a reference in every lane.
	dynCell
)

// The classes are ordered so that a node over operands of classes a and b
// is, unless its result fixes its own width, of class max(a, b).

// kind is an expression's class. ref marks a draw-uniform value that may be
// a reference: a uniform the binding may have set to a matrix or a sampler,
// or a node that can hand such a value back.
type kind struct {
	class
	ref bool
}

// Roles a slot has at entry.
const (
	roleUniform = 1 << iota
	roleAttrib
	roleVarying
	roleOut
)

// typer decides each slot's class, and each expression's kind given those.
type typer struct {
	class []class // slot-indexed
	width []uint8 // slot-indexed: the width of a vecCell slot
	memo  map[expr]kind
}

// typeSlots decides the class of every slot of sh. A uniform the shader
// never writes is draw-uniform. A slot is typed when it has one width in
// every lane that defines it and never holds a reference: gl_FragColor and
// gl_Position (width 4), a varying of a vector type that a fragment shader
// only reads, or a local declared with one vector type throughout, and
// only while every value written to it whole is typed or a draw-uniform
// value that cannot be a reference. Everything else is dynamic: an
// attribute (its width comes with each vertex), a uniform the shader
// writes, a slot of two roles, a mat4 or sampler2D slot, which takes its
// value's width, and a slot declared with two widths.
func typeSlots(sh *Shader) *typer {
	n := len(sh.written)
	t := &typer{class: make([]class, n), width: make([]uint8, n)}
	roles := make([]uint8, n)
	roles[sh.slots[specialOut(sh.Kind)]] |= roleOut
	for _, d := range sh.Uniforms {
		roles[sh.slots[d.Name]] |= roleUniform
	}
	for _, d := range sh.Attributes {
		roles[sh.slots[d.Name]] |= roleAttrib
	}
	for _, d := range sh.Varyings {
		roles[sh.slots[d.Name]] |= roleVarying
	}
	seen := make([]bool, n) // a varying or local whose width is set
	for s, r := range roles {
		switch {
		case r == roleUniform && !sh.written[s]:
			t.class[s] = uniCell
		case r == roleOut:
			t.class[s], t.width[s], seen[s] = vecCell, 4, true
		case r == roleVarying && !(sh.Kind == Fragment && sh.written[s]), r == 0:
			t.class[s] = vecCell
		default:
			t.class[s] = dynCell
		}
	}
	for _, d := range sh.Varyings {
		t.setWidth(sh.slots[d.Name], uint8(declWidth(d.Type)), seen)
	}
	walk(sh.body, func(s stmt) {
		if d, ok := s.(*declStmt); ok && t.class[d.slot] == vecCell {
			t.setWidth(d.slot, uint8(d.width), seen)
		}
	})
	for s := range t.class {
		if t.class[s] == vecCell && t.width[s] == 0 {
			t.class[s] = dynCell // never declared, or a mat4 or sampler2D
		}
	}
	// Writes demote slots, which can make other values dynamic.
	for changed := true; changed; {
		changed = false
		t.memo = map[expr]kind{}
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
			if k := t.kind(val); k.class == dynCell || k.ref {
				t.class[slot] = dynCell
				changed = true
			}
		})
	}
	t.memo = map[expr]kind{}
	return t
}

// setWidth records w as slot s's width; a second, different width makes
// it dynamic.
func (t *typer) setWidth(s int, w uint8, seen []bool) {
	if seen[s] && t.width[s] != w {
		t.class[s] = dynCell
	}
	t.width[s], seen[s] = w, true
}

// declWidth is a declared type's width: 0 for mat4 and sampler2D.
func declWidth(typ string) int {
	if typ == "mat4" || typ == "sampler2D" {
		return 0
	}
	return widthOf(typ)
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

// kind returns e's kind. A node over draw-uniform operands only is itself
// draw-uniform, except texture2D, whose fetches count per lane. A node with
// a dynamic operand is dynamic, except those whose result has a width of
// its own whatever the operands': a swizzle, a comparison, !, texture2D and
// a call that faults on its arity. Every other node is typed.
func (t *typer) kind(e expr) kind {
	if k, ok := t.memo[e]; ok {
		return k
	}
	var k kind
	switch ex := e.(type) {
	case *numExpr:
		k = kind{class: uniCell}
	case *varExpr:
		c := t.class[ex.slot]
		k = kind{c, c == uniCell}
	case *swizzleExpr:
		k = fixed(t.kind(ex.base))
	case *unaryExpr:
		k = t.kind(ex.x)
		if ex.not {
			k = fixed(k)
		}
		k.ref = false
	case *binExpr:
		l, r := t.kind(ex.l), t.kind(ex.r)
		switch {
		case ex.op >= opLT:
			k = fixed(kind{class: max(l.class, r.class)})
		default:
			// Only a matrix times a matrix gives a matrix.
			k = kind{max(l.class, r.class), l.ref && r.ref}
		}
	case *callExpr:
		k = kind{class: uniCell}
		for _, a := range ex.args {
			k.class = max(k.class, t.kind(a).class)
		}
		switch {
		case ex.fn == fnTexture2D || ex.fault() != "":
			k = kind{class: vecCell}
		case ex.fn == fnNormalize && k.class == uniCell:
			// A zero-length argument comes back whole, reference and all.
			k.ref = t.kind(ex.args[0]).ref
		}
	}
	t.memo[e] = k
	return k
}

// fixed is the kind of a node whose result has the same width in every lane
// and no reference, over operands of kind k: draw-uniform if they are, else
// typed.
func fixed(k kind) kind {
	if k.class == uniCell {
		return kind{class: uniCell}
	}
	return kind{class: vecCell}
}
