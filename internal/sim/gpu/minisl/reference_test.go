package minisl

import (
	"fmt"
	"math"

	"cycada/internal/sim/gpu"
)

// The reference evaluator: the per-invocation tree walker MiniSL ran before
// it shaded in lanes, kept as the oracle the lane evaluator is held to. It
// walks the parsed AST for one invocation at a time, on a fresh frame of its
// own, holding a Value per variable, and shares nothing with the compiled
// closures but the AST, the stage layout and the Value helpers. It computes
// every component of every value, but Compile lets no program read a
// component past its value's declared width, so only the declared
// components are compared: gl_FragColor whole, and each varying at the
// vertex shader's declared width. Its one runtime fault is the step limit.

// refFrame is one invocation's state: a Value at the first cell of each
// variable, and the step and fetch counters.
type refFrame struct {
	vals    []Value
	steps   int
	fetches int
}

// newRefFrame lays out a fresh frame for st with uni's uniforms bound and
// the stage output zero.
func newRefFrame(st *stage, uni []Value) *refFrame {
	f := &refFrame{vals: make([]Value, st.sh.cells), steps: defaultMaxSteps}
	for k, c := range st.uniforms {
		f.vals[c] = uni[k]
	}
	f.vals[st.out] = Vec(4)
	return f
}

// refRunFragment runs b's fragment shader for one fragment.
func refRunFragment(b *Binding, vary []gpu.Vec4) (gpu.Vec4, int, error) {
	st := b.p.fs
	f := newRefFrame(st, b.fs)
	for _, in := range st.varyIn {
		f.vals[in.cell] = Vec(in.width)
		if in.index < len(vary) {
			f.vals[in.cell].V = vary[in.index]
		}
	}
	if err := f.runBlock(st.sh.body); err != nil {
		return gpu.Vec4{}, 0, err
	}
	return f.vals[st.out].V, f.fetches, nil
}

// refRunVertex runs b's vertex shader for one vertex.
func refRunVertex(b *Binding, attribs []gpu.Vec4, vary []gpu.Vec4) (gpu.Vec4, error) {
	st := b.p.vs
	f := newRefFrame(st, b.vs)
	for _, in := range st.attribs {
		f.vals[in.cell] = Vec(in.width)
		if in.index < len(attribs) {
			f.vals[in.cell].V = attribs[in.index]
		}
	}
	for i, c := range st.varyZero {
		f.vals[c] = Vec(widthOf(st.sh.Varyings[i].Type))
	}
	if err := f.runBlock(st.sh.body); err != nil {
		return gpu.Vec4{}, err
	}
	for i, c := range st.varyOut {
		vary[i] = f.vals[c].V
	}
	return f.vals[st.out].V, nil
}

func (f *refFrame) runBlock(body []stmt) error {
	for _, s := range body {
		if err := f.runStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (f *refFrame) runStmt(s stmt) error {
	if f.steps--; f.steps <= 0 {
		return errSteps
	}
	switch st := s.(type) {
	case *assignStmt:
		v, cur := f.eval(st.val), &f.vals[st.cell]
		switch {
		case st.comp >= 0:
			cur.V[st.comp] = v.V[0]
		case st.t.vector():
			*cur = Value{Width: st.t.width(), V: refBroadcast(v, st.t.width())}
		default:
			*cur = v
		}
		return nil
	case *ifStmt:
		if f.eval(st.cond).V[0] != 0 {
			return f.runBlock(st.then)
		}
		return f.runBlock(st.els)
	case *forStmt:
		if err := f.runStmt(st.init); err != nil {
			return err
		}
		for f.eval(st.cond).V[0] != 0 {
			if err := f.runBlock(st.body); err != nil {
				return err
			}
			if err := f.runStmt(st.post); err != nil {
				return err
			}
		}
		return nil
	default:
		panic(fmt.Sprintf("minisl: unknown statement %T", s))
	}
}

func (f *refFrame) eval(x expr) Value {
	switch ex := x.(type) {
	case *numExpr:
		return ex.v
	case *varExpr:
		return f.vals[ex.cell]
	case *swizzleExpr:
		base := f.eval(ex.base)
		var out gpu.Vec4
		for i, c := range ex.idx[:ex.n] {
			out[i] = base.V[c]
		}
		return Value{Width: ex.n, V: out}
	case *unaryExpr:
		v := f.eval(ex.x)
		if !ex.not {
			return Value{Width: v.Width, V: v.V.Scale(-1)}
		}
		return Float(truth(v.V[0] == 0))
	case *binExpr:
		return f.evalBin(ex)
	case *callExpr:
		return f.evalCall(ex)
	default:
		panic(fmt.Sprintf("minisl: unknown expression %T", x))
	}
}

func (f *refFrame) evalBin(ex *binExpr) Value {
	l, r := f.eval(ex.l), f.eval(ex.r)
	if ex.op >= opLT {
		a, b := l.V[0], r.V[0]
		var res bool
		switch ex.op {
		case opLT:
			res = a < b
		case opGT:
			res = a > b
		case opLE:
			res = a <= b
		case opGE:
			res = a >= b
		case opEQ:
			res = a == b
		case opNE:
			res = a != b
		}
		return Float(truth(res))
	}
	// The matrix forms: mat4*mat4 and mat4*vec4.
	switch {
	case r.M != nil:
		return Mat(l.M.MulMat(*r.M))
	case l.M != nil:
		return Value{Width: 4, V: l.M.MulVec(r.V)}
	}
	// Scalar broadcast.
	w := max(l.Width, r.Width)
	lv, rv := refBroadcast(l, w), refBroadcast(r, w)
	var out gpu.Vec4
	switch ex.op {
	case opAdd:
		out = lv.Add(rv)
	case opSub:
		out = lv.Sub(rv)
	case opMul:
		out = gpu.Vec4{lv[0] * rv[0], lv[1] * rv[1], lv[2] * rv[2], lv[3] * rv[3]}
	case opDiv:
		for i := 0; i < 4; i++ {
			if rv[i] != 0 {
				out[i] = lv[i] / rv[i]
			}
		}
	}
	return Value{Width: w, V: out}
}

func (f *refFrame) evalCall(ex *callExpr) Value {
	args := make([]Value, len(ex.args))
	for i, a := range ex.args {
		args[i] = f.eval(a)
	}
	switch ex.fn {
	case fnVec2, fnVec3, fnVec4:
		w := int(ex.fn-fnVec2) + 2
		var comps gpu.Vec4
		n := 0
		for _, a := range args {
			// A single scalar argument splats (vec4(1.0)).
			if len(args) == 1 && a.Width == 1 {
				return Value{Width: w, V: refBroadcast(a, w)}
			}
			for i := 0; i < a.Width && n < w; i++ {
				comps[n] = a.V[i]
				n++
			}
		}
		return Value{Width: w, V: comps}
	case fnTexture2D:
		f.fetches++
		return Value{Width: 4, V: refTexel(args[0].Sampler, args[1].V[0], args[1].V[1])}
	case fnClamp:
		var out gpu.Vec4
		for i := 0; i < 4; i++ {
			out[i] = minf(maxf(args[0].V[i], args[1].V[0]), args[2].V[0])
		}
		return Value{Width: args[0].Width, V: out}
	case fnMin, fnMax, fnPow:
		w := args[0].Width
		a, b := refBroadcast(args[0], w), refBroadcast(args[1], w)
		var out gpu.Vec4
		for i := 0; i < 4; i++ {
			switch ex.fn {
			case fnMin:
				out[i] = minf(a[i], b[i])
			case fnMax:
				out[i] = maxf(a[i], b[i])
			case fnPow:
				out[i] = float32(math.Pow(float64(a[i]), float64(b[i])))
			}
		}
		return Value{Width: w, V: out}
	case fnDot:
		b := refBroadcast(args[1], args[0].Width)
		var s float32
		for i := 0; i < args[0].Width; i++ {
			s += args[0].V[i] * b[i]
		}
		return Float(s)
	case fnMix:
		t := args[2].V[0]
		w := args[0].Width
		b := refBroadcast(args[1], w)
		var out gpu.Vec4
		for i := range out {
			out[i] = float32(args[0].V[i]*(1-t)) + float32(b[i]*t)
		}
		return Value{Width: w, V: out}
	case fnFract, fnFloor, fnAbs, fnSin, fnCos:
		var out gpu.Vec4
		for i := 0; i < 4; i++ {
			x := float64(args[0].V[i])
			switch ex.fn {
			case fnFract:
				out[i] = float32(x - math.Floor(x))
			case fnFloor:
				out[i] = float32(math.Floor(x))
			case fnAbs:
				out[i] = float32(math.Abs(x))
			case fnSin:
				out[i] = float32(math.Sin(x))
			case fnCos:
				out[i] = float32(math.Cos(x))
			}
		}
		return Value{Width: args[0].Width, V: out}
	}
	// length and normalize.
	var s float64
	for i := 0; i < args[0].Width; i++ {
		s += float64(float64(args[0].V[i]) * float64(args[0].V[i]))
	}
	n := float32(math.Sqrt(s))
	switch {
	case ex.fn == fnLength:
		return Float(n)
	case n == 0:
		return args[0]
	}
	return Value{Width: args[0].Width, V: args[0].V.Scale(1 / n)}
}

// refBroadcast widens v to width w: a scalar splats.
func refBroadcast(v Value, w int) gpu.Vec4 {
	if v.Width == 1 && w > 1 {
		return gpu.Vec4{v.V[0], v.V[0], v.V[0], v.V[0]}
	}
	return v.V
}

// refTexel is nearest sampling as GLES defines it, written apart from the
// gpu package's samplers: u in [i/W, (i+1)/W) reads texel i after the wrap
// mode (repeat, or clamp to [0, 1]), v=0 is the top row, a texture without
// an image reads opaque black, and a coordinate that names no texel (NaN)
// reads transparent black.
func refTexel(t *gpu.Texture, u, v float32) gpu.Vec4 {
	if t == nil || t.Img == nil {
		return gpu.Vec4{0, 0, 0, 1}
	}
	if t.Repeat {
		u -= float32(math.Floor(float64(u)))
		v -= float32(math.Floor(float64(v)))
	} else {
		u, v = min(max(u, 0), 1), min(max(v, 0), 1)
	}
	fx, fy := u*float32(t.Img.W), v*float32(t.Img.H)
	if !(fx >= 0 && fy >= 0) {
		return gpu.Vec4{}
	}
	c := t.Img.At(min(int(fx), t.Img.W-1), min(int(fy), t.Img.H-1))
	return gpu.Vec4{float32(c.R) / 255, float32(c.G) / 255, float32(c.B) / 255, float32(c.A) / 255}
}
