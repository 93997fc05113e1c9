package minisl

import (
	"fmt"
	"math"

	"cycada/internal/sim/gpu"
)

// The reference evaluator: the per-invocation tree walker MiniSL ran before
// it shaded in lanes, kept as the oracle the lane evaluator is held to. It
// walks the parsed AST for one invocation at a time, on a fresh frame of its
// own, and shares nothing with the compiled closures but the AST, the
// stage layout and the Value helpers.

// refFrame is one invocation's state: a Value and a defined bit per slot,
// and the step and fetch counters.
type refFrame struct {
	vals    []Value
	def     []bool
	steps   int
	fetches int
}

// newRefFrame lays out a fresh frame for st, marking the slots defined at
// entry.
func newRefFrame(st *stage) *refFrame {
	n := len(st.sh.written)
	f := &refFrame{vals: make([]Value, n), def: make([]bool, n), steps: defaultMaxSteps}
	for s, d := range st.def {
		f.def[s] = d != 0
	}
	return f
}

// bindRef writes uni into the uniforms' slots.
func (f *refFrame) bindRef(st *stage, uni []Value) {
	for k, u := range st.uniforms {
		f.vals[u.slot] = uni[k]
	}
}

// refRunFragment runs b's fragment shader for one fragment.
func refRunFragment(b *Binding, vary []gpu.Vec4) (gpu.Vec4, int, error) {
	st := b.p.fs
	f := newRefFrame(st)
	for _, in := range st.varyIn {
		if in.index < len(vary) {
			f.vals[in.slot] = Value{Width: in.width, V: vary[in.index]}
		} else {
			f.vals[in.slot] = in.zero
		}
	}
	f.bindRef(st, b.fs)
	f.vals[st.out] = Vec(4)
	if err := f.runBlock(st.sh.body); err != nil {
		return gpu.Vec4{}, 0, err
	}
	return f.vals[st.out].V, f.fetches, nil
}

// refRunVertex runs b's vertex shader for one vertex.
func refRunVertex(b *Binding, attribs []Value, vary []gpu.Vec4) (gpu.Vec4, error) {
	st := b.p.vs
	f := newRefFrame(st)
	for _, in := range st.attribs {
		if in.index < len(attribs) {
			f.vals[in.slot] = attribs[in.index]
		} else {
			f.vals[in.slot] = in.zero
		}
	}
	f.bindRef(st, b.vs)
	for _, in := range st.varyZero {
		f.vals[in.slot] = in.zero
	}
	f.vals[st.out] = Vec(4)
	if err := f.runBlock(st.sh.body); err != nil {
		return gpu.Vec4{}, err
	}
	for i, s := range st.varyOut {
		vary[i] = f.vals[s].V
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
		return &evalError{msg: "shader exceeded step limit"}
	}
	switch st := s.(type) {
	case *declStmt:
		v := st.zero
		if st.init != nil {
			iv, err := f.eval(st.init)
			if err != nil {
				return err
			}
			v = iv
			if st.width > 0 {
				v = refCoerceWidth(iv, st.width)
			}
		}
		f.vals[st.slot], f.def[st.slot] = v, true
		return nil
	case *assignStmt:
		v, err := f.eval(st.val)
		if err != nil {
			return err
		}
		if !f.def[st.slot] {
			return &evalError{line: st.line, msg: "assignment to undeclared " + st.name}
		}
		cur := &f.vals[st.slot]
		if st.swizzle == "" {
			if cur.M != nil && v.M == nil {
				return &evalError{line: st.line, msg: "cannot assign scalar to matrix " + st.name}
			}
			if cur.Width > 0 {
				v = refCoerceWidth(v, cur.Width)
			}
			*cur = v
			return nil
		}
		if len(st.swizzle) != 1 {
			return &evalError{line: st.line, msg: "only single-component swizzle writes supported"}
		}
		cur.V[swizzleIndex(rune(st.swizzle[0]))] = v.V[0]
		return nil
	case *ifStmt:
		c, err := f.eval(st.cond)
		if err != nil {
			return err
		}
		if c.V[0] != 0 {
			return f.runBlock(st.then)
		}
		return f.runBlock(st.els)
	case *forStmt:
		if err := f.runStmt(st.init); err != nil {
			return err
		}
		for {
			c, err := f.eval(st.cond)
			if err != nil {
				return err
			}
			if c.V[0] == 0 {
				return nil
			}
			if err := f.runBlock(st.body); err != nil {
				return err
			}
			if err := f.runStmt(st.post); err != nil {
				return err
			}
			if f.steps <= 0 {
				return &evalError{msg: "shader loop exceeded step limit"}
			}
		}
	default:
		panic(fmt.Sprintf("minisl: unknown statement %T", s))
	}
}

func (f *refFrame) eval(x expr) (Value, error) {
	switch ex := x.(type) {
	case *numExpr:
		return ex.v, nil
	case *varExpr:
		if !f.def[ex.slot] {
			return Value{}, &evalError{line: ex.line, msg: "undefined variable " + ex.name}
		}
		return f.vals[ex.slot], nil
	case *swizzleExpr:
		base, err := f.eval(ex.base)
		if err != nil {
			return Value{}, err
		}
		var out gpu.Vec4
		for i, c := range ex.idx[:ex.n] {
			out[i] = base.V[c]
		}
		return Value{Width: ex.n, V: out}, nil
	case *unaryExpr:
		v, err := f.eval(ex.x)
		if err != nil {
			return Value{}, err
		}
		if !ex.not {
			return Value{Width: v.Width, V: v.V.Scale(-1)}, nil
		}
		if v.V[0] == 0 {
			return Float(1), nil
		}
		return Float(0), nil
	case *binExpr:
		return f.evalBin(ex)
	case *callExpr:
		return f.evalCall(ex)
	default:
		panic(fmt.Sprintf("minisl: unknown expression %T", x))
	}
}

func (f *refFrame) evalBin(ex *binExpr) (Value, error) {
	l, err := f.eval(ex.l)
	if err != nil {
		return Value{}, err
	}
	r, err := f.eval(ex.r)
	if err != nil {
		return Value{}, err
	}
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
		if res {
			return Float(1), nil
		}
		return Float(0), nil
	}
	// Matrix forms.
	if l.M != nil || r.M != nil {
		if ex.op != opMul {
			return Value{}, &evalError{line: ex.line, msg: "matrices support only *"}
		}
		switch {
		case l.M != nil && r.M != nil:
			return Mat(l.M.MulMat(*r.M)), nil
		case l.M != nil:
			return Value{Width: 4, V: l.M.MulVec(r.Vec4())}, nil
		default:
			return Value{}, &evalError{line: ex.line, msg: "vec*mat not supported; use mat*vec"}
		}
	}
	// Scalar broadcast.
	w := max(l.Width, r.Width)
	lv, rv := refBroadcast(&l, w), refBroadcast(&r, w)
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
	return Value{Width: w, V: out}, nil
}

func (ex *callExpr) refFail(msg string) (Value, error) {
	return Value{}, &evalError{line: ex.line, msg: ex.name + ": " + msg}
}

func (f *refFrame) evalCall(ex *callExpr) (Value, error) {
	args := make([]Value, len(ex.args))
	for i, a := range ex.args {
		v, err := f.eval(a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	switch ex.fn {
	case fnVec2, fnVec3, fnVec4:
		w := int(ex.fn-fnVec2) + 2
		var comps gpu.Vec4
		n := 0
		for _, a := range args {
			aw := a.Width
			if aw == 0 {
				aw = 1
			}
			// A single scalar argument splats (vec4(1.0)).
			if len(args) == 1 && aw == 1 {
				for n < w {
					comps[n] = a.V[0]
					n++
				}
				break
			}
			for i := 0; i < aw && n < w; i++ {
				comps[n] = a.V[i]
				n++
			}
		}
		if n < w {
			return ex.refFail(fmt.Sprintf("needs %d components, got %d", w, n))
		}
		return Value{Width: w, V: comps}, nil
	case fnTexture2D:
		if len(args) != 2 {
			return ex.refFail("needs (sampler, vec2)")
		}
		f.fetches++
		return Value{Width: 4, V: refTexel(args[0].Sampler, args[1].V[0], args[1].V[1])}, nil
	case fnClamp:
		if len(args) != 3 {
			return ex.refFail("needs 3 args")
		}
		var out gpu.Vec4
		for i := 0; i < 4; i++ {
			out[i] = minf(maxf(args[0].V[i], args[1].V[0]), args[2].V[0])
		}
		return Value{Width: args[0].Width, V: out}, nil
	case fnMin, fnMax, fnPow:
		if len(args) != 2 {
			return ex.refFail("needs 2 args")
		}
		w := args[0].Width
		a, b := refBroadcast(&args[0], w), refBroadcast(&args[1], w)
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
		return Value{Width: w, V: out}, nil
	case fnDot:
		if len(args) != 2 {
			return ex.refFail("needs 2 args")
		}
		var s float32
		for i := 0; i < args[0].Width; i++ {
			s += args[0].V[i] * args[1].V[i]
		}
		return Float(s), nil
	case fnMix:
		if len(args) != 3 {
			return ex.refFail("needs 3 args")
		}
		t := args[2].V[0]
		w := args[0].Width
		b := refBroadcast(&args[1], w)
		var out gpu.Vec4
		for i := range out {
			out[i] = float32(args[0].V[i]*(1-t)) + float32(b[i]*t)
		}
		return Value{Width: w, V: out}, nil
	case fnFract, fnFloor, fnAbs, fnSin, fnCos:
		if len(args) != 1 {
			return ex.refFail("needs 1 arg")
		}
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
		return Value{Width: args[0].Width, V: out}, nil
	case fnLength:
		if len(args) != 1 {
			return ex.refFail("needs 1 arg")
		}
		var s float64
		for i := 0; i < args[0].Width; i++ {
			s += float64(float64(args[0].V[i]) * float64(args[0].V[i]))
		}
		return Float(float32(math.Sqrt(s))), nil
	case fnNormalize:
		if len(args) != 1 {
			return ex.refFail("needs 1 arg")
		}
		var s float64
		for i := 0; i < args[0].Width; i++ {
			s += float64(float64(args[0].V[i]) * float64(args[0].V[i]))
		}
		n := float32(math.Sqrt(s))
		if n == 0 {
			return args[0], nil
		}
		return Value{Width: args[0].Width, V: args[0].V.Scale(1 / n)}, nil
	default:
		return ex.refFail("unknown function")
	}
}

// refCoerceWidth converts v to width w the way a declaration or assignment
// does: a scalar splats.
func refCoerceWidth(v Value, w int) Value {
	if v.Width == 1 && w > 1 {
		return Value{Width: w, V: gpu.Vec4{v.V[0], v.V[0], v.V[0], v.V[0]}}
	}
	v.Width = w
	return v
}

// broadcast widens v to width w: a scalar splats.
func refBroadcast(v *Value, w int) gpu.Vec4 {
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
