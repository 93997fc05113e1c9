package minisl

import (
	"fmt"
	"math/bits"

	"cycada/internal/sim/gpu"
)

// The dynamic nodes read every operand's width, and test its reference, in
// each lane. They run the cells the compiler cannot type (see typeSlots),
// and, over the uniform frame's one lane, every draw-uniform node. Where a
// typed node has a kernel, a dynamic one runs it once per group of lanes
// whose operands have the same widths (see Frame.byWidth). A dynamic
// node's result has no hidden component but zero (see canon), so that its
// value's every component is the reference evaluator's.

// byWidth calls fn once for each group of the lanes in live in which cells
// cs (at most four) have the same widths, with those widths. The lanes of
// a span almost always share them, so fn usually runs once, on live itself.
func (f *Frame) byWidth(cs []int, live []uint8, fn func(ws [4]uint8, g []uint8)) {
	widths := func(l uint8) (ws [4]uint8) {
		for i, c := range cs {
			ws[i] = f.width[c*f.lanes+int(l)]
		}
		return ws
	}
	if len(live) == 0 {
		return
	}
	ws := widths(live[0])
	same := true
	for _, l := range live[1:] {
		same = same && widths(l) == ws
	}
	if same {
		fn(ws, live)
		return
	}
	todo := append(f.todo[:0], live...)
	for len(todo) > 0 {
		ws := widths(todo[0])
		g, rest := f.group[:0], todo[:0]
		for _, l := range todo {
			if widths(l) == ws {
				g = append(g, l)
			} else {
				rest = append(rest, l)
			}
		}
		fn(ws, g)
		todo = rest
	}
}

// canon clears cell c's components past its width in each lane in live.
func (f *Frame) canon(c int, live []uint8) {
	comp, width := f.planes(c)
	for _, l := range live {
		clear(comp[l][width[l]:])
	}
}

// laneMask is the mask of the lanes in live.
func laneMask(live []uint8) uint64 {
	var m uint64
	for _, l := range live {
		m |= 1 << l
	}
	return m
}

// dropLanes returns live without the lanes in mask, compacted in place.
func dropLanes(live []uint8, mask uint64) []uint8 {
	if mask == 0 {
		return live
	}
	n := 0
	for _, l := range live {
		if mask>>l&1 == 0 {
			live[n] = l
			n++
		}
	}
	return live[:n]
}

// dynamic compiles a node with a width and a reference in every lane.
func (c *compiler) dynamic(e expr, reg int) exprFn {
	if !c.uni {
		c.sh.dynamic++
	}
	switch ex := e.(type) {
	case *swizzleExpr:
		base, out, idx := c.operand(ex.base, reg+1), c.temp(reg), ex.idx[:ex.n]
		w := uint8(len(idx))
		return func(f *Frame, live []uint8) (int, []uint8) {
			var b int
			b, live = base(f, live)
			bc, _ := f.planes(b)
			oc, ow := f.planes(out)
			for _, l := range live {
				x, d := &bc[l], &oc[l]
				*d = gpu.Vec4{}
				for i, k := range idx {
					d[i] = x[k]
				}
				ow[l] = w
			}
			f.refMask[out] = 0
			return out, live
		}
	case *unaryExpr:
		x, out := c.operand(ex.x, reg+1), c.temp(reg)
		if ex.not {
			return func(f *Frame, live []uint8) (int, []uint8) {
				var v int
				v, live = x(f, live)
				vc, _ := f.planes(v)
				oc, ow := f.planes(out)
				for _, l := range live {
					oc[l], ow[l] = gpu.Vec4{truth(vc[l][0] == 0)}, 1
				}
				f.refMask[out] = 0
				return out, live
			}
		}
		return func(f *Frame, live []uint8) (int, []uint8) {
			var v int
			v, live = x(f, live)
			vc, vw := f.planes(v)
			oc, ow := f.planes(out)
			for _, l := range live {
				a, d := &vc[l], &oc[l]
				for i := range d {
					d[i] = a[i] * -1
				}
				ow[l] = vw[l]
			}
			f.canon(out, live)
			f.refMask[out] = 0
			return out, live
		}
	case *binExpr:
		return c.binary(ex, reg)
	case *callExpr:
		return c.call(ex, reg)
	default:
		panic(fmt.Sprintf("minisl: unknown expression %T", e))
	}
}

func (c *compiler) binary(ex *binExpr, reg int) exprFn {
	lhs, rhs, out, op := c.operand(ex.l, reg+1), c.operand(ex.r, reg+2), c.temp(reg), ex.op
	if op >= opLT {
		return func(f *Frame, live []uint8) (int, []uint8) {
			var a, b int
			a, live = lhs(f, live)
			b, live = rhs(f, live)
			ac, _ := f.planes(a)
			bc, _ := f.planes(b)
			oc, ow := f.planes(out)
			for _, l := range live {
				oc[l], ow[l] = gpu.Vec4{truth(compare(op, ac[l][0], bc[l][0]))}, 1
			}
			f.refMask[out] = 0
			return out, live
		}
	}
	errMatOp := &evalError{line: ex.line, msg: "matrices support only *"}
	errVecMat := &evalError{line: ex.line, msg: "vec*mat not supported; use mat*vec"}
	return func(f *Frame, live []uint8) (int, []uint8) {
		var a, b int
		a, live = lhs(f, live)
		b, live = rhs(f, live)
		bc, bw := f.planes(b)
		oc, ow := f.planes(out)
		am, bm := f.refMask[a], f.refMask[b]
		f.refMask[out] = 0
		if am|bm == 0 {
			f.arith(op, live, a, b, out)
			f.canon(out, live)
			return out, live
		}
		n := 0
		for i, l := range live {
			var x, y *gpu.Mat4
			if am>>l&1 != 0 {
				x = f.refs[a*f.lanes+int(l)].M
			}
			if bm>>l&1 != 0 {
				y = f.refs[b*f.lanes+int(l)].M
			}
			switch {
			case x == nil && y == nil:
				f.arith(op, live[i:i+1], a, b, out)
			case op != opMul:
				f.fault(l, errMatOp)
				continue
			case x != nil && y != nil:
				p := x.MulMat(*y)
				oc[l], ow[l] = gpu.Vec4{}, 0
				f.refs[out*f.lanes+int(l)] = ref{M: &p}
				f.refMask[out] |= 1 << l
			case x != nil:
				oc[l], ow[l] = x.MulVec(widen(bc[l], bw[l])), 4
			default:
				f.fault(l, errVecMat)
				continue
			}
			live[n] = l
			n++
		}
		f.canon(out, live[:n])
		return out, live[:n]
	}
}

// arith writes cells a op b to cell out in the lanes listed in live: a
// scalar operand broadcasts, and the result takes the wider width.
func (f *Frame) arith(op binOp, live []uint8, a, b, out int) {
	ac, _ := f.planes(a)
	bc, _ := f.planes(b)
	oc, ow := f.planes(out)
	f.byWidth([]int{a, b}, live, func(ws [4]uint8, g []uint8) {
		w := max(ws[0], ws[1])
		arith(op, oc, vin{ac, 0xff}, vin{bc, 0xff}, int(w), ws[0] == 1 && w > 1, ws[1] == 1 && w > 1, g)
		for _, l := range g {
			ow[l] = w
		}
	})
}

// call compiles a dynamic builtin call: a constructor, or a builtin of the
// right arity other than texture2D, whose results are typed (see
// typer.kind). Its arguments are evaluated first, so an argument's error
// takes precedence over the call's own.
func (c *compiler) call(ex *callExpr, reg int) exprFn {
	base, nargs, out := ex.base, len(ex.args), c.temp(reg)
	args := c.operands(ex.args, reg, base, c.operand)
	if ex.fn <= fnVec4 {
		return c.constructDynamic(ex, args, out)
	}
	kern, normalize := kernel(ex.fn), ex.fn == fnNormalize
	return func(f *Frame, live []uint8) (int, []uint8) {
		live = args(f, live)
		av := f.args[base : base+nargs]
		oc, ow := f.planes(out)
		f.byWidth(av, live, func(ws [4]uint8, g []uint8) {
			var xs [3]vin
			var iw [3]int
			for i, a := range av {
				xs[i], iw[i] = vin{f.comp[a*f.lanes : (a+1)*f.lanes], 0xff}, int(ws[i])
			}
			w := uint8(kern(oc, xs, iw, g))
			for _, l := range g {
				ow[l] = w
			}
		})
		f.canon(out, live)
		f.refMask[out] = 0
		if normalize {
			// A zero-length argument comes back whole, reference and all.
			a := av[0]
			ac, aw := f.planes(a)
			for m := f.refMask[a] & laneMask(live); m != 0; m &= m - 1 {
				if l := bits.TrailingZeros64(m); length(&ac[l], int(aw[l])) == 0 {
					f.refs[out*f.lanes+l] = f.refs[a*f.lanes+l]
					f.refMask[out] |= 1 << l
				}
			}
		}
		return out, live
	}
}

// constructDynamic compiles vec2/vec3/vec4 over arguments whose widths may
// differ per lane: each group of lanes whose arguments have the same widths
// is constructed as a typed constructor would, and faults alike.
func (c *compiler) constructDynamic(ex *callExpr, args func(*Frame, []uint8) []uint8, out int) exprFn {
	w, base, nargs := int(ex.fn-fnVec2)+2, ex.base, len(ex.args)
	short := shortErrors(ex, w)
	return func(f *Frame, live []uint8) (int, []uint8) {
		live = args(f, live)
		av := f.args[base : base+min(nargs, 4)]
		oc, ow := f.planes(out)
		var faulted uint64
		f.byWidth(av, live, func(ws [4]uint8, g []uint8) {
			var xs [4]vin
			var iw [4]int
			for i, a := range av {
				xs[i], iw[i] = vin{f.comp[a*f.lanes : (a+1)*f.lanes], 0xff}, int(ws[i])
			}
			src, n := ctorPlan(w, iw[:len(av)])
			for _, l := range g {
				ow[l] = uint8(w)
			}
			if n < w {
				for _, l := range g {
					f.fault(l, short[n])
					faulted |= 1 << l
				}
				return
			}
			for i := range w {
				copyComp(oc, i, xs[src[i].k], int(src[i].j), g)
			}
		})
		live = dropLanes(live, faulted)
		f.canon(out, live)
		f.refMask[out] = 0
		return out, live
	}
}
