package minisl

import (
	"fmt"
	"math"
)

// The compiled form of a shader: a tree of Go closures, built once by
// Compile and shared by every frame. Each closure runs one AST node over a
// list of live lanes — lane indexes into its frame, one per invocation — so
// a node's dispatch is paid once per span of fragments rather than once per
// fragment. A lane leaves the list the moment it faults, with its error
// recorded, and every later node skips it; that keeps each invocation's
// semantics exactly those of running it alone.

// An exprFn evaluates an expression in the lanes listed in live. It returns
// the value in each of them, indexed by lane, and the lanes that did not
// fault: live itself, compacted in place. A slot or a constant is returned
// as a view of its cell; every other node writes a temporary.
type exprFn func(f *Frame, live []uint8) ([]Value, []uint8)

// A stmtFn executes a statement in the lanes listed in live and returns the
// lanes that did not fault, compacted in place.
type stmtFn func(f *Frame, live []uint8) []uint8

var (
	errSteps     = &evalError{msg: "shader exceeded step limit"}
	errLoopSteps = &evalError{msg: "shader loop exceeded step limit"}
)

// compiler builds a shader's closures. A frame's cells are the shader's
// slots, then its constants, then its temporaries. Temporaries are allocated
// like a stack: a node writes temporary reg and its i-th operand reg+1+i, so
// an operand's value survives while its later siblings — which only write
// above it — are evaluated. Statements run one at a time, and each starts
// its expressions at reg 0.
type compiler struct{ sh *Shader }

// compileBody compiles sh's parsed body.
func compileBody(sh *Shader) {
	c := &compiler{sh: sh}
	sh.run = c.block(sh.body)
}

// temp returns the cell of temporary reg.
func (c *compiler) temp(reg int) int {
	c.sh.temps = max(c.sh.temps, reg+1)
	return len(c.sh.written) + len(c.sh.consts) + reg
}

// step charges every live lane one statement; a lane that runs out of steps
// faults.
func (f *Frame) step(live []uint8) []uint8 {
	n := 0
	for _, l := range live {
		if f.steps[l]--; f.steps[l] <= 0 {
			f.errs[l] = errSteps
			continue
		}
		live[n] = l
		n++
	}
	return live[:n]
}

func (c *compiler) block(body []stmt) stmtFn {
	stmts := make([]stmtFn, len(body))
	for i, s := range body {
		stmts[i] = c.stmt(s)
	}
	return func(f *Frame, live []uint8) []uint8 {
		for _, s := range stmts {
			if len(live) == 0 {
				break
			}
			live = s(f, live)
		}
		return live
	}
}

func (c *compiler) stmt(s stmt) stmtFn {
	switch st := s.(type) {
	case *declStmt:
		return c.decl(st)
	case *assignStmt:
		return c.assign(st)
	case *ifStmt:
		cond, then, els := c.expr(st.cond, 0), c.block(st.then), c.block(st.els)
		return func(f *Frame, live []uint8) []uint8 {
			live = f.step(live)
			var v []Value
			v, live = cond(f, live)
			// Split the lanes: those taking the then-branch to the front.
			k := 0
			for i, l := range live {
				if v[l].V[0] != 0 {
					live[i], live[k] = live[k], l
					k++
				}
			}
			t := then(f, live[:k])
			e := els(f, live[k:])
			return live[:len(t)+copy(live[len(t):], e)]
		}
	case *forStmt:
		return c.loop(st)
	default:
		panic(fmt.Sprintf("minisl: unknown statement %T", s))
	}
}

func (c *compiler) decl(st *declStmt) stmtFn {
	slot, zero, width := st.slot, st.zero, st.width
	if st.init == nil {
		return func(f *Frame, live []uint8) []uint8 {
			live = f.step(live)
			dst := f.cell(slot)
			var mask uint64
			for _, l := range live {
				dst[l] = zero
				mask |= 1 << l
			}
			f.def[slot] |= mask
			return live
		}
	}
	init := c.expr(st.init, 0)
	return func(f *Frame, live []uint8) []uint8 {
		live = f.step(live)
		var v []Value
		v, live = init(f, live)
		dst := f.cell(slot)
		var mask uint64
		for _, l := range live {
			x := v[l]
			if width > 0 {
				x = coerceWidth(x, width)
			}
			dst[l] = x
			mask |= 1 << l
		}
		f.def[slot] |= mask
		return live
	}
}

func (c *compiler) assign(st *assignStmt) stmtFn {
	slot, val := st.slot, c.expr(st.val, 0)
	errUndeclared := &evalError{line: st.line, msg: "assignment to undeclared " + st.name}
	if st.swizzle != "" {
		errSwizzle := &evalError{line: st.line, msg: "only single-component swizzle writes supported"}
		single, comp := len(st.swizzle) == 1, swizzleIndex(rune(st.swizzle[0]))
		return func(f *Frame, live []uint8) []uint8 {
			live = f.step(live)
			var v []Value
			v, live = val(f, live)
			dst, def := f.cell(slot), f.def[slot]
			n := 0
			for _, l := range live {
				switch {
				case def>>l&1 == 0:
					f.errs[l] = errUndeclared
				case !single:
					f.errs[l] = errSwizzle
				default:
					dst[l].V[comp] = v[l].V[0]
					live[n] = l
					n++
				}
			}
			return live[:n]
		}
	}
	errMatrix := &evalError{line: st.line, msg: "cannot assign scalar to matrix " + st.name}
	return func(f *Frame, live []uint8) []uint8 {
		live = f.step(live)
		var v []Value
		v, live = val(f, live)
		dst, def := f.cell(slot), f.def[slot]
		n := 0
		for _, l := range live {
			if def>>l&1 == 0 {
				f.errs[l] = errUndeclared
				continue
			}
			cur, x := &dst[l], v[l]
			if cur.M != nil && x.M == nil {
				f.errs[l] = errMatrix
				continue
			}
			if cur.Width > 0 {
				x = coerceWidth(x, cur.Width)
			}
			*cur = x
			live[n] = l
			n++
		}
		return live[:n]
	}
}

// loop compiles a for statement. The lanes still iterating sit at the end
// of the list; a lane whose condition is false moves to the front and is
// done with the loop, and a lane that faults leaves the list.
func (c *compiler) loop(st *forStmt) stmtFn {
	init, cond, body, post := c.stmt(st.init), c.expr(st.cond, 0), c.block(st.body), c.stmt(st.post)
	return func(f *Frame, live []uint8) []uint8 {
		live = f.step(live)
		live = init(f, live)
		done := 0 // live[:done] have left the loop
		for done < len(live) {
			v, act := cond(f, live[done:])
			live = live[:done+len(act)]
			for i := done; i < len(live); i++ {
				if l := live[i]; v[l].V[0] == 0 {
					live[i], live[done] = live[done], l
					done++
				}
			}
			if done == len(live) {
				break
			}
			act = post(f, body(f, live[done:]))
			n := 0
			for _, l := range act {
				if f.steps[l] <= 0 {
					f.errs[l] = errLoopSteps
					continue
				}
				act[n] = l
				n++
			}
			live = live[:done+n]
		}
		return live
	}
}

func (c *compiler) expr(e expr, reg int) exprFn {
	switch ex := e.(type) {
	case *numExpr:
		cell := len(c.sh.written) + ex.k
		return func(f *Frame, live []uint8) ([]Value, []uint8) { return f.cell(cell), live }
	case *varExpr:
		slot := ex.slot
		err := &evalError{line: ex.line, msg: "undefined variable " + ex.name}
		return func(f *Frame, live []uint8) ([]Value, []uint8) {
			def := f.def[slot]
			if def == allLanes {
				return f.cell(slot), live
			}
			n := 0
			for _, l := range live {
				if def>>l&1 == 0 {
					f.errs[l] = err
					continue
				}
				live[n] = l
				n++
			}
			return f.cell(slot), live[:n]
		}
	case *swizzleExpr:
		base, out, idx := c.expr(ex.base, reg+1), c.temp(reg), ex.idx[:ex.n]
		return func(f *Frame, live []uint8) ([]Value, []uint8) {
			var b []Value
			b, live = base(f, live)
			o := f.cell(out)
			for _, l := range live {
				d := &o[l]
				*d = Value{Width: len(idx)}
				for i, k := range idx {
					d.V[i] = b[l].V[k]
				}
			}
			return o, live
		}
	case *unaryExpr:
		x, out := c.expr(ex.x, reg+1), c.temp(reg)
		if ex.not {
			return func(f *Frame, live []uint8) ([]Value, []uint8) {
				var v []Value
				v, live = x(f, live)
				o := f.cell(out)
				for _, l := range live {
					if v[l].V[0] == 0 {
						o[l] = Float(1)
					} else {
						o[l] = Float(0)
					}
				}
				return o, live
			}
		}
		return func(f *Frame, live []uint8) ([]Value, []uint8) {
			var v []Value
			v, live = x(f, live)
			o := f.cell(out)
			for _, l := range live {
				o[l] = Value{Width: v[l].Width, V: v[l].V.Scale(-1)}
			}
			return o, live
		}
	case *binExpr:
		return c.binary(ex, reg)
	case *callExpr:
		return c.call(ex, reg)
	default:
		panic(fmt.Sprintf("minisl: unknown expression %T", e))
	}
}

// operands compiles a node's operands into the temporaries above reg and
// returns a function that evaluates them left to right, storing each one's
// view in the frame's argument views from base on: a lane that faults in one
// operand evaluates none after it.
func (c *compiler) operands(xs []expr, reg, base int) func(f *Frame, live []uint8) []uint8 {
	fns := make([]exprFn, len(xs))
	for i, x := range xs {
		fns[i] = c.expr(x, reg+1+i)
	}
	return func(f *Frame, live []uint8) []uint8 {
		for i, fn := range fns {
			f.args[base+i], live = fn(f, live)
		}
		return live
	}
}

func (c *compiler) binary(ex *binExpr, reg int) exprFn {
	lhs, rhs, out, op := c.expr(ex.l, reg+1), c.expr(ex.r, reg+2), c.temp(reg), ex.op
	if op >= opLT {
		return func(f *Frame, live []uint8) ([]Value, []uint8) {
			var a, b []Value
			a, live = lhs(f, live)
			b, live = rhs(f, live)
			o := f.cell(out)
			for _, l := range live {
				if compare(op, a[l].V[0], b[l].V[0]) {
					o[l] = Float(1)
				} else {
					o[l] = Float(0)
				}
			}
			return o, live
		}
	}
	errMatOp := &evalError{line: ex.line, msg: "matrices support only *"}
	errVecMat := &evalError{line: ex.line, msg: "vec*mat not supported; use mat*vec"}
	return func(f *Frame, live []uint8) ([]Value, []uint8) {
		var a, b []Value
		a, live = lhs(f, live)
		b, live = rhs(f, live)
		o := f.cell(out)
		n := 0
		for _, l := range live {
			x, y := &a[l], &b[l]
			switch {
			case x.M == nil && y.M == nil:
				// Scalar broadcast. The result is written in place,
				// component by component.
				w := max(x.Width, y.Width)
				xv, yv := broadcast(x, w), broadcast(y, w)
				d := &o[l]
				*d = Value{Width: w}
				switch op {
				case opAdd:
					for i := range d.V {
						d.V[i] = xv[i] + yv[i]
					}
				case opSub:
					for i := range d.V {
						d.V[i] = xv[i] - yv[i]
					}
				case opMul:
					for i := range d.V {
						d.V[i] = xv[i] * yv[i]
					}
				case opDiv:
					for i := range d.V {
						if yv[i] != 0 {
							d.V[i] = xv[i] / yv[i]
						}
					}
				}
			case op != opMul:
				f.errs[l] = errMatOp
				continue
			case x.M != nil && y.M != nil:
				o[l] = Mat(x.M.MulMat(*y.M))
			case x.M != nil:
				o[l] = Value{Width: 4, V: x.M.MulVec(y.Vec4())}
			default:
				f.errs[l] = errVecMat
				continue
			}
			live[n] = l
			n++
		}
		return o, live[:n]
	}
}

func compare(op binOp, a, b float32) bool {
	switch op {
	case opLT:
		return a < b
	case opGT:
		return a > b
	case opLE:
		return a <= b
	case opGE:
		return a >= b
	case opEQ:
		return a == b
	default:
		return a != b
	}
}

// call compiles a builtin call. Its arguments are evaluated first, so an
// argument's error takes precedence over the call's own; an arity error or
// an unknown function faults every lane that gets that far.
func (c *compiler) call(ex *callExpr, reg int) exprFn {
	base, nargs, out := ex.base, len(ex.args), c.temp(reg)
	args := c.operands(ex.args, reg, base)
	fail := func(msg string) exprFn {
		err := &evalError{line: ex.line, msg: ex.name + ": " + msg}
		return func(f *Frame, live []uint8) ([]Value, []uint8) {
			for _, l := range args(f, live) {
				f.errs[l] = err
			}
			return f.cell(out), live[:0]
		}
	}
	// each returns a call that cannot fault once its arguments have
	// evaluated: fn computes the result in every lane still live.
	each := func(fn func(f *Frame, o []Value, av [][]Value, live []uint8)) exprFn {
		return func(f *Frame, live []uint8) ([]Value, []uint8) {
			live = args(f, live)
			o := f.cell(out)
			fn(f, o, f.args[base:base+nargs], live)
			return o, live
		}
	}
	switch ex.fn {
	case fnVec2, fnVec3, fnVec4:
		return c.construct(ex, args, out)
	case fnTexture2D:
		if nargs != 2 {
			return fail("needs (sampler, vec2)")
		}
		return each(func(f *Frame, o []Value, av [][]Value, live []uint8) {
			for _, l := range live {
				f.fetches[l]++
				o[l] = Value{Width: 4, V: av[0][l].Sampler.Sample(av[1][l].V[0], av[1][l].V[1])}
			}
		})
	case fnClamp:
		if nargs != 3 {
			return fail("needs 3 args")
		}
		return each(func(_ *Frame, o []Value, av [][]Value, live []uint8) {
			for _, l := range live {
				x, lo, hi := &av[0][l], av[1][l].V[0], av[2][l].V[0]
				d := &o[l]
				*d = Value{Width: x.Width}
				for i := range d.V {
					d.V[i] = minf(maxf(x.V[i], lo), hi)
				}
			}
		})
	case fnMin, fnMax, fnPow:
		if nargs != 2 {
			return fail("needs 2 args")
		}
		fn := ex.fn
		return each(func(_ *Frame, o []Value, av [][]Value, live []uint8) {
			for _, l := range live {
				w := av[0][l].Width
				a, b := broadcast(&av[0][l], w), broadcast(&av[1][l], w)
				d := &o[l]
				*d = Value{Width: w}
				for i := range d.V {
					switch fn {
					case fnMin:
						d.V[i] = minf(a[i], b[i])
					case fnMax:
						d.V[i] = maxf(a[i], b[i])
					default:
						d.V[i] = float32(math.Pow(float64(a[i]), float64(b[i])))
					}
				}
			}
		})
	case fnDot:
		if nargs != 2 {
			return fail("needs 2 args")
		}
		return each(func(_ *Frame, o []Value, av [][]Value, live []uint8) {
			for _, l := range live {
				a, b := &av[0][l], &av[1][l]
				var s float32
				for i := 0; i < a.Width; i++ {
					s += float32(a.V[i] * b.V[i])
				}
				o[l] = Float(s)
			}
		})
	case fnMix:
		if nargs != 3 {
			return fail("needs 3 args")
		}
		return each(func(_ *Frame, o []Value, av [][]Value, live []uint8) {
			for _, l := range live {
				a, t := &av[0][l], av[2][l].V[0]
				b := broadcast(&av[1][l], a.Width)
				d := &o[l]
				*d = Value{Width: a.Width}
				for i := range d.V {
					d.V[i] = float32(a.V[i]*(1-t)) + float32(b[i]*t)
				}
			}
		})
	case fnFract, fnFloor, fnAbs, fnSin, fnCos:
		if nargs != 1 {
			return fail("needs 1 arg")
		}
		fn := ex.fn
		return each(func(_ *Frame, o []Value, av [][]Value, live []uint8) {
			for _, l := range live {
				a, d := &av[0][l], &o[l]
				*d = Value{Width: a.Width}
				for i := range d.V {
					x := float64(a.V[i])
					switch fn {
					case fnFract:
						d.V[i] = float32(x - math.Floor(x))
					case fnFloor:
						d.V[i] = float32(math.Floor(x))
					case fnAbs:
						d.V[i] = float32(math.Abs(x))
					case fnSin:
						d.V[i] = float32(math.Sin(x))
					default:
						d.V[i] = float32(math.Cos(x))
					}
				}
			}
		})
	case fnLength, fnNormalize:
		if nargs != 1 {
			return fail("needs 1 arg")
		}
		normalize := ex.fn == fnNormalize
		return each(func(_ *Frame, o []Value, av [][]Value, live []uint8) {
			for _, l := range live {
				a := &av[0][l]
				var s float64
				for i := 0; i < a.Width; i++ {
					s += float64(float64(a.V[i]) * float64(a.V[i]))
				}
				n := float32(math.Sqrt(s))
				switch {
				case !normalize:
					o[l] = Float(n)
				case n == 0:
					o[l] = *a
				default:
					o[l] = Value{Width: a.Width, V: a.V.Scale(1 / n)}
				}
			}
		})
	default:
		return fail("unknown function")
	}
}

// construct compiles vec2/vec3/vec4: the arguments' components, in order,
// fill the vector, and a single scalar argument splats.
func (c *compiler) construct(ex *callExpr, args func(*Frame, []uint8) []uint8, out int) exprFn {
	w, base, nargs := int(ex.fn-fnVec2)+2, ex.base, len(ex.args)
	short := make([]error, w) // short[n]: only n components supplied
	for n := range short {
		short[n] = &evalError{line: ex.line, msg: ex.name + ": " + fmt.Sprintf("needs %d components, got %d", w, n)}
	}
	return func(f *Frame, live []uint8) ([]Value, []uint8) {
		live = args(f, live)
		o, av := f.cell(out), f.args[base:base+nargs]
		k := 0
		for _, l := range live {
			d := &o[l]
			*d = Value{Width: w}
			n := 0
			for _, a := range av {
				x := &a[l]
				aw := max(x.Width, 1)
				if nargs == 1 && aw == 1 {
					for n < w {
						d.V[n] = x.V[0]
						n++
					}
					break
				}
				for i := 0; i < aw && n < w; i++ {
					d.V[n] = x.V[i]
					n++
				}
			}
			if n < w {
				f.errs[l] = short[n]
				continue
			}
			live[k] = l
			k++
		}
		return o, live[:k]
	}
}
