package minisl

import (
	"errors"
	"fmt"
	"math"

	"cycada/internal/sim/gpu"
)

// The compiled form of a shader: a tree of Go closures, built once by
// Compile and shared by every frame. Each closure runs one AST node over a
// list of live lanes — lane indexes into its frame, one per invocation — so
// a node's dispatch is paid once per span of fragments rather than once per
// fragment. Every width is fixed at compile time (typing.go), and so is the
// cell every node writes: a typed node computes only the components its
// type declares, one component at a time over its lanes, with no width or
// splat mask in sight. A node over draw-uniform operands only runs once per
// span, in the one lane of the frame's uniform frame, and a typed node reads
// its result there with stride 0, one component for all its lanes. A lane
// that runs out of steps — the only fault left at run time — leaves the
// list at the statement it faulted in, which keeps each invocation's
// semantics exactly those of running it alone.

// An exprFn evaluates an expression in the lanes listed in live, into the
// cell the compiler gave it: a variable or a constant is its own cell, a
// mat4*mat4 product its four cells, and every other node writes a
// temporary.
type exprFn func(f *Frame, live []uint8)

// A stmtFn executes a statement in the lanes listed in live and returns the
// lanes that did not run out of steps, compacted in place.
type stmtFn func(f *Frame, live []uint8) []uint8

var errSteps = errors.New("runtime: shader exceeded step limit")

// leaf is the exprFn of a variable or a constant: nothing to compute.
func leaf(*Frame, []uint8) {}

// compiler builds a shader's closures. A frame's cells are the shader's
// variables, constants and matrix products, then its temporaries.
// Temporaries are allocated like a stack: a node writes temporary reg and
// its i-th operand reg+1+i, so an operand's value survives while its later
// siblings — which only write above it — are evaluated. Statements run one
// at a time, and each starts its expressions at reg 0. A draw-uniform
// node's temporaries are the same cells of the uniform frame.
type compiler struct {
	sh  *Shader
	uni bool // compiling a draw-uniform node, which runs in the uniform frame
	// dest, when not -1, is the typed variable the statement being compiled
	// stores its value to: the value's node writes it there itself rather
	// than to temporary 0 (see assign).
	dest int
}

// compileBody compiles sh's parsed body. Every statement run charges a step
// (see step), but a shader without a for loop runs each of its statements
// at most once: when it has fewer than defaultMaxSteps, no lane can run
// out, and it is compiled to charge none.
func compileBody(sh *Shader) {
	sh.counted = maxSteps(sh.body) >= defaultMaxSteps
	c := &compiler{sh: sh, dest: -1}
	sh.run = c.block(sh.body)
}

// maxSteps bounds the steps body can charge one invocation: its statements
// at every depth, or defaultMaxSteps when it holds a loop.
func maxSteps(body []stmt) int {
	n := len(body)
	for _, s := range body {
		switch st := s.(type) {
		case *forStmt:
			return defaultMaxSteps
		case *ifStmt:
			n += maxSteps(st.then) + maxSteps(st.els)
		}
	}
	return n
}

// temp returns the cell of temporary reg.
func (c *compiler) temp(reg int) int {
	if reg == 0 && c.dest >= 0 {
		return c.dest
	}
	c.sh.temps = max(c.sh.temps, reg+1)
	return c.sh.cells + reg
}

// step charges every live lane one statement; a lane that runs out of steps
// faults. Only a shader compiled as counted (see compileBody) calls it.
func (f *Frame) step(live []uint8) []uint8 {
	if f.charged++; f.charged < defaultMaxSteps {
		// No lane has been charged more statements than the run has
		// charged calls, so none can run out yet.
		for _, l := range live {
			f.steps[l]--
		}
		return live
	}
	n := 0
	for _, l := range live {
		if f.steps[l]--; f.steps[l] <= 0 {
			f.faulted |= 1 << l
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
	case *assignStmt:
		run := c.assign(st)
		if !c.sh.counted {
			return func(f *Frame, live []uint8) []uint8 {
				run(f, live)
				return live
			}
		}
		return func(f *Frame, live []uint8) []uint8 {
			live = f.step(live)
			run(f, live)
			return live
		}
	case *ifStmt:
		cond, v := c.expr(st.cond, 0)
		k := st.cond.info().class
		then, els, counted := c.block(st.then), c.block(st.els), c.sh.counted
		return func(f *Frame, live []uint8) []uint8 {
			if counted {
				live = f.step(live)
			}
			cond(f, live)
			x := f.in(v, k)
			// Split the lanes: those taking the then-branch to the front.
			k := 0
			for i, l := range live {
				if x.at(l)[0] != 0 {
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

// assign compiles an assignment or declaration. A typed node of the
// variable's type that does not read the variable writes its components to
// the variable itself: the node reads every operand component before it
// writes the component it computes, and a lane that runs out of steps
// later never reads the variable again. Any other value is copied: a
// matrix column by column, a scalar splatted to a vector's width.
func (c *compiler) assign(st *assignStmt) exprFn {
	s, k := st.cell, st.val.info()
	if i := st.comp; i >= 0 {
		val, v := c.expr(st.val, 0)
		return func(f *Frame, live []uint8) {
			val(f, live)
			x, dc := f.in(v, k.class), f.plane(s)
			for _, l := range live {
				dc[l][i] = x.at(l)[0]
			}
		}
	}
	switch st.val.(type) {
	case *varExpr, *numExpr:
	default:
		if k.class == vecCell && k.t == st.t && st.t != tMat && !reads(st.val, s) {
			c.dest = s
			fn, _ := c.expr(st.val, 0)
			c.dest = -1
			return fn
		}
	}
	val, v := c.expr(st.val, 0)
	if st.t == tMat {
		return func(f *Frame, live []uint8) {
			val(f, live)
			for i := range 4 {
				copyLanes(f.plane(s+i), f.in(v+i, k.class), live)
			}
		}
	}
	w, splat := st.t.width(), k.t == tFloat && st.t != tFloat
	return func(f *Frame, live []uint8) {
		val(f, live)
		x, dc := f.in(v, k.class), f.plane(s)
		if !splat {
			copyLanes(dc, x, live)
			return
		}
		for i := range w {
			copyComp(dc, i, x, 0, live)
		}
	}
}

// reads reports whether e reads the variable at cell s.
func reads(e expr, s int) bool {
	switch ex := e.(type) {
	case *varExpr:
		return ex.cell == s
	case *swizzleExpr:
		return reads(ex.base, s)
	case *unaryExpr:
		return reads(ex.x, s)
	case *binExpr:
		return reads(ex.l, s) || reads(ex.r, s)
	case *callExpr:
		for _, a := range ex.args {
			if reads(a, s) {
				return true
			}
		}
	}
	return false
}

// loop compiles a for statement. The lanes still iterating sit at the end
// of the list; a lane whose condition is false moves to the front and is
// done with the loop, and a lane that runs out of steps leaves the list.
func (c *compiler) loop(st *forStmt) stmtFn {
	init, body, post := c.stmt(st.init), c.block(st.body), c.stmt(st.post)
	cond, v := c.expr(st.cond, 0)
	k := st.cond.info().class
	return func(f *Frame, live []uint8) []uint8 {
		live = f.step(live)
		live = init(f, live)
		done := 0 // live[:done] have left the loop
		for done < len(live) {
			cond(f, live[done:])
			x := f.in(v, k)
			for i := done; i < len(live); i++ {
				if l := live[i]; x.at(l)[0] == 0 {
					live[i], live[done] = live[done], l
					done++
				}
			}
			if done == len(live) {
				break
			}
			// A lane that runs out of steps faults in step, so every lane
			// the post statement returns has steps left.
			act := post(f, body(f, live[done:]))
			live = live[:done+len(act)]
		}
		return live
	}
}

// expr compiles e, and returns its closure and the cell that holds its
// value: a draw-uniform node runs in the uniform frame, once per span.
func (c *compiler) expr(e expr, reg int) (exprFn, int) {
	switch ex := e.(type) {
	case *numExpr:
		return leaf, ex.cell
	case *varExpr:
		return leaf, ex.cell
	}
	if e.info().class == uniCell && !c.uni {
		c.uni = true
		fn, out := c.node(e, reg)
		c.uni = false
		return func(f *Frame, _ []uint8) { fn(f.u, f.u.live) }, out
	}
	return c.node(e, reg)
}

// vin is how a node reads an operand: its components in every lane, or,
// for a draw-uniform value, in one lane read with stride 0 (lane mask
// m = 0).
type vin struct {
	c []gpu.Vec4
	m uint8
}

// at returns the operand's components in lane l.
func (x vin) at(l uint8) *gpu.Vec4 { return &x.c[l&x.m] }

// in returns how a node reads cell v, of class k: in the lanes of the run,
// or with stride 0.
func (f *Frame) in(v int, k class) vin {
	if k == uniCell {
		return vin{f.u.comp[v : v+1], 0}
	}
	return vin{f.plane(v), 0xff}
}

// plane returns cell c's components in the lanes of the run.
func (f *Frame) plane(c int) []gpu.Vec4 {
	lo := c * f.lanes
	return f.comp[lo : lo+f.n]
}

// mat returns lane l's matrix in the four cells from c, of class k, which
// hold its columns.
func (f *Frame) mat(c int, k class, l uint8) (m gpu.Mat4) {
	for i := range 4 {
		copy(m[4*i:4*i+4], f.in(c+i, k).at(l)[:])
	}
	return m
}

// node compiles an operator or a call. A swizzle and a unary operator are
// of their operand's class, so they read it in their own frame's lanes.
func (c *compiler) node(e expr, reg int) (exprFn, int) {
	switch ex := e.(type) {
	case *swizzleExpr:
		base, b := c.expr(ex.base, reg+1)
		out, idx := c.temp(reg), ex.idx[:ex.n]
		return func(f *Frame, live []uint8) {
			base(f, live)
			bc, oc := f.plane(b), f.plane(out)
			for i, k := range idx {
				for _, l := range live {
					oc[l][i] = bc[l][k]
				}
			}
		}, out
	case *unaryExpr:
		x, v := c.expr(ex.x, reg+1)
		out := c.temp(reg)
		if ex.not {
			return func(f *Frame, live []uint8) {
				x(f, live)
				vc, oc := f.plane(v), f.plane(out)
				for _, l := range live {
					oc[l][0] = truth(vc[l][0] == 0)
				}
			}, out
		}
		w := ex.t.width()
		return func(f *Frame, live []uint8) {
			x(f, live)
			vc, oc := f.plane(v), f.plane(out)
			for i := range w {
				for _, l := range live {
					oc[l][i] = vc[l][i] * -1
				}
			}
		}, out
	case *binExpr:
		return c.binary(ex, reg)
	case *callExpr:
		if ex.fn == fnTexture2D {
			return c.texture(ex, reg)
		}
		return c.call(ex, reg)
	}
	panic(fmt.Sprintf("minisl: unknown expression %T", e))
}

// binary compiles a comparison, arithmetic, or a matrix product.
func (c *compiler) binary(ex *binExpr, reg int) (exprFn, int) {
	lhs, a := c.expr(ex.l, reg+1)
	rhs, b := c.expr(ex.r, reg+2)
	lk, rk, op := ex.l.info().class, ex.r.info().class, ex.op
	if ex.t == tMat {
		out := ex.cell
		return func(f *Frame, live []uint8) {
			lhs(f, live)
			rhs(f, live)
			for _, l := range live {
				m := f.mat(a, lk, l).MulMat(f.mat(b, rk, l))
				for i := range 4 {
					copy(f.comp[(out+i)*f.lanes+int(l)][:], m[4*i:4*i+4])
				}
			}
		}, out
	}
	out := c.temp(reg)
	switch {
	case ex.l.info().t == tMat:
		return func(f *Frame, live []uint8) {
			lhs(f, live)
			rhs(f, live)
			y, oc := f.in(b, rk), f.plane(out)
			for _, l := range live {
				oc[l] = f.mat(a, lk, l).MulVec(*y.at(l))
			}
		}, out
	case op >= opLT:
		return func(f *Frame, live []uint8) {
			lhs(f, live)
			rhs(f, live)
			x, y, oc := f.in(a, lk), f.in(b, rk), f.plane(out)
			for _, l := range live {
				oc[l][0] = truth(compare(op, x.at(l)[0], y.at(l)[0]))
			}
		}, out
	}
	wx, wy := ex.l.info().t.width(), ex.r.info().t.width()
	w := max(wx, wy)
	sx, sy := wx == 1 && w > 1, wy == 1 && w > 1
	return func(f *Frame, live []uint8) {
		lhs(f, live)
		rhs(f, live)
		arith(op, f.plane(out), f.in(a, lk), f.in(b, rk), w, sx, sy, live)
	}, out
}

// arith writes x op y to components [0, w) of o in the lanes listed in
// live; an operand marked to splat (sx, sy) is a scalar. Products, which
// the shipped shaders compute, run a loop of their own per component.
func arith(op binOp, o []gpu.Vec4, x, y vin, w int, sx, sy bool, live []uint8) {
	if op == opMul && w > 1 && dense(o, live) && (x.m == 0 && sy || y.m == 0 && sx) {
		scaleLanes(o, x, y, w)
		return
	}
	for i := range w {
		xi, yi := i, i
		if sx {
			xi = 0
		}
		if sy {
			yi = 0
		}
		if op == opMul {
			mulLanes(o, i, x, xi, y, yi, live)
			continue
		}
		for _, l := range live {
			o[l][i&3] = op.apply(x.at(l)[xi&3], y.at(l)[yi&3])
		}
	}
}

// texture compiles texture2D. Its sampler is a uniform, whose texture the
// frame reads from its binding (Frame.uni); draw-uniform coordinates are
// copied to every lane first.
func (c *compiler) texture(ex *callExpr, reg int) (exprFn, int) {
	s := c.uniformIndex(ex.args[0].(*varExpr).cell)
	uv, v := c.expr(ex.args[1], reg+1)
	uni, out := ex.args[1].info().class == uniCell, c.temp(reg)
	return func(f *Frame, live []uint8) {
		uv(f, live)
		oc, uc := f.plane(out), f.plane(v)
		if uni {
			copyLanes(oc, f.in(v, uniCell), live)
			uc = oc
		}
		smp := f.uni[s].Sampler.Sampler()
		smp.Sample(oc, uc, live)
		for _, l := range live {
			f.fetches[l]++
		}
	}, out
}

// uniformIndex returns the index among the shader's uniforms of the one at
// cell.
func (c *compiler) uniformIndex(cell int) int {
	for k, d := range c.sh.Uniforms {
		if c.sh.globals[d.Name].cell == cell {
			return k
		}
	}
	panic("minisl: a sampler that is no uniform")
}

// call compiles a constructor or a builtin other than texture2D.
func (c *compiler) call(ex *callExpr, reg int) (exprFn, int) {
	n := len(ex.args)
	fns, cells, ks, ts := make([]exprFn, n), make([]int, n), make([]class, n), make([]vtype, n)
	for i, a := range ex.args {
		fns[i], cells[i] = c.expr(a, reg+1+i)
		ks[i], ts[i] = a.info().class, a.info().t
	}
	args := func(f *Frame, live []uint8) {
		for _, fn := range fns {
			fn(f, live)
		}
	}
	out := c.temp(reg)
	if ex.fn <= fnVec4 {
		return c.construct(ex, args, cells, ks, ts, out), out
	}
	kern := kernel(ex.fn)
	var kw [3]int
	for i, t := range ts[:min(n, 3)] {
		kw[i] = t.width()
	}
	return func(f *Frame, live []uint8) {
		args(f, live)
		var xs [3]vin
		for i, a := range cells {
			xs[i] = f.in(a, ks[i])
		}
		kern(f.plane(out), xs, kw, live)
	}, out
}

// construct compiles vec2/vec3/vec4: the arguments' components, in order,
// fill the vector, and a single scalar argument splats. Every width is
// fixed at compile time, so which argument component fills which result
// component is too. Arguments past the fourth supply no component, but
// are evaluated.
func (c *compiler) construct(ex *callExpr, args exprFn, cells []int, ks []class, ts []vtype, out int) exprFn {
	n := min(len(ts), 4)
	w := ex.t.width()
	src, _ := ctorPlan(w, ts[:n])
	// When the first argument is read per lane and fills the first p
	// components, each lane copies it whole, and the rest are set after.
	p := 0
	for p < w && ks[0] == vecCell && src[p] == (ctorSource{0, uint8(p)}) {
		p++
	}
	return func(f *Frame, live []uint8) {
		args(f, live)
		var xs [4]vin
		for i := range n {
			xs[i] = f.in(cells[i], ks[i])
		}
		oc := f.plane(out)
		if p > 0 {
			copyLanes(oc, xs[0], live)
		}
		for i := p; i < w; i++ {
			copyComp(oc, i, xs[src[i].k], int(src[i].j), live)
		}
	}
}

// scaleLanes writes x * y, a draw-uniform vector times a per-lane scalar or
// the other way round, to components [0, w) of every lane of o, a lane at a
// time.
func scaleLanes(o []gpu.Vec4, x, y vin, w int) {
	if x.m == 0 {
		u, c := x.c[0], y.c[:len(o)]
		for l := range c {
			s, d := c[l][0], &o[l]
			switch w {
			case 2:
				d[0], d[1] = u[0]*s, u[1]*s
			case 3:
				d[0], d[1], d[2] = u[0]*s, u[1]*s, u[2]*s
			default:
				d[0], d[1], d[2], d[3] = u[0]*s, u[1]*s, u[2]*s, u[3]*s
			}
		}
		return
	}
	u, c := y.c[0], x.c[:len(o)]
	for l := range c {
		s, d := c[l][0], &o[l]
		switch w {
		case 2:
			d[0], d[1] = s*u[0], s*u[1]
		case 3:
			d[0], d[1], d[2] = s*u[0], s*u[1], s*u[2]
		default:
			d[0], d[1], d[2], d[3] = s*u[0], s*u[1], s*u[2], s*u[3]
		}
	}
}

// apply is a op b, for an arithmetic operator.
func (op binOp) apply(a, b float32) float32 {
	switch op {
	case opAdd:
		return a + b
	case opSub:
		return a - b
	case opMul:
		return a * b
	}
	return div(a, b)
}

// dense reports whether live lists every lane of o: distinct lanes below
// len(o), as many as it has. A loop over such lanes runs over o itself, in
// order, and reads a draw-uniform operand's component once for them all.
func dense(o []gpu.Vec4, live []uint8) bool { return len(live) == len(o) }

// mulLanes writes component i of x * y to o, reading component xi of x and
// yi of y, in the lanes listed in live.
func mulLanes(o []gpu.Vec4, i int, x vin, xi int, y vin, yi int, live []uint8) {
	i, xi, yi = i&3, xi&3, yi&3
	switch {
	case !dense(o, live):
		for _, l := range live {
			o[l][i] = x.at(l)[xi] * y.at(l)[yi]
		}
	case x.m == 0:
		a, yc := x.c[0][xi], y.c[:len(o)]
		for l := range yc {
			o[l][i] = a * yc[l][yi]
		}
	case y.m == 0:
		b, xc := y.c[0][yi], x.c[:len(o)]
		for l := range xc {
			o[l][i] = xc[l][xi] * b
		}
	default:
		xc, yc := x.c[:len(o)], y.c[:len(o)]
		for l := range xc {
			o[l][i] = xc[l][xi] * yc[l][yi]
		}
	}
}

// div is a / b, or zero where b is zero.
func div(a, b float32) float32 {
	if b == 0 {
		return 0
	}
	return a / b
}

// A kernelFn computes a builtin once its arguments xs, of widths ws, fixed
// at compile time, have evaluated, in the lanes listed in live, into the
// components of o the result declares. A scalar second argument splats.
type kernelFn func(o []gpu.Vec4, xs [3]vin, ws [3]int, live []uint8)

// kernel returns the kernel of fn, a builtin of fixed arity other than
// texture2D.
func kernel(fn builtin) kernelFn {
	switch fn {
	case fnClamp:
		return func(o []gpu.Vec4, xs [3]vin, ws [3]int, live []uint8) {
			x, lo, hi, w := xs[0], xs[1], xs[2], ws[0]
			if x.m != 0 && lo.m|hi.m == 0 && dense(o, live) {
				xc, lo, hi := x.c[:len(o)], lo.c[0][0], hi.c[0][0]
				for i := range w {
					for l := range xc {
						o[l][i] = minf(maxf(xc[l][i], lo), hi)
					}
				}
				return
			}
			for i := range w {
				for _, l := range live {
					o[l][i] = minf(maxf(x.at(l)[i], lo.at(l)[0]), hi.at(l)[0])
				}
			}
		}
	case fnMin, fnMax, fnPow:
		return func(o []gpu.Vec4, xs [3]vin, ws [3]int, live []uint8) {
			x, y, w := xs[0], xs[1], ws[0]
			for i := range w {
				j := splat(i, ws[1])
				for _, l := range live {
					a, b := x.at(l)[i], y.at(l)[j]
					switch fn {
					case fnMin:
						o[l][i] = minf(a, b)
					case fnMax:
						o[l][i] = maxf(a, b)
					default:
						o[l][i] = float32(math.Pow(float64(a), float64(b)))
					}
				}
			}
		}
	case fnDot:
		return func(o []gpu.Vec4, xs [3]vin, ws [3]int, live []uint8) {
			x, y := xs[0], xs[1]
			for _, l := range live {
				a, b := x.at(l), y.at(l)
				var s float32
				for i := range ws[0] {
					s += float32(a[i] * b[splat(i, ws[1])])
				}
				o[l][0] = s
			}
		}
	case fnMix:
		return func(o []gpu.Vec4, xs [3]vin, ws [3]int, live []uint8) {
			x, y, z, w := xs[0], xs[1], xs[2], ws[0]
			for i := range w {
				j := splat(i, ws[1])
				for _, l := range live {
					t := z.at(l)[0]
					o[l][i] = float32(x.at(l)[i]*(1-t)) + float32(y.at(l)[j]*t)
				}
			}
		}
	case fnFract, fnFloor, fnAbs, fnSin, fnCos:
		return func(o []gpu.Vec4, xs [3]vin, ws [3]int, live []uint8) {
			x, w := xs[0], ws[0]
			for i := range w {
				for _, l := range live {
					o[l][i] = unaryMath(fn, x.at(l)[i])
				}
			}
		}
	default: // fnLength, fnNormalize
		normalize := fn == fnNormalize
		return func(o []gpu.Vec4, xs [3]vin, ws [3]int, live []uint8) {
			x, w := xs[0], ws[0]
			for _, l := range live {
				a, d := x.at(l), &o[l]
				n := length(a, w)
				switch {
				case !normalize:
					d[0] = n
				case n == 0:
					*d = *a
				default:
					k := 1 / n
					for i := range w {
						d[i] = a[i] * k
					}
				}
			}
		}
	}
}

// splat is the component of an argument of width w that result component i
// reads: i, or 0 for a scalar, which splats.
func splat(i, w int) int {
	if w == 1 {
		return 0
	}
	return i
}

// A ctorSource is where a constructor takes one result component from:
// component j of argument k.
type ctorSource struct{ k, j uint8 }

// ctorPlan returns, for a constructor of width w over its first arguments,
// of widths ws (no later one can supply a component: each supplies at
// least one), the source of each result component, and how many the
// arguments supply. A single scalar argument splats.
func ctorPlan(w int, ws []vtype) (src [4]ctorSource, n int) {
	for k, t := range ws {
		aw := t.width()
		if len(ws) == 1 && aw == 1 {
			for n < w {
				src[n] = ctorSource{uint8(k), 0}
				n++
			}
			break
		}
		for j := 0; j < aw && n < w; j++ {
			src[n] = ctorSource{uint8(k), uint8(j)}
			n++
		}
	}
	return src, n
}

// copyComp writes component j of x to component i of o in the lanes listed
// in live.
func copyComp(o []gpu.Vec4, i int, x vin, j int, live []uint8) {
	i, j = i&3, j&3
	switch {
	case !dense(o, live):
		for _, l := range live {
			o[l][i] = x.at(l)[j]
		}
	case x.m == 0:
		v := x.c[0][j]
		for l := range o {
			o[l][i] = v
		}
	default:
		xc := x.c[:len(o)]
		for l := range xc {
			o[l][i] = xc[l][j]
		}
	}
}

// copyLanes copies x whole to o in the lanes listed in live.
func copyLanes(o []gpu.Vec4, x vin, live []uint8) {
	switch {
	case !dense(o, live):
		for _, l := range live {
			o[l] = *x.at(l)
		}
	case x.m == 0:
		for l := range o {
			o[l] = x.c[0]
		}
	default:
		copy(o, x.c)
	}
}

// unaryMath is fract, floor, abs, sin or cos of x, in float64.
func unaryMath(fn builtin, x32 float32) float32 {
	x := float64(x32)
	switch fn {
	case fnFract:
		return float32(x - math.Floor(x))
	case fnFloor:
		return float32(math.Floor(x))
	case fnAbs:
		return float32(math.Abs(x))
	case fnSin:
		return float32(math.Sin(x))
	default:
		return float32(math.Cos(x))
	}
}

// length is the Euclidean length of a's first w components, summed in
// float64.
func length(a *gpu.Vec4, w int) float32 {
	var s float64
	for i := range w {
		s += float64(float64(a[i]) * float64(a[i]))
	}
	return float32(math.Sqrt(s))
}

// truth is a comparison's value: 1 or 0.
func truth(b bool) float32 {
	if b {
		return 1
	}
	return 0
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
