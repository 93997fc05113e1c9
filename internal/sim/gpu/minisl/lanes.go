package minisl

import (
	"fmt"
	"math"

	"cycada/internal/sim/gpu"
)

// The compiled form of a shader: a tree of Go closures, built once by
// Compile and shared by every frame. Each closure runs one AST node over a
// list of live lanes — lane indexes into its frame, one per invocation — so
// a node's dispatch is paid once per span of fragments rather than once per
// fragment. A lane leaves the list the moment it faults, with its error
// recorded, and every later node skips it; that keeps each invocation's
// semantics exactly those of running it alone. Nodes read and write the
// frame's planes in place, component by component: only a node whose result
// is a matrix or a sampler stores a pointer.

// An exprFn evaluates an expression in the lanes listed in live. It returns
// the cell that holds the value in each of them, and the lanes that did not
// fault: live itself, compacted in place. A slot or a constant is returned
// as its own cell; every other node writes a temporary. A temporary is read
// only in the lanes its node returned, so a node whose result is never a
// reference clears its cell's whole reference mask.
type exprFn func(f *Frame, live []uint8) (int, []uint8)

// A stmtFn executes a statement in the lanes listed in live and returns the
// lanes that did not fault, compacted in place.
type stmtFn func(f *Frame, live []uint8) []uint8

var errSteps = &evalError{msg: "shader exceeded step limit"}

// compiler builds a shader's closures. A frame's cells are the shader's
// slots, then its constants, then its temporaries. Temporaries are allocated
// like a stack: a node writes temporary reg and its i-th operand reg+1+i, so
// an operand's value survives while its later siblings — which only write
// above it — are evaluated. Statements run one at a time, and each starts
// its expressions at reg 0.
type compiler struct {
	sh   *Shader
	copy *assignStmt // the statement compiled to a texel copy, if any
}

// compileBody compiles sh's parsed body. Every statement run charges a step
// (see step), but a shader without a for loop runs each of its statements at
// most once: when it has fewer than defaultMaxSteps, no lane can run out,
// and it is compiled to charge none. A fragment shader whose last statement
// is gl_FragColor = texture2D(s, uv), and which names gl_FragColor nowhere
// else, ends in a texel copy (see texelCopy).
func compileBody(sh *Shader) {
	sh.counted = maxSteps(sh.body) >= defaultMaxSteps
	c := &compiler{sh: sh}
	if sh.Kind == Fragment {
		c.copy = texelCopyStmt(sh.body, sh.slots[specialOut(Fragment)])
		sh.texelCopy = c.copy != nil
	}
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

// texelCopyStmt returns body's last statement when it is
// out = texture2D(s, uv), with no swizzle, and nothing else in body names
// out; otherwise nil.
func texelCopyStmt(body []stmt, out int) *assignStmt {
	if len(body) == 0 {
		return nil
	}
	as, ok := body[len(body)-1].(*assignStmt)
	if !ok || as.slot != out || as.swizzle != "" {
		return nil
	}
	call, ok := as.val.(*callExpr)
	if !ok || call.fn != fnTexture2D || len(call.args) != 2 || namesIn(body, out) != 1 {
		return nil
	}
	return as
}

// namesIn counts the places body names slot s: as a declaration or
// assignment target, or as a variable read.
func namesIn(body []stmt, s int) int {
	n := 0
	for _, st := range body {
		n += namesInStmt(st, s)
	}
	return n
}

func namesInStmt(st stmt, s int) int {
	switch st := st.(type) {
	case *declStmt:
		return count(st.slot == s) + namesInExpr(st.init, s)
	case *assignStmt:
		return count(st.slot == s) + namesInExpr(st.val, s)
	case *ifStmt:
		return namesInExpr(st.cond, s) + namesIn(st.then, s) + namesIn(st.els, s)
	case *forStmt:
		return namesInStmt(st.init, s) + namesInExpr(st.cond, s) + namesInStmt(st.post, s) + namesIn(st.body, s)
	}
	return 0
}

func namesInExpr(e expr, s int) int {
	switch ex := e.(type) {
	case *varExpr:
		return count(ex.slot == s)
	case *swizzleExpr:
		return namesInExpr(ex.base, s)
	case *unaryExpr:
		return namesInExpr(ex.x, s)
	case *binExpr:
		return namesInExpr(ex.l, s) + namesInExpr(ex.r, s)
	case *callExpr:
		n := 0
		for _, a := range ex.args {
			n += namesInExpr(a, s)
		}
		return n
	}
	return 0 // a constant, or no initializer
}

// count is 1 for true, 0 for false.
func count(b bool) int {
	if b {
		return 1
	}
	return 0
}

// texelCopy compiles the statement gl_FragColor = texture2D(s, uv) that
// ends a fragment shader naming gl_FragColor nowhere else. gl_FragColor is
// then zero, of width 4 and no reference, when the statement runs, so the
// assignment leaves it the texel — unorm8[c] of each of its bytes c — and
// gpu.Pack turns that back into the texel's word, since unorm(unorm8[c])
// is c. The node therefore writes each lane's texel word straight into the
// frame's colour words, and the gl_FragColor plane is neither written nor
// read. The arguments evaluate, and fetches count, as for any texture2D
// call.
func (c *compiler) texelCopy(call *callExpr) stmtFn {
	base, counted := call.base, c.sh.counted
	args := c.operands(call.args, 0, base)
	return func(f *Frame, live []uint8) []uint8 {
		if counted {
			live = f.step(live)
		}
		live = args(f, live)
		s, uv := f.args[base], f.args[base+1]
		sm, sr := f.refMask[s], f.refCell(s)
		uc, _ := f.planes(uv)
		for i := 0; i < len(live); {
			j, smp := samplerRun(sm, sr, live, i)
			smp.Words(f.col, uc, live[i:j])
			i = j
		}
		for _, l := range live {
			f.fetches[l]++
		}
		return live
	}
}

// fault records err as lane l's runtime error.
func (f *Frame) fault(l uint8, err error) {
	f.errs[l] = err
	f.faulted |= 1 << l
}

// temp returns the cell of temporary reg.
func (c *compiler) temp(reg int) int {
	c.sh.temps = max(c.sh.temps, reg+1)
	return len(c.sh.written) + len(c.sh.consts) + reg
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
			f.fault(l, errSteps)
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
		if st == c.copy {
			return c.texelCopy(st.val.(*callExpr))
		}
		return c.assign(st)
	case *ifStmt:
		cond, then, els, counted := c.expr(st.cond, 0), c.block(st.then), c.block(st.els), c.sh.counted
		return func(f *Frame, live []uint8) []uint8 {
			if counted {
				live = f.step(live)
			}
			var v int
			v, live = cond(f, live)
			vc, _ := f.planes(v)
			// Split the lanes: those taking the then-branch to the front.
			k := 0
			for i, l := range live {
				if vc[l][0] != 0 {
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
	slot, zero, width, counted := st.slot, st.zero, uint8(st.width), c.sh.counted
	if st.init == nil {
		zr, zm := ref{zero.M, zero.Sampler}, uint64(0)
		if zr != (ref{}) {
			zm = allLanes
		}
		return func(f *Frame, live []uint8) []uint8 {
			if counted {
				live = f.step(live)
			}
			dc, dw := f.planes(slot)
			dr := f.refCell(slot)
			var mask uint64
			for _, l := range live {
				dc[l], dw[l] = zero.V, uint8(zero.Width)
				if zm != 0 {
					dr[l] = zr
				}
				mask |= 1 << l
			}
			f.refMask[slot] = f.refMask[slot]&^mask | mask&zm
			f.def[slot] |= mask
			return live
		}
	}
	init := c.expr(st.init, 0)
	return func(f *Frame, live []uint8) []uint8 {
		if counted {
			live = f.step(live)
		}
		var v int
		v, live = init(f, live)
		sc, sw := f.planes(v)
		dc, dw := f.planes(slot)
		sr, dr, sm := f.refCell(v), f.refCell(slot), f.refMask[v]
		var mask, rm uint64
		for _, l := range live {
			bit := uint64(1) << l
			var kept bool
			dw[l], kept = coerce(&dc[l], &sc[l], sw[l], width)
			if kept && sm&bit != 0 {
				dr[l] = sr[l]
				rm |= bit
			}
			mask |= bit
		}
		f.refMask[slot] = f.refMask[slot]&^mask | rm
		f.def[slot] |= mask
		return live
	}
}

func (c *compiler) assign(st *assignStmt) stmtFn {
	slot, val, counted := st.slot, c.expr(st.val, 0), c.sh.counted
	errUndeclared := &evalError{line: st.line, msg: "assignment to undeclared " + st.name}
	if st.swizzle != "" {
		errSwizzle := &evalError{line: st.line, msg: "only single-component swizzle writes supported"}
		single, comp := len(st.swizzle) == 1, swizzleIndex(rune(st.swizzle[0]))
		return func(f *Frame, live []uint8) []uint8 {
			if counted {
				live = f.step(live)
			}
			var v int
			v, live = val(f, live)
			sc, _ := f.planes(v)
			dc, _ := f.planes(slot)
			def := f.def[slot]
			n := 0
			for _, l := range live {
				switch {
				case def>>l&1 == 0:
					f.fault(l, errUndeclared)
				case !single:
					f.fault(l, errSwizzle)
				default:
					dc[l][comp] = sc[l][0]
					live[n] = l
					n++
				}
			}
			return live[:n]
		}
	}
	errMatrix := &evalError{line: st.line, msg: "cannot assign scalar to matrix " + st.name}
	return func(f *Frame, live []uint8) []uint8 {
		if counted {
			live = f.step(live)
		}
		var v int
		v, live = val(f, live)
		sc, sw := f.planes(v)
		dc, dw := f.planes(slot)
		sm, dm, def := f.refMask[v], f.refMask[slot], f.def[slot]
		if def == allLanes && sm|dm == 0 {
			// No lane can fault, and none moves a reference.
			for _, l := range live {
				dw[l], _ = coerce(&dc[l], &sc[l], sw[l], dw[l])
			}
			return live
		}
		sr, dr := f.refCell(v), f.refCell(slot)
		var mask, rm uint64
		n := 0
		for _, l := range live {
			bit := uint64(1) << l
			if def&bit == 0 {
				f.fault(l, errUndeclared)
				continue
			}
			if dm&bit != 0 && dr[l].M != nil && (sm&bit == 0 || sr[l].M == nil) {
				f.fault(l, errMatrix)
				continue
			}
			var kept bool
			dw[l], kept = coerce(&dc[l], &sc[l], sw[l], dw[l])
			if kept && sm&bit != 0 {
				dr[l] = sr[l]
				rm |= bit
			}
			mask |= bit
			live[n] = l
			n++
		}
		f.refMask[slot] = dm&^mask | rm
		return live[:n]
	}
}

// coerce writes a value's components c, of width w, to d as a variable of
// width to holds them, and returns the width written and whether the
// value's reference, if any, comes along. A variable of width 0 (a matrix
// or a sampler) takes the value whole; any other takes its own width, and
// a scalar splats to it, leaving its reference behind.
func coerce(d, c *gpu.Vec4, w, to uint8) (uint8, bool) {
	switch {
	case to == 0:
		*d = *c
		return w, true
	case w == 1 && to > 1:
		setSplat(d, c[0])
		return to, false
	default:
		*d = *c
		return to, true
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
			vc, _ := f.planes(v)
			live = live[:done+len(act)]
			for i := done; i < len(live); i++ {
				if l := live[i]; vc[l][0] == 0 {
					live[i], live[done] = live[done], l
					done++
				}
			}
			if done == len(live) {
				break
			}
			// A lane that runs out of steps faults in step, so every lane
			// the post statement returns has steps left.
			act = post(f, body(f, live[done:]))
			live = live[:done+len(act)]
		}
		return live
	}
}

func (c *compiler) expr(e expr, reg int) exprFn {
	switch ex := e.(type) {
	case *numExpr:
		cell := len(c.sh.written) + ex.k
		return func(f *Frame, live []uint8) (int, []uint8) { return cell, live }
	case *varExpr:
		slot := ex.slot
		err := &evalError{line: ex.line, msg: "undefined variable " + ex.name}
		return func(f *Frame, live []uint8) (int, []uint8) {
			def := f.def[slot]
			if def == allLanes {
				return slot, live
			}
			n := 0
			for _, l := range live {
				if def>>l&1 == 0 {
					f.fault(l, err)
					continue
				}
				live[n] = l
				n++
			}
			return slot, live[:n]
		}
	case *swizzleExpr:
		base, out, idx := c.expr(ex.base, reg+1), c.temp(reg), ex.idx[:ex.n]
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
		x, out := c.expr(ex.x, reg+1), c.temp(reg)
		if ex.not {
			return func(f *Frame, live []uint8) (int, []uint8) {
				var v int
				v, live = x(f, live)
				vc, _ := f.planes(v)
				oc, ow := f.planes(out)
				for _, l := range live {
					setSplat(&oc[l], truth(vc[l][0] == 0))
					ow[l] = 1
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

// operands compiles a node's operands into the temporaries above reg and
// returns a function that evaluates them left to right, storing each one's
// cell in the frame's argument cells from base on: a lane that faults in
// one operand evaluates none after it.
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
		return func(f *Frame, live []uint8) (int, []uint8) {
			var a, b int
			a, live = lhs(f, live)
			b, live = rhs(f, live)
			ac, _ := f.planes(a)
			bc, _ := f.planes(b)
			oc, ow := f.planes(out)
			for _, l := range live {
				setSplat(&oc[l], truth(compare(op, ac[l][0], bc[l][0])))
				ow[l] = 1
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
		ac, aw := f.planes(a)
		bc, bw := f.planes(b)
		oc, ow := f.planes(out)
		am, bm := f.refMask[a], f.refMask[b]
		f.refMask[out] = 0
		if am|bm == 0 {
			arith(op, live, oc, ow, ac, aw, bc, bw)
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
				arith(op, live[i:i+1], oc, ow, ac, aw, bc, bw)
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
		return out, live[:n]
	}
}

// arith writes x op y to o in the lanes listed in live, each of x, y and o
// given as its component and width planes: a scalar operand broadcasts, and
// the result takes the wider width. Division by a zero component gives
// zero.
func arith(op binOp, live []uint8, oc []gpu.Vec4, ow []uint8, xc []gpu.Vec4, xw []uint8, yc []gpu.Vec4, yw []uint8) {
	// One loop per operator: the lanes run with the operator decided.
	switch op {
	case opAdd:
		for _, l := range live {
			d, x, y, mx, my := arithLane(l, oc, ow, xc, xw, yc, yw)
			for i := range d {
				d[i] = x[i&mx] + y[i&my]
			}
		}
	case opSub:
		for _, l := range live {
			d, x, y, mx, my := arithLane(l, oc, ow, xc, xw, yc, yw)
			for i := range d {
				d[i] = x[i&mx] - y[i&my]
			}
		}
	case opMul:
		for _, l := range live {
			d, x, y, mx, my := arithLane(l, oc, ow, xc, xw, yc, yw)
			for i := range d {
				d[i] = x[i&mx] * y[i&my]
			}
		}
	case opDiv:
		for _, l := range live {
			d, x, y, mx, my := arithLane(l, oc, ow, xc, xw, yc, yw)
			for i := range d {
				d[i] = 0
				if y[i&my] != 0 {
					d[i] = x[i&mx] / y[i&my]
				}
			}
		}
	}
}

// arithLane sets lane l's result width to the wider operand's and returns its
// result, its operands, and their component masks (see splatMask).
func arithLane(l uint8, oc []gpu.Vec4, ow []uint8, xc []gpu.Vec4, xw []uint8, yc []gpu.Vec4, yw []uint8) (d, x, y *gpu.Vec4, mx, my int) {
	w := max(xw[l], yw[l])
	ow[l] = w
	return &oc[l], &xc[l], &yc[l], splatMask(xw[l], w), splatMask(yw[l], w)
}

// truth is a comparison's value: 1 or 0.
func truth(b bool) float32 {
	if b {
		return 1
	}
	return 0
}

// widen returns components c of width w as a vec4: a vec3 gets w=1, as
// Value.Vec4 does.
func widen(c gpu.Vec4, w uint8) gpu.Vec4 {
	if w == 3 {
		c[3] = 1
	}
	return c
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
		return func(f *Frame, live []uint8) (int, []uint8) {
			for _, l := range args(f, live) {
				f.fault(l, err)
			}
			return out, live[:0]
		}
	}
	// each returns a call that cannot fault once its arguments have
	// evaluated: fn computes the result in every lane still live, in cell
	// o, from the argument cells av. Its result is no reference unless fn
	// sets o's mask.
	each := func(fn func(f *Frame, o int, av []int, live []uint8)) exprFn {
		return func(f *Frame, live []uint8) (int, []uint8) {
			live = args(f, live)
			f.refMask[out] = 0
			fn(f, out, f.args[base:base+nargs], live)
			return out, live
		}
	}
	switch ex.fn {
	case fnVec2, fnVec3, fnVec4:
		return c.construct(ex, args, out)
	case fnTexture2D:
		if nargs != 2 {
			return fail("needs (sampler, vec2)")
		}
		return each(func(f *Frame, o int, av []int, live []uint8) {
			sm, sr := f.refMask[av[0]], f.refCell(av[0])
			uv, _ := f.planes(av[1])
			oc, ow := f.planes(o)
			for i := 0; i < len(live); {
				j, smp := samplerRun(sm, sr, live, i)
				smp.Sample(oc, uv, live[i:j])
				i = j
			}
			for _, l := range live {
				f.fetches[l]++
				ow[l] = 4
			}
		})
	case fnClamp:
		if nargs != 3 {
			return fail("needs 3 args")
		}
		return each(func(f *Frame, o int, av []int, live []uint8) {
			xc, xw := f.planes(av[0])
			lc, _ := f.planes(av[1])
			hc, _ := f.planes(av[2])
			oc, ow := f.planes(o)
			for _, l := range live {
				x, d, lo, hi := &xc[l], &oc[l], lc[l][0], hc[l][0]
				for i := range d {
					d[i] = minf(maxf(x[i], lo), hi)
				}
				ow[l] = xw[l]
			}
		})
	case fnMin, fnMax, fnPow:
		if nargs != 2 {
			return fail("needs 2 args")
		}
		fn := ex.fn
		return each(func(f *Frame, o int, av []int, live []uint8) {
			ac, aw := f.planes(av[0])
			bc, bw := f.planes(av[1])
			oc, ow := f.planes(o)
			for _, l := range live {
				w := aw[l]
				a, b, d, mb := &ac[l], &bc[l], &oc[l], splatMask(bw[l], w)
				for i := range d {
					switch fn {
					case fnMin:
						d[i] = minf(a[i], b[i&mb])
					case fnMax:
						d[i] = maxf(a[i], b[i&mb])
					default:
						d[i] = float32(math.Pow(float64(a[i]), float64(b[i&mb])))
					}
				}
				ow[l] = w
			}
		})
	case fnDot:
		if nargs != 2 {
			return fail("needs 2 args")
		}
		return each(func(f *Frame, o int, av []int, live []uint8) {
			ac, aw := f.planes(av[0])
			bc, _ := f.planes(av[1])
			oc, ow := f.planes(o)
			for _, l := range live {
				a, b := &ac[l], &bc[l]
				var s float32
				for i := range aw[l] {
					s += float32(a[i] * b[i])
				}
				setSplat(&oc[l], s)
				ow[l] = 1
			}
		})
	case fnMix:
		if nargs != 3 {
			return fail("needs 3 args")
		}
		return each(func(f *Frame, o int, av []int, live []uint8) {
			ac, aw := f.planes(av[0])
			bc, bw := f.planes(av[1])
			tc, _ := f.planes(av[2])
			oc, ow := f.planes(o)
			for _, l := range live {
				a, b, d, t := &ac[l], &bc[l], &oc[l], tc[l][0]
				mb := splatMask(bw[l], aw[l])
				for i := range d {
					d[i] = float32(a[i]*(1-t)) + float32(b[i&mb]*t)
				}
				ow[l] = aw[l]
			}
		})
	case fnFract, fnFloor, fnAbs, fnSin, fnCos:
		if nargs != 1 {
			return fail("needs 1 arg")
		}
		fn := ex.fn
		return each(func(f *Frame, o int, av []int, live []uint8) {
			ac, aw := f.planes(av[0])
			oc, ow := f.planes(o)
			for _, l := range live {
				a, d := &ac[l], &oc[l]
				for i := range d {
					x := float64(a[i])
					switch fn {
					case fnFract:
						d[i] = float32(x - math.Floor(x))
					case fnFloor:
						d[i] = float32(math.Floor(x))
					case fnAbs:
						d[i] = float32(math.Abs(x))
					case fnSin:
						d[i] = float32(math.Sin(x))
					default:
						d[i] = float32(math.Cos(x))
					}
				}
				ow[l] = aw[l]
			}
		})
	case fnLength, fnNormalize:
		if nargs != 1 {
			return fail("needs 1 arg")
		}
		normalize := ex.fn == fnNormalize
		return each(func(f *Frame, o int, av []int, live []uint8) {
			ac, aw := f.planes(av[0])
			am, ar := f.refMask[av[0]], f.refCell(av[0])
			oc, ow := f.planes(o)
			var m uint64
			for _, l := range live {
				a, d := &ac[l], &oc[l]
				var s float64
				for i := range aw[l] {
					s += float64(float64(a[i]) * float64(a[i]))
				}
				n := float32(math.Sqrt(s))
				switch {
				case !normalize:
					setSplat(d, n)
					ow[l] = 1
				case n == 0:
					// The argument comes back whole, reference and all.
					*d, ow[l] = *a, aw[l]
					if am>>l&1 != 0 {
						f.refs[o*f.lanes+int(l)] = ar[l]
						m |= 1 << l
					}
				default:
					k := 1 / n
					for i := range d {
						d[i] = a[i] * k
					}
					ow[l] = aw[l]
				}
			}
			f.refMask[o] = m
		})
	default:
		return fail("unknown function")
	}
}

// laneTexture returns the sampler in lane l of a cell whose references are
// refs, with mask m: nil where the lane holds none.
func laneTexture(m uint64, refs []ref, l uint8) *gpu.Texture {
	if m>>l&1 == 0 {
		return nil
	}
	return refs[l].S
}

// samplerRun returns the end of the run of lanes from live[i] on that hold
// one texture in a cell whose references are refs, with mask m, and that
// texture's sampling terms. Lanes almost always share a texture, so its
// terms are resolved once per run rather than once per lane.
func samplerRun(m uint64, refs []ref, live []uint8, i int) (int, gpu.Sampler) {
	t := laneTexture(m, refs, live[i])
	j := i + 1
	for j < len(live) && laneTexture(m, refs, live[j]) == t {
		j++
	}
	return j, t.Sampler()
}

// construct compiles vec2/vec3/vec4: the arguments' components, in order,
// fill the vector, and a single scalar argument splats.
func (c *compiler) construct(ex *callExpr, args func(*Frame, []uint8) []uint8, out int) exprFn {
	w, base, nargs := int(ex.fn-fnVec2)+2, ex.base, len(ex.args)
	short := make([]error, w) // short[n]: only n components supplied
	for n := range short {
		short[n] = &evalError{line: ex.line, msg: ex.name + ": " + fmt.Sprintf("needs %d components, got %d", w, n)}
	}
	return func(f *Frame, live []uint8) (int, []uint8) {
		live = args(f, live)
		oc, ow := f.planes(out)
		av, L := f.args[base:base+nargs], f.lanes
		k := 0
		for _, l := range live {
			d := &oc[l]
			*d = gpu.Vec4{}
			n := 0
			for _, a := range av {
				i := a*L + int(l)
				x, aw := &f.comp[i], int(max(f.width[i], 1))
				if nargs == 1 && aw == 1 {
					for n < w {
						d[n] = x[0]
						n++
					}
					break
				}
				for j := 0; j < aw && n < w; j++ {
					d[n] = x[j]
					n++
				}
			}
			ow[l] = uint8(w)
			if n < w {
				f.fault(l, short[n])
				continue
			}
			live[k] = l
			k++
		}
		f.refMask[out] = 0
		return out, live[:k]
	}
}
