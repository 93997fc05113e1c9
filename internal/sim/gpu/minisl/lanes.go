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
// semantics exactly those of running it alone. Compile first types every
// expression and cell (typing.go), and each node is built for its
// operands' classes and static types. A typed node's widths are constants
// of its closure: it computes only the components its type declares, one
// component at a time over its lanes, with no width, splat mask or
// reference in sight. A node over draw-uniform operands only runs once per
// span, in the one lane of the frame's uniform frame, and a typed node
// reads its result there with stride 0, one component for all its lanes.
// Only a node over a dynamic operand reads a width, and tests a reference,
// in every lane; its result, like every value the reference evaluator
// computes, has no hidden component but zero.

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
// its expressions at reg 0. A draw-uniform node's temporaries are the same
// cells of the uniform frame.
type compiler struct {
	sh  *Shader
	t   *typer
	uni bool // compiling a draw-uniform node, which runs in the uniform frame
	// dest, when not -1, is the typed slot the statement being compiled
	// stores its value to: the value's node writes it there itself rather
	// than to temporary 0 (see value).
	dest int
}

// compileBody types sh's slots and expressions, checking the width rules,
// and compiles its parsed body. Every statement run charges a step (see
// step), but a shader without a for loop runs each of its statements at
// most once: when it has fewer than defaultMaxSteps, no lane can run out,
// and it is compiled to charge none.
func compileBody(sh *Shader) {
	sh.counted = maxSteps(sh.body) >= defaultMaxSteps
	c := &compiler{sh: sh, t: typeSlots(sh), dest: -1}
	sh.class, sh.typ = c.t.class, c.t.typ
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

// fault records err as lane l's runtime error.
func (f *Frame) fault(l uint8, err error) {
	f.errs[l] = err
	f.faulted |= 1 << l
}

// faultAll records err as the runtime error of every lane in live, and
// returns none of them.
func (f *Frame) faultAll(live []uint8, err error) []uint8 {
	for _, l := range live {
		f.fault(l, err)
	}
	return live[:0]
}

// defined faults the lanes in live that are not in def with err, and
// returns the others.
func (f *Frame) defined(live []uint8, def uint64, err error) []uint8 {
	if def == allLanes {
		return live
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
	return live[:n]
}

// temp returns the cell of temporary reg.
func (c *compiler) temp(reg int) int {
	if reg == 0 && c.dest >= 0 {
		return c.dest
	}
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
		if c.sh.class[st.slot] == vecCell {
			return c.declVec(st)
		}
		return c.decl(st)
	case *assignStmt:
		switch {
		case st.swizzle != "":
			return c.assignComponent(st)
		case c.sh.class[st.slot] == vecCell:
			return c.assignVec(st)
		}
		return c.assign(st)
	case *ifStmt:
		cond, k := c.expr(st.cond, 0), c.t.kind(st.cond).class
		then, els, counted := c.block(st.then), c.block(st.els), c.sh.counted
		return func(f *Frame, live []uint8) []uint8 {
			if counted {
				live = f.step(live)
			}
			var v int
			v, live = cond(f, live)
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

// declVec compiles a declaration of a typed slot: the value is stored at
// the declared width (see store).
func (c *compiler) declVec(st *declStmt) stmtFn {
	slot, w, counted := st.slot, st.typ.width(), c.sh.counted
	if st.init == nil {
		return func(f *Frame, live []uint8) []uint8 {
			if counted {
				live = f.step(live)
			}
			dc, _ := f.planes(slot)
			for _, l := range live {
				dc[l] = gpu.Vec4{}
			}
			f.def[slot] |= f.mask(live)
			return live
		}
	}
	init, store := c.value(slot, w, st.init)
	return func(f *Frame, live []uint8) []uint8 {
		if counted {
			live = f.step(live)
		}
		var v int
		v, live = init(f, live)
		store(f, v, live)
		f.def[slot] |= f.mask(live)
		return live
	}
}

// assignVec compiles an assignment to a whole typed slot, which holds no
// matrix to fault on: the value is stored at the slot's width.
func (c *compiler) assignVec(st *assignStmt) stmtFn {
	slot, counted := st.slot, c.sh.counted
	val, store := c.value(slot, c.t.typ[slot].width(), st.val)
	errUndeclared := &evalError{line: st.line, msg: "assignment to undeclared " + st.name}
	return func(f *Frame, live []uint8) []uint8 {
		if counted {
			live = f.step(live)
		}
		var v int
		v, live = val(f, live)
		live = f.defined(live, f.def[slot], errUndeclared)
		store(f, v, live)
		return live
	}
}

// value compiles e, the value of a statement that stores it to typed slot
// s of width w, and the store. A typed node of width w that does not read
// s writes its components to s itself, and the store has nothing left to
// do: the node reads every operand component before it writes the
// component it computes, and a lane it writes but the statement faults
// never reads s again.
func (c *compiler) value(s, w int, e expr) (exprFn, func(f *Frame, v int, live []uint8)) {
	k := c.t.kind(e)
	switch e.(type) {
	case *varExpr, *numExpr:
	default:
		if k.class == vecCell && k.t.width() == w && !reads(e, s) {
			c.dest = s
			fn := c.expr(e, 0)
			c.dest = -1
			return fn, func(*Frame, int, []uint8) {}
		}
	}
	splat := k.t == tFloat && w > 1
	return c.expr(e, 0), func(f *Frame, v int, live []uint8) {
		f.store(s, w, f.in(v, k.class), splat, live)
	}
}

// reads reports whether e reads slot s.
func reads(e expr, s int) bool {
	switch ex := e.(type) {
	case *varExpr:
		return ex.slot == s
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

// mask is the mask of the lanes in live: every lane of the run when live
// holds as many as it does.
func (f *Frame) mask(live []uint8) uint64 {
	if len(live) == f.n {
		return lanesBelow(f.n)
	}
	return laneMask(live)
}

// store writes x to typed slot s, of width w, in the lanes in live: a
// scalar splats to the w components when splat is set; any other value has
// width w (see typer.store) and is copied whole.
func (f *Frame) store(s, w int, x vin, splat bool, live []uint8) {
	dc := f.plane(s)
	if !splat {
		copyLanes(dc, x, live)
		return
	}
	for i := range w {
		copyComp(dc, i, x, 0, live)
	}
}

// assignComponent compiles a swizzle write, which stores one component and
// leaves the slot's width and reference as they are.
func (c *compiler) assignComponent(st *assignStmt) stmtFn {
	slot, counted := st.slot, c.sh.counted
	val, k := c.expr(st.val, 0), c.t.kind(st.val).class
	errUndeclared := &evalError{line: st.line, msg: "assignment to undeclared " + st.name}
	errSwizzle := &evalError{line: st.line, msg: "only single-component swizzle writes supported"}
	single, comp := len(st.swizzle) == 1, swizzleIndex(rune(st.swizzle[0]))
	return func(f *Frame, live []uint8) []uint8 {
		if counted {
			live = f.step(live)
		}
		var v int
		v, live = val(f, live)
		x := f.in(v, k)
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
				dc[l][comp] = x.at(l)[0]
				live[n] = l
				n++
			}
		}
		return live[:n]
	}
}

// decl compiles a declaration of a dynamic slot.
func (c *compiler) decl(st *declStmt) stmtFn {
	slot, zero, width, counted := st.slot, st.zero, uint8(st.typ.width()), c.sh.counted
	c.sh.dynamic++
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
	init := c.operand(st.init, 0)
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

// assign compiles an assignment to a whole dynamic slot.
func (c *compiler) assign(st *assignStmt) stmtFn {
	slot, val, counted := st.slot, c.operand(st.val, 0), c.sh.counted
	c.sh.dynamic++
	errUndeclared := &evalError{line: st.line, msg: "assignment to undeclared " + st.name}
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
// a scalar splats to it, with no hidden component but zero, leaving its
// reference behind.
func coerce(d, c *gpu.Vec4, w, to uint8) (uint8, bool) {
	switch {
	case to == 0:
		*d = *c
		return w, true
	case w == 1 && to > 1:
		x := c[0]
		*d = gpu.Vec4{}
		for i := range to {
			d[i] = x
		}
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
	init, body, post := c.stmt(st.init), c.block(st.body), c.stmt(st.post)
	cond, k := c.expr(st.cond, 0), c.t.kind(st.cond).class
	return func(f *Frame, live []uint8) []uint8 {
		live = f.step(live)
		live = init(f, live)
		done := 0 // live[:done] have left the loop
		for done < len(live) {
			v, act := cond(f, live[done:])
			x := f.in(v, k)
			live = live[:done+len(act)]
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
			act = post(f, body(f, live[done:]))
			live = live[:done+len(act)]
		}
		return live
	}
}

// expr compiles e for its kind: a draw-uniform node to run once in the
// uniform frame, a typed node, or a dynamic one.
func (c *compiler) expr(e expr, reg int) exprFn {
	k := c.t.kind(e)
	switch ex := e.(type) {
	case *numExpr:
		cell := len(c.sh.written) + ex.k
		return func(f *Frame, live []uint8) (int, []uint8) { return cell, live }
	case *varExpr:
		if k.class == uniCell {
			// A uniform the shader never writes is defined in every lane.
			slot := ex.slot
			return func(f *Frame, live []uint8) (int, []uint8) { return slot, live }
		}
		slot := ex.slot
		err := &evalError{line: ex.line, msg: "undefined variable " + ex.name}
		return func(f *Frame, live []uint8) (int, []uint8) {
			return slot, f.defined(live, f.def[slot], err)
		}
	}
	switch {
	case c.uni || k.class == dynCell:
		return c.dynamic(e, reg)
	case k.class == uniCell:
		return c.uniform(e, reg)
	}
	return c.typed(e, reg)
}

// uniform compiles a draw-uniform node: the dynamic node, over the uniform
// frame's one lane. When it faults there, every live lane faults with its
// error, as each would have alone.
func (c *compiler) uniform(e expr, reg int) exprFn {
	c.uni = true
	fn := c.dynamic(e, reg)
	c.uni = false
	return func(f *Frame, live []uint8) (int, []uint8) {
		u := f.u
		v, ok := fn(u, u.live[:1])
		if len(ok) == 0 {
			err := u.errs[0]
			u.errs[0], u.faulted = nil, 0
			return v, f.faultAll(live, err)
		}
		return v, live
	}
}

// operand compiles x as a dynamic node reads it: with a width and a
// reference in every lane, and no hidden component but zero. A typed value
// gets its static width in each lane, its hidden components cleared, and
// no reference; a draw-uniform one is spread over the lanes, in the same
// cell of the frame (see spread).
func (c *compiler) operand(x expr, reg int) exprFn {
	fn := c.expr(x, reg)
	if c.uni {
		return fn
	}
	switch k := c.t.kind(x); k.class {
	case vecCell:
		w := uint8(k.t.width())
		return func(f *Frame, live []uint8) (int, []uint8) {
			v, live := fn(f, live)
			dc, dw := f.planes(v)
			for _, l := range live {
				clear(dc[l][w:])
				dw[l] = w
			}
			f.refMask[v] = 0
			return v, live
		}
	case uniCell:
		return spread(fn)
	}
	return fn
}

// spread copies a draw-uniform value from the uniform frame into the same
// cell of the frame, in every lane in live: its components, width and
// reference. The frame's own copy of a draw-uniform cell is read nowhere
// else.
func spread(fn exprFn) exprFn {
	return func(f *Frame, live []uint8) (int, []uint8) {
		v, live := fn(f, live)
		u := f.u
		x, w := u.comp[v], u.width[v]
		dc, dw := f.planes(v)
		for _, l := range live {
			dc[l], dw[l] = x, w
		}
		f.refMask[v] = 0
		if u.refMask[v]&1 != 0 {
			r, dr := u.refs[v], f.refCell(v)
			for _, l := range live {
				dr[l] = r
				f.refMask[v] |= 1 << l
			}
		}
		return v, live
	}
}

// operands compiles a node's operands into the temporaries above reg, each
// with compile, and returns a function that evaluates them left to right,
// storing each one's cell in the frame's argument cells from base on: a
// lane that faults in one operand evaluates none after it.
func (c *compiler) operands(xs []expr, reg, base int, compile func(expr, int) exprFn) func(f *Frame, live []uint8) []uint8 {
	fns := make([]exprFn, len(xs))
	for i, x := range xs {
		fns[i] = compile(x, reg+1+i)
	}
	return func(f *Frame, live []uint8) []uint8 {
		for i, fn := range fns {
			f.args[base+i], live = fn(f, live)
		}
		return live
	}
}

// vin is how a node reads an operand: its components in every lane, or,
// for a draw-uniform value, in one lane read with stride 0 (lane mask
// m = 0). Its width is fixed at compile time for a typed node, and per
// group of lanes for a dynamic one.
type vin struct {
	c []gpu.Vec4
	m uint8
}

// at returns the operand's components in lane l.
func (x vin) at(l uint8) *gpu.Vec4 { return &x.c[l&x.m] }

// in returns how a typed node reads cell v, of class k: in the lanes of
// the run, or with stride 0.
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

// typed compiles a node whose result is typed: its static width in every
// lane, and no reference. Only its declared components are computed.
func (c *compiler) typed(e expr, reg int) exprFn {
	switch ex := e.(type) {
	case *swizzleExpr:
		base, out, idx := c.expr(ex.base, reg+1), c.temp(reg), ex.idx[:ex.n]
		return func(f *Frame, live []uint8) (int, []uint8) {
			var b int
			b, live = base(f, live)
			bc, _ := f.planes(b)
			oc := f.plane(out)
			for i, k := range idx {
				for _, l := range live {
					oc[l][i] = bc[l][k]
				}
			}
			return out, live
		}
	case *unaryExpr:
		x, out, k := c.expr(ex.x, reg+1), c.temp(reg), c.t.kind(ex.x)
		if ex.not {
			return func(f *Frame, live []uint8) (int, []uint8) {
				var v int
				v, live = x(f, live)
				a := f.in(v, k.class)
				oc := f.plane(out)
				for _, l := range live {
					oc[l][0] = truth(a.at(l)[0] == 0)
				}
				return out, live
			}
		}
		w := k.t.width()
		return func(f *Frame, live []uint8) (int, []uint8) {
			var v int
			v, live = x(f, live)
			ac, _ := f.planes(v)
			oc := f.plane(out)
			for i := range w {
				for _, l := range live {
					oc[l][i] = ac[l][i] * -1
				}
			}
			return out, live
		}
	case *binExpr:
		return c.binaryVec(ex, reg)
	case *callExpr:
		return c.callVec(ex, reg)
	}
	panic(fmt.Sprintf("minisl: no typed node for %T", e))
}

// binaryVec compiles a typed comparison or arithmetic node over typed or
// draw-uniform operands; a draw-uniform matrix times a vector is mat*vec.
func (c *compiler) binaryVec(ex *binExpr, reg int) exprFn {
	lhs, rhs, out, op := c.expr(ex.l, reg+1), c.expr(ex.r, reg+2), c.temp(reg), ex.op
	lk, rk := c.t.kind(ex.l), c.t.kind(ex.r)
	if op >= opLT {
		return func(f *Frame, live []uint8) (int, []uint8) {
			var a, b int
			a, live = lhs(f, live)
			b, live = rhs(f, live)
			x, y := f.in(a, lk.class), f.in(b, rk.class)
			oc := f.plane(out)
			for _, l := range live {
				oc[l][0] = truth(compare(op, x.at(l)[0], y.at(l)[0]))
			}
			return out, live
		}
	}
	wx, wy := lk.t.width(), rk.t.width()
	if lk.t == tMat {
		return func(f *Frame, live []uint8) (int, []uint8) {
			var a, b int
			a, live = lhs(f, live)
			b, live = rhs(f, live)
			m, y := f.u.refs[a].M, f.in(b, rk.class)
			oc := f.plane(out)
			for _, l := range live {
				var v gpu.Vec4
				copy(v[:wy], y.at(l)[:wy])
				oc[l] = m.MulVec(widen(v, uint8(wy)))
			}
			return out, live
		}
	}
	w := max(wx, wy)
	sx, sy := wx == 1 && w > 1, wy == 1 && w > 1
	return func(f *Frame, live []uint8) (int, []uint8) {
		var a, b int
		a, live = lhs(f, live)
		b, live = rhs(f, live)
		oc := f.plane(out)
		arith(op, oc, f.in(a, lk.class), f.in(b, rk.class), w, sx, sy, live)
		return out, live
	}
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

// arity maps each builtin of fixed arity to its argument count and the
// message a call with another count faults with.
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

// fault returns the message every call of ex faults with once its
// arguments have evaluated — an unknown function or a wrong argument
// count — or "".
func (ex *callExpr) fault() string {
	if ex.fn == fnUnknown {
		return "unknown function"
	}
	if a, ok := arity[ex.fn]; ok && len(ex.args) != a.n {
		return a.msg
	}
	return ""
}

// callVec compiles a typed builtin call. Its arguments are evaluated first,
// so an argument's error takes precedence over the call's own; an arity
// error or an unknown function faults every lane that gets that far.
func (c *compiler) callVec(ex *callExpr, reg int) exprFn {
	base, nargs, out := ex.base, len(ex.args), c.temp(reg)
	if msg := ex.fault(); msg != "" {
		args := c.operands(ex.args, reg, base, c.expr)
		err := &evalError{line: ex.line, msg: ex.name + ": " + msg}
		return func(f *Frame, live []uint8) (int, []uint8) {
			return out, f.faultAll(args(f, live), err)
		}
	}
	ks := make([]class, nargs)
	ws := make([]int, nargs)
	for i, a := range ex.args {
		k := c.t.kind(a)
		ks[i], ws[i] = k.class, k.t.width()
	}
	if ex.fn == fnTexture2D {
		// The sampler as it is, and the coordinates in every lane: spread
		// if they are draw-uniform.
		args := c.operands(ex.args, reg, base, func(x expr, reg int) exprFn {
			if x == ex.args[1] && c.t.kind(x).class == uniCell {
				return spread(c.expr(x, reg))
			}
			return c.expr(x, reg)
		})
		return func(f *Frame, live []uint8) (int, []uint8) {
			live = args(f, live)
			s, uv := f.args[base], f.args[base+1]
			uc, _ := f.planes(uv)
			oc := f.plane(out)
			for i := 0; i < len(live); {
				j, smp := f.samplerRun(s, ks[0], live, i)
				smp.Sample(oc, uc, live[i:j])
				i = j
			}
			for _, l := range live {
				f.fetches[l]++
			}
			return out, live
		}
	}
	args := c.operands(ex.args, reg, base, c.expr)
	if ex.fn <= fnVec4 {
		return c.construct(ex, args, ks, ws, out)
	}
	kern, kw := kernel(ex.fn), [3]int(append(ws, 0, 0)[:3])
	return func(f *Frame, live []uint8) (int, []uint8) {
		live = args(f, live)
		var xs [3]vin
		for i, a := range f.args[base : base+nargs] {
			xs[i] = f.in(a, ks[i])
		}
		oc := f.plane(out)
		kern(oc, xs, kw, live)
		return out, live
	}
}

// A kernelFn computes a builtin that cannot fault once its arguments xs,
// of widths ws, have evaluated, in the lanes listed in live, into the
// components of o the result declares, and returns the result's width. A
// scalar second argument splats. Typed nodes run it once per span, at
// widths fixed at compile time; dynamic ones once per group of lanes whose
// arguments have the same widths.
type kernelFn func(o []gpu.Vec4, xs [3]vin, ws [3]int, live []uint8) int

// kernel returns the kernel of fn, a builtin of fixed arity other than
// texture2D.
func kernel(fn builtin) kernelFn {
	switch fn {
	case fnClamp:
		return func(o []gpu.Vec4, xs [3]vin, ws [3]int, live []uint8) int {
			x, lo, hi, w := xs[0], xs[1], xs[2], ws[0]
			if x.m != 0 && lo.m|hi.m == 0 && dense(o, live) {
				xc, lo, hi := x.c[:len(o)], lo.c[0][0], hi.c[0][0]
				for i := range w {
					for l := range xc {
						o[l][i] = minf(maxf(xc[l][i], lo), hi)
					}
				}
				return w
			}
			for i := range w {
				for _, l := range live {
					o[l][i] = minf(maxf(x.at(l)[i], lo.at(l)[0]), hi.at(l)[0])
				}
			}
			return w
		}
	case fnMin, fnMax, fnPow:
		return func(o []gpu.Vec4, xs [3]vin, ws [3]int, live []uint8) int {
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
			return w
		}
	case fnDot:
		return func(o []gpu.Vec4, xs [3]vin, ws [3]int, live []uint8) int {
			x, y := xs[0], xs[1]
			for _, l := range live {
				a, b := x.at(l), y.at(l)
				var s float32
				for i := range ws[0] {
					s += float32(a[i] * b[splat(i, ws[1])])
				}
				o[l][0] = s
			}
			return 1
		}
	case fnMix:
		return func(o []gpu.Vec4, xs [3]vin, ws [3]int, live []uint8) int {
			x, y, z, w := xs[0], xs[1], xs[2], ws[0]
			for i := range w {
				j := splat(i, ws[1])
				for _, l := range live {
					t := z.at(l)[0]
					o[l][i] = float32(x.at(l)[i]*(1-t)) + float32(y.at(l)[j]*t)
				}
			}
			return w
		}
	case fnFract, fnFloor, fnAbs, fnSin, fnCos:
		return func(o []gpu.Vec4, xs [3]vin, ws [3]int, live []uint8) int {
			x, w := xs[0], ws[0]
			for i := range w {
				for _, l := range live {
					o[l][i] = unaryMath(fn, x.at(l)[i])
				}
			}
			return w
		}
	default: // fnLength, fnNormalize
		normalize := fn == fnNormalize
		return func(o []gpu.Vec4, xs [3]vin, ws [3]int, live []uint8) int {
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
			if normalize {
				return w
			}
			return 1
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

// construct compiles a typed vec2/vec3/vec4: the arguments' components, in
// order, fill the vector, and a single scalar argument splats. Every width
// is fixed at compile time, so which argument component fills which result
// component is too, and a call short of components faults every lane.
func (c *compiler) construct(ex *callExpr, args func(*Frame, []uint8) []uint8, ks []class, ws []int, out int) exprFn {
	w, base := int(ex.fn-fnVec2)+2, ex.base
	src, n := ctorPlan(w, ws[:min(len(ws), 4)])
	if n < w {
		err := shortErrors(ex, w)[n]
		return func(f *Frame, live []uint8) (int, []uint8) {
			return out, f.faultAll(args(f, live), err)
		}
	}
	// When the first argument is read per lane and fills the first p
	// components, each lane copies it whole, and the rest are set after.
	p := 0
	for p < w && ks[0] == vecCell && src[p] == (ctorSource{0, uint8(p)}) {
		p++
	}
	return func(f *Frame, live []uint8) (int, []uint8) {
		live = args(f, live)
		var xs [4]vin
		for i := range min(len(ks), 4) {
			xs[i] = f.in(f.args[base+i], ks[i])
		}
		oc := f.plane(out)
		if p > 0 {
			copyLanes(oc, xs[0], live)
		}
		for i := p; i < w; i++ {
			copyComp(oc, i, xs[src[i].k], int(src[i].j), live)
		}
		return out, live
	}
}

// A ctorSource is where a constructor takes one result component from:
// component j of argument k.
type ctorSource struct{ k, j uint8 }

// ctorPlan returns, for a constructor of width w over its first arguments,
// of widths ws (no later one can supply a component: each supplies at
// least one), the source of each result component, and how many the
// arguments supply. A single scalar argument splats; a width-0 argument
// reads as a scalar.
func ctorPlan(w int, ws []int) (src [4]ctorSource, n int) {
	for k, aw := range ws {
		aw = max(aw, 1)
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

// shortErrors returns the errors of a constructor of width w given n < w
// components, indexed by n.
func shortErrors(ex *callExpr, w int) []error {
	short := make([]error, w)
	for n := range short {
		short[n] = &evalError{line: ex.line, msg: ex.name + ": " + fmt.Sprintf("needs %d components, got %d", w, n)}
	}
	return short
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

// widen returns components c of width w as a vec4: a vec3 is a point,
// with w=1, and the rest of c is kept.
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

// laneTexture returns the sampler in lane l of a cell whose references are
// refs, with mask m: nil where the lane holds none.
func laneTexture(m uint64, refs []ref, l uint8) *gpu.Texture {
	if m>>l&1 == 0 {
		return nil
	}
	return refs[l].S
}

// samplerRun returns the end of the run of lanes from live[i] on that hold
// one texture in sampler cell s, of class k, and that texture's sampling
// terms. A draw-uniform cell holds one texture for every lane, and a typed
// one none; a dynamic cell's lanes almost always share one, so its terms
// are resolved once per run rather than once per lane.
func (f *Frame) samplerRun(s int, k class, live []uint8, i int) (int, gpu.Sampler) {
	switch k {
	case uniCell:
		return len(live), laneTexture(f.u.refMask[s], f.u.refCell(s), 0).Sampler()
	case vecCell:
		return len(live), gpu.Sampler{}
	}
	m, refs := f.refMask[s], f.refCell(s)
	t := laneTexture(m, refs, live[i])
	j := i + 1
	for j < len(live) && laneTexture(m, refs, live[j]) == t {
		j++
	}
	return j, t.Sampler()
}
