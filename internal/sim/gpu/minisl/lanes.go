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
// cell (typing.go), and each node is built for its operands' classes. A
// typed node reads each operand's width once per span, fixes its splat
// masks, and runs its lanes without a width or reference in sight. A node
// over draw-uniform operands only runs once per span, in the one lane of
// the frame's uniform frame, and a typed node reads its result there with
// stride 0. Only a node over a dynamic operand reads a width, and tests a
// reference, in every lane.

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
	sh   *Shader
	t    *typer
	copy *assignStmt // the statement compiled to a texel copy, if any
	uni  bool        // compiling a draw-uniform node, which runs in the uniform frame
}

// compileBody types sh's slots and compiles its parsed body. Every
// statement run charges a step (see step), but a shader without a for loop
// runs each of its statements at most once: when it has fewer than
// defaultMaxSteps, no lane can run out, and it is compiled to charge none. A
// fragment shader whose last statement is gl_FragColor = texture2D(s, uv),
// and which names gl_FragColor nowhere else, ends in a texel copy (see
// texelCopy).
func compileBody(sh *Shader) {
	sh.counted = maxSteps(sh.body) >= defaultMaxSteps
	c := &compiler{sh: sh, t: typeSlots(sh)}
	sh.class, sh.widths = c.t.class, c.t.width
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
	args := c.operands(call.args, 0, base, c.samplerArgs(call))
	sk := c.t.kind(call.args[0]).class
	return func(f *Frame, live []uint8) []uint8 {
		if counted {
			live = f.step(live)
		}
		live = args(f, live)
		s, uv := f.args[base], f.args[base+1]
		uc, _ := f.planes(uv)
		for i := 0; i < len(live); {
			j, smp := f.samplerRun(s, sk, live, i)
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
		case st == c.copy:
			return c.texelCopy(st.val.(*callExpr))
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

// declVec compiles a declaration of a typed slot: the value is stored as
// the declared width holds it (see store).
func (c *compiler) declVec(st *declStmt) stmtFn {
	slot, w, counted := st.slot, uint8(st.width), c.sh.counted
	if st.init == nil {
		return func(f *Frame, live []uint8) []uint8 {
			if counted {
				live = f.step(live)
			}
			dc, _ := f.planes(slot)
			var mask uint64
			for _, l := range live {
				dc[l] = gpu.Vec4{}
				mask |= 1 << l
			}
			f.def[slot] |= mask
			return live
		}
	}
	init, k := c.expr(st.init, 0), c.t.kind(st.init).class
	return func(f *Frame, live []uint8) []uint8 {
		if counted {
			live = f.step(live)
		}
		var v int
		v, live = init(f, live)
		f.def[slot] |= f.store(slot, w, f.in(v, k), live)
		return live
	}
}

// assignVec compiles an assignment to a whole typed slot, which holds no
// matrix to fault on: the value is stored as the slot's width holds it.
func (c *compiler) assignVec(st *assignStmt) stmtFn {
	slot, w, counted := st.slot, c.sh.widths[st.slot], c.sh.counted
	val, k := c.expr(st.val, 0), c.t.kind(st.val).class
	errUndeclared := &evalError{line: st.line, msg: "assignment to undeclared " + st.name}
	return func(f *Frame, live []uint8) []uint8 {
		if counted {
			live = f.step(live)
		}
		var v int
		v, live = val(f, live)
		live = f.defined(live, f.def[slot], errUndeclared)
		f.store(slot, w, f.in(v, k), live)
		return live
	}
}

// store writes x to typed slot s, of width w, in the lanes in live, as
// coerce does: a scalar splats, any other value is copied. It returns the
// lanes' mask.
func (f *Frame) store(s int, w uint8, x vin, live []uint8) uint64 {
	dc, _ := f.planes(s)
	var mask uint64
	if x.w == 1 && w > 1 {
		for _, l := range live {
			setSplat(&dc[l], x.at(l)[0])
			mask |= 1 << l
		}
		return mask
	}
	for _, l := range live {
		dc[l] = *x.at(l)
		mask |= 1 << l
	}
	return mask
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
	slot, zero, width, counted := st.slot, st.zero, uint8(st.width), c.sh.counted
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
// reference in every lane. A typed value gets its cell's width in each
// lane and no reference; a draw-uniform one is spread over the lanes, in
// the same cell of the frame (see spread).
func (c *compiler) operand(x expr, reg int) exprFn {
	fn := c.expr(x, reg)
	if c.uni {
		return fn
	}
	switch c.t.kind(x).class {
	case vecCell:
		return func(f *Frame, live []uint8) (int, []uint8) {
			v, live := fn(f, live)
			_, dw := f.planes(v)
			w := f.cw[v]
			for _, l := range live {
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

// samplerArgs compiles texture2D's arguments: the sampler as it is, and
// the coordinates in every lane, spread if they are draw-uniform.
func (c *compiler) samplerArgs(call *callExpr) func(expr, int) exprFn {
	return func(x expr, reg int) exprFn {
		if x == call.args[1] && c.t.kind(x).class == uniCell {
			return spread(c.expr(x, reg))
		}
		return c.expr(x, reg)
	}
}

// vin is how a typed node reads an operand: its components in every lane,
// or, for a draw-uniform value, in one lane read with stride 0 (lane mask
// m = 0); and its width, the same in every lane.
type vin struct {
	c []gpu.Vec4
	m uint8
	w uint8
}

// at returns the operand's components in lane l.
func (x vin) at(l uint8) *gpu.Vec4 { return &x.c[l&x.m] }

// in returns how a typed node reads cell v, of class k. A dynamic cell's
// width is not kept per cell; only nodes that read no width take one.
func (f *Frame) in(v int, k class) vin {
	if k == uniCell {
		u := f.u
		return vin{u.comp[v : v+1], 0, u.width[v]}
	}
	lo := v * f.lanes
	return vin{f.comp[lo : lo+f.lanes], 0xff, f.cw[v]}
}

// uniMatrix returns the matrix a draw-uniform operand holds, or nil.
func (f *Frame) uniMatrix(v int, k class) *gpu.Mat4 {
	if k != uniCell || f.u.refMask[v]&1 == 0 {
		return nil
	}
	return f.u.refs[v].M
}

// typed compiles a node whose result is typed: one width in every lane,
// and no reference.
func (c *compiler) typed(e expr, reg int) exprFn {
	switch ex := e.(type) {
	case *swizzleExpr:
		base, out, idx := c.expr(ex.base, reg+1), c.temp(reg), ex.idx[:ex.n]
		w := uint8(len(idx))
		return func(f *Frame, live []uint8) (int, []uint8) {
			var b int
			b, live = base(f, live)
			bc, _ := f.planes(b)
			oc, _ := f.planes(out)
			for _, l := range live {
				x, d := &bc[l], &oc[l]
				*d = gpu.Vec4{}
				for i, k := range idx {
					d[i] = x[k]
				}
			}
			f.cw[out] = w
			return out, live
		}
	case *unaryExpr:
		x, out, k := c.expr(ex.x, reg+1), c.temp(reg), c.t.kind(ex.x).class
		if ex.not {
			return func(f *Frame, live []uint8) (int, []uint8) {
				var v int
				v, live = x(f, live)
				a := f.in(v, k)
				oc, _ := f.planes(out)
				for _, l := range live {
					setSplat(&oc[l], truth(a.at(l)[0] == 0))
				}
				f.cw[out] = 1
				return out, live
			}
		}
		return func(f *Frame, live []uint8) (int, []uint8) {
			var v int
			v, live = x(f, live)
			a := f.in(v, k)
			oc, _ := f.planes(out)
			for _, l := range live {
				s, d := a.at(l), &oc[l]
				for i := range d {
					d[i] = s[i] * -1
				}
			}
			f.cw[out] = a.w
			return out, live
		}
	case *binExpr:
		return c.binaryVec(ex, reg)
	case *callExpr:
		return c.callVec(ex, reg)
	}
	panic(fmt.Sprintf("minisl: no typed node for %T", e))
}

// binaryVec compiles a typed comparison or arithmetic node. The operands
// are typed or draw-uniform; a draw-uniform one may hold a matrix, which
// turns the node, for the whole span, into mat*vec or a fault.
func (c *compiler) binaryVec(ex *binExpr, reg int) exprFn {
	lhs, rhs, out, op := c.expr(ex.l, reg+1), c.expr(ex.r, reg+2), c.temp(reg), ex.op
	lk, rk := c.t.kind(ex.l).class, c.t.kind(ex.r).class
	if op >= opLT {
		return func(f *Frame, live []uint8) (int, []uint8) {
			var a, b int
			a, live = lhs(f, live)
			b, live = rhs(f, live)
			x, y := f.in(a, lk), f.in(b, rk)
			oc, _ := f.planes(out)
			for _, l := range live {
				setSplat(&oc[l], truth(compare(op, x.at(l)[0], y.at(l)[0])))
			}
			f.cw[out] = 1
			return out, live
		}
	}
	errMatOp := &evalError{line: ex.line, msg: "matrices support only *"}
	errVecMat := &evalError{line: ex.line, msg: "vec*mat not supported; use mat*vec"}
	return func(f *Frame, live []uint8) (int, []uint8) {
		var a, b int
		a, live = lhs(f, live)
		b, live = rhs(f, live)
		x, y := f.in(a, lk), f.in(b, rk)
		oc, _ := f.planes(out)
		if mx, my := f.uniMatrix(a, lk), f.uniMatrix(b, rk); mx != nil || my != nil {
			switch {
			case op != opMul:
				return out, f.faultAll(live, errMatOp)
			case my != nil:
				return out, f.faultAll(live, errVecMat)
			}
			for _, l := range live {
				oc[l] = mx.MulVec(widen(*y.at(l), y.w))
			}
			f.cw[out] = 4
			return out, live
		}
		w := max(x.w, y.w)
		f.cw[out] = w
		arithVec(op, live, oc, x, y, splatMask(x.w, w), splatMask(y.w, w))
		return out, live
	}
}

// arithVec writes x op y to o in the lanes listed in live, reading x's
// components through mask mx and y's through my (see splatMask). A
// draw-uniform operand is splatted once, and a lane's scalar once per lane,
// so each lane computes on whole vectors.
func arithVec(op binOp, live []uint8, o []gpu.Vec4, x, y vin, mx, my int) {
	xc, yc := x.c, y.c
	switch {
	case x.m == 0: // and y is read per lane
		u := splatted(&xc[0], mx)
		if my == 0 {
			for _, l := range live {
				b := splatted(&yc[l], 0)
				op.apply(&o[l], &u, &b)
			}
			return
		}
		for _, l := range live {
			op.apply(&o[l], &u, &yc[l])
		}
	case y.m == 0: // and x is read per lane
		u := splatted(&yc[0], my)
		if mx == 0 {
			for _, l := range live {
				a := splatted(&xc[l], 0)
				op.apply(&o[l], &a, &u)
			}
			return
		}
		for _, l := range live {
			op.apply(&o[l], &xc[l], &u)
		}
	case mx == 3 && my == 3:
		for _, l := range live {
			op.apply(&o[l], &xc[l], &yc[l])
		}
	default:
		for _, l := range live {
			a, b := splatted(&xc[l], mx), splatted(&yc[l], my)
			op.apply(&o[l], &a, &b)
		}
	}
}

// splatted returns x read through component mask m (see splatMask).
func splatted(x *gpu.Vec4, m int) gpu.Vec4 {
	if m == 0 {
		return gpu.Vec4{x[0], x[0], x[0], x[0]}
	}
	return *x
}

// apply writes a op b to d, component by component. Division by a zero
// component gives zero.
func (op binOp) apply(d, a, b *gpu.Vec4) {
	switch op {
	case opAdd:
		d[0], d[1], d[2], d[3] = a[0]+b[0], a[1]+b[1], a[2]+b[2], a[3]+b[3]
	case opSub:
		d[0], d[1], d[2], d[3] = a[0]-b[0], a[1]-b[1], a[2]-b[2], a[3]-b[3]
	case opMul:
		d[0], d[1], d[2], d[3] = a[0]*b[0], a[1]*b[1], a[2]*b[2], a[3]*b[3]
	default:
		for i := range d {
			d[i] = 0
			if b[i] != 0 {
				d[i] = a[i] / b[i]
			}
		}
	}
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
	for i, a := range ex.args {
		ks[i] = c.t.kind(a).class
	}
	if ex.fn == fnTexture2D {
		args := c.operands(ex.args, reg, base, c.samplerArgs(ex))
		return func(f *Frame, live []uint8) (int, []uint8) {
			live = args(f, live)
			s, uv := f.args[base], f.args[base+1]
			uc, _ := f.planes(uv)
			oc, _ := f.planes(out)
			for i := 0; i < len(live); {
				j, smp := f.samplerRun(s, ks[0], live, i)
				smp.Sample(oc, uc, live[i:j])
				i = j
			}
			for _, l := range live {
				f.fetches[l]++
			}
			f.cw[out] = 4
			return out, live
		}
	}
	args := c.operands(ex.args, reg, base, c.expr)
	if ex.fn <= fnVec4 {
		return c.construct(ex, args, ks, out)
	}
	kern := kernel(ex.fn)
	return func(f *Frame, live []uint8) (int, []uint8) {
		live = args(f, live)
		var xs [3]vin
		for i, a := range f.args[base : base+nargs] {
			xs[i] = f.in(a, ks[i])
		}
		oc, _ := f.planes(out)
		f.cw[out] = kern(oc, xs, live)
		return out, live
	}
}

// A kernelFn computes a builtin that cannot fault once its arguments xs
// have evaluated, in the lanes listed in live, into o, and returns the
// result's width. Typed nodes run it once per span, dynamic ones once per
// group of lanes whose arguments have the same widths.
type kernelFn func(o []gpu.Vec4, xs [3]vin, live []uint8) uint8

// kernel returns the kernel of fn, a builtin of fixed arity other than
// texture2D.
func kernel(fn builtin) kernelFn {
	switch fn {
	case fnClamp:
		return func(o []gpu.Vec4, xs [3]vin, live []uint8) uint8 {
			x, lo, hi := xs[0], xs[1], xs[2]
			if lo.m|hi.m == 0 {
				lo, hi := lo.c[0][0], hi.c[0][0]
				for _, l := range live {
					a, d := x.at(l), &o[l]
					for i := range d {
						d[i] = minf(maxf(a[i], lo), hi)
					}
				}
				return x.w
			}
			for _, l := range live {
				a, d, lo, hi := x.at(l), &o[l], lo.at(l)[0], hi.at(l)[0]
				for i := range d {
					d[i] = minf(maxf(a[i], lo), hi)
				}
			}
			return x.w
		}
	case fnMin, fnMax, fnPow:
		return func(o []gpu.Vec4, xs [3]vin, live []uint8) uint8 {
			x, y := xs[0], xs[1]
			mb := splatMask(y.w, x.w)
			for _, l := range live {
				a, b, d := x.at(l), y.at(l), &o[l]
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
			}
			return x.w
		}
	case fnDot:
		return func(o []gpu.Vec4, xs [3]vin, live []uint8) uint8 {
			x, y := xs[0], xs[1]
			for _, l := range live {
				a, b := x.at(l), y.at(l)
				var s float32
				for i := range x.w {
					s += float32(a[i] * b[i])
				}
				setSplat(&o[l], s)
			}
			return 1
		}
	case fnMix:
		return func(o []gpu.Vec4, xs [3]vin, live []uint8) uint8 {
			x, y, z := xs[0], xs[1], xs[2]
			mb := splatMask(y.w, x.w)
			for _, l := range live {
				a, b, d, t := x.at(l), y.at(l), &o[l], z.at(l)[0]
				for i := range d {
					d[i] = float32(a[i]*(1-t)) + float32(b[i&mb]*t)
				}
			}
			return x.w
		}
	case fnFract, fnFloor, fnAbs, fnSin, fnCos:
		return func(o []gpu.Vec4, xs [3]vin, live []uint8) uint8 {
			x := xs[0]
			for _, l := range live {
				a, d := x.at(l), &o[l]
				for i := range d {
					d[i] = unaryMath(fn, a[i])
				}
			}
			return x.w
		}
	default: // fnLength, fnNormalize
		normalize := fn == fnNormalize
		return func(o []gpu.Vec4, xs [3]vin, live []uint8) uint8 {
			x := xs[0]
			for _, l := range live {
				a, d := x.at(l), &o[l]
				n := length(a, x.w)
				switch {
				case !normalize:
					setSplat(d, n)
				case n == 0:
					*d = *a
				default:
					k := 1 / n
					for i := range d {
						d[i] = a[i] * k
					}
				}
			}
			if normalize {
				return x.w
			}
			return 1
		}
	}
}

// construct compiles a typed vec2/vec3/vec4: the arguments' components, in
// order, fill the vector, and a single scalar argument splats. Every width
// is fixed for the span, so which argument component fills which result
// component is decided once, and a call short of components faults every
// lane.
func (c *compiler) construct(ex *callExpr, args func(*Frame, []uint8) []uint8, ks []class, out int) exprFn {
	w, base, nargs := int(ex.fn-fnVec2)+2, ex.base, len(ex.args)
	short := shortErrors(ex, w)
	return func(f *Frame, live []uint8) (int, []uint8) {
		live = args(f, live)
		var xs [4]vin
		av := f.args[base : base+nargs]
		for i, a := range av[:min(nargs, 4)] {
			xs[i] = f.in(a, ks[i])
		}
		src, n := ctorPlan(w, xs[:min(nargs, 4)], nargs == 1)
		if n < w {
			return out, f.faultAll(live, short[n])
		}
		oc, _ := f.planes(out)
		ctorLanes(oc, w, &src, live)
		f.cw[out] = uint8(w)
		return out, live
	}
}

// A ctorSource is where a constructor takes one result component from:
// component j of an argument read through lane mask m (see vin).
type ctorSource struct {
	c    []gpu.Vec4
	m, j uint8
}

// ctorPlan returns, for a constructor of width w over its first arguments
// xs (no later one can supply a component: each supplies at least one),
// the source of each result component, and how many the arguments supply.
// A single scalar argument splats; a width-0 argument reads as a scalar.
func ctorPlan(w int, xs []vin, single bool) (src [4]ctorSource, n int) {
	for _, x := range xs {
		aw := int(max(x.w, 1))
		if single && aw == 1 {
			for n < w {
				src[n] = ctorSource{x.c, x.m, 0}
				n++
			}
			break
		}
		for j := 0; j < aw && n < w; j++ {
			src[n] = ctorSource{x.c, x.m, uint8(j)}
			n++
		}
	}
	return src, n
}

// ctorLanes writes, in the lanes listed in live, the vector of width w that
// src describes, with zero components beyond w.
func ctorLanes(o []gpu.Vec4, w int, src *[4]ctorSource, live []uint8) {
	// When the first argument read per lane fills components [0, k) and
	// every later component is draw-uniform, a lane copies that argument
	// whole and sets the rest from a template.
	var tmpl gpu.Vec4
	k := 0
	for k < w && src[k].m != 0 && src[k].j == uint8(k) && &src[k].c[0] == &src[0].c[0] {
		k++
	}
	for i := k; i < w; i++ {
		if src[i].m != 0 {
			k = -1
			break
		}
		tmpl[i] = src[i].c[0][src[i].j]
	}
	if k > 0 {
		a := src[0].c
		for _, l := range live {
			d := &o[l]
			*d = a[l]
			for i := k; i < 4; i++ {
				d[i] = tmpl[i]
			}
		}
		return
	}
	for _, l := range live {
		d := &o[l]
		*d = gpu.Vec4{}
		for i := range w {
			s := &src[i]
			d[i] = s.c[l&s.m][s.j]
		}
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
func length(a *gpu.Vec4, w uint8) float32 {
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
