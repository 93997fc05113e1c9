package minisl

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"cycada/internal/sim/gpu"
)

// Value is a runtime MiniSL value: a scalar/vector (width 1-4), a matrix,
// or a sampler reference. It is the form values take at the API — bound
// uniforms, vertex attributes, the zero values of declarations — while a
// Frame keeps each lane's value split across its planes.
type Value struct {
	Width   int // 1..4 for float/vecN; 0 for mat4 and samplers
	V       gpu.Vec4
	M       *gpu.Mat4
	Sampler *gpu.Texture
}

// Float makes a scalar value.
func Float(f float32) Value { return Value{Width: 1, V: gpu.Vec4{f, f, f, f}} }

// Vec makes a vector value of the given width from up to 4 components.
func Vec(width int, comps ...float32) Value {
	var v gpu.Vec4
	copy(v[:], comps)
	return Value{Width: width, V: v}
}

// Mat makes a matrix value.
func Mat(m gpu.Mat4) Value { return Value{M: &m} }

// Sampler makes a sampler value.
func Sampler(t *gpu.Texture) Value { return Value{Sampler: t} }

// Vec4 returns the value widened to 4 components (vec3 gets w=1 for
// positions/colors, matching GLSL's common promotion in this simulator).
func (v Value) Vec4() gpu.Vec4 {
	out := v.V
	if v.Width == 3 {
		out[3] = 1
	}
	return out
}

// Program is a linked vertex+fragment shader pair. Concurrent draws and the
// tiles of one draw each take a frame of their own, so they shade without
// sharing evaluation state.
type Program struct {
	VS, FS    *Shader
	VaryNames []string // sorted; defines the varying slot order
	// UniformNames lists both stages' uniforms, sorted, each name once: the
	// index order Binding.Set takes.
	UniformNames []string
	Tokens       int
	vs, fs       *stage
}

// LinkError is a GLES-style link failure.
type LinkError struct{ Msg string }

func (e *LinkError) Error() string { return "link error: " + e.Msg }

// Link validates that every varying the fragment shader reads is written by
// the vertex shader, assigns varying and uniform indices, and lays out each
// stage's frame.
func Link(vs, fs *Shader) (*Program, error) {
	if vs == nil || fs == nil {
		return nil, &LinkError{Msg: "missing shader"}
	}
	if vs.Kind != Vertex || fs.Kind != Fragment {
		return nil, &LinkError{Msg: "shader kinds mismatched"}
	}
	vsVary := make(map[string]string, len(vs.Varyings))
	for _, d := range vs.Varyings {
		vsVary[d.Name] = d.Type
	}
	for _, d := range fs.Varyings {
		typ, ok := vsVary[d.Name]
		if !ok {
			return nil, &LinkError{Msg: "varying " + d.Name + " not written by vertex shader"}
		}
		if typ != d.Type {
			return nil, &LinkError{Msg: "varying " + d.Name + " type mismatch"}
		}
	}
	p := &Program{VS: vs, FS: fs, Tokens: vs.Tokens + fs.Tokens}
	for n := range vsVary {
		p.VaryNames = append(p.VaryNames, n)
	}
	sort.Strings(p.VaryNames)
	for _, d := range append(slices.Clip(vs.Uniforms), fs.Uniforms...) {
		if !slices.Contains(p.UniformNames, d.Name) {
			p.UniformNames = append(p.UniformNames, d.Name)
		}
	}
	sort.Strings(p.UniformNames)
	p.vs, p.fs = newStage(p, vs), newStage(p, fs)
	return p, nil
}

// stage is one shader's frame layout within a linked program. An invocation
// starts by writing, in this order (a later write wins where names
// collide): the inputs (vertex attributes, or fragment varyings), the
// uniforms it may have overwritten, the vertex shader's zeroed varyings,
// and the stage output.
type stage struct {
	sh        *Shader
	lanes     int           // invocations one frame runs at once
	def       []uint64      // slot-indexed: all lanes for slots defined at entry, else none
	uniforms  []uniformSlot // this stage's uniforms, each name once
	uniformAt []int         // Program.UniformNames index -> uniforms index, or -1
	mutable   []int         // uniforms indexes rebound in the frame's lanes every invocation
	attribs   []input       // vertex: attribute declaration index -> slot
	varyIn    []input       // fragment: VaryNames index -> slot
	varyZero  []input       // vertex: varyings zeroed every invocation
	varyOut   []int         // vertex: slot of each VaryNames entry
	out       int           // slot of gl_Position or gl_FragColor
	// fragment: the st.uniforms and VaryNames indexes of the texel the
	// shader copies, or -1 (see texelCopy)
	copyUniform, copyVarying int
}

type uniformSlot struct {
	slot int
	zero Value // read while the binding leaves the uniform unset
}

type input struct {
	index int // into the attribute values or the varyings
	slot  int
	width int // fragment varyings: the vertex shader's declared width
	zero  Value
}

// allLanes is a defined-mask with every lane set.
const allLanes = ^uint64(0)

func newStage(p *Program, sh *Shader) *stage {
	// A vertex is transformed on its own; fragments are shaded a span at a
	// time, one lane per fragment.
	lanes := 1
	if sh.Kind == Fragment {
		lanes = gpu.SpanSize
	}
	st := &stage{sh: sh, lanes: lanes, def: make([]uint64, len(sh.written)), out: sh.slots[specialOut(sh.Kind)]}
	st.def[st.out] = allLanes
	if sh.Kind == Vertex {
		for i, d := range sh.Attributes {
			st.attribs = append(st.attribs, input{index: i, slot: sh.slots[d.Name], zero: zeroOf(d.Type)})
		}
		for _, d := range sh.Varyings {
			st.varyZero = append(st.varyZero, input{slot: sh.slots[d.Name], zero: zeroOf(d.Type)})
		}
		for _, n := range p.VaryNames {
			st.varyOut = append(st.varyOut, sh.slots[n])
		}
	} else {
		// A fragment shader reads the varyings it declares, as it declares
		// them; Link has checked that the vertex shader writes each one
		// with that type.
		for i, n := range p.VaryNames {
			if k := slices.IndexFunc(sh.Varyings, func(d Decl) bool { return d.Name == n }); k >= 0 {
				typ := sh.Varyings[k].Type
				st.varyIn = append(st.varyIn, input{index: i, slot: sh.slots[n], width: widthOf(typ), zero: zeroOf(typ)})
			}
		}
	}
	for _, ins := range [][]input{st.attribs, st.varyIn, st.varyZero} {
		for _, in := range ins {
			st.def[in.slot] = allLanes
		}
	}
	st.uniformAt = make([]int, len(p.UniformNames))
	for i := range st.uniformAt {
		st.uniformAt[i] = -1
	}
	for _, d := range sh.Uniforms {
		i := sort.SearchStrings(p.UniformNames, d.Name)
		u := uniformSlot{slot: sh.slots[d.Name], zero: zeroOf(d.Type)}
		if k := st.uniformAt[i]; k >= 0 {
			st.uniforms[k] = u // a repeated declaration's type wins
			continue
		}
		st.uniformAt[i] = len(st.uniforms)
		st.uniforms = append(st.uniforms, u)
		st.def[u.slot] = allLanes
	}
	// A uniform the shader may overwrite, or that shares its slot with
	// another entry value, is no draw-uniform cell (see typeSlots).
	for k, u := range st.uniforms {
		if sh.class[u.slot] != uniCell {
			st.mutable = append(st.mutable, k)
		}
	}
	st.copyUniform, st.copyVarying = st.texelCopy()
	return st
}

// texelCopy returns the indexes in st.uniforms and in VaryNames of s and v
// when st is a fragment stage whose body is the single statement
// gl_FragColor = texture2D(s, v), with s a draw-uniform sampler and v a
// varying the shader never writes, which is then typed; otherwise -1, -1.
// Such a shader cannot fault, and shades each fragment with the texel
// nearest its v: texture2D's unorm8 channels, which gpu.Pack turns back
// into the texel's word.
func (st *stage) texelCopy() (int, int) {
	sh := st.sh
	if sh.Kind != Fragment || len(sh.body) != 1 {
		return -1, -1
	}
	as, ok := sh.body[0].(*assignStmt)
	if !ok || as.slot != st.out || as.swizzle != "" {
		return -1, -1
	}
	call, ok := as.val.(*callExpr)
	if !ok || call.fn != fnTexture2D || len(call.args) != 2 {
		return -1, -1
	}
	s, ok := call.args[0].(*varExpr)
	v, ok2 := call.args[1].(*varExpr)
	if !ok || !ok2 || sh.class[s.slot] != uniCell || sh.class[v.slot] != vecCell || v.slot == st.out {
		return -1, -1
	}
	// Their classes make s only a uniform, and v, not gl_FragColor, a varying.
	k := slices.IndexFunc(st.uniforms, func(u uniformSlot) bool { return u.slot == s.slot })
	i := slices.IndexFunc(st.varyIn, func(in input) bool { return in.slot == v.slot })
	return k, st.varyIn[i].index
}

// Binding holds one draw's uniform values, in each stage's slot order. Set
// every uniform before taking frames; the frames read the binding until
// they are released.
type Binding struct {
	p      *Program
	vs, fs []Value
}

// Bind returns a binding in which every uniform is its declared type's
// zero value.
func (p *Program) Bind() *Binding {
	b := &Binding{p: p, vs: make([]Value, len(p.vs.uniforms)), fs: make([]Value, len(p.fs.uniforms))}
	for k, u := range p.vs.uniforms {
		b.vs[k] = u.zero
	}
	for k, u := range p.fs.uniforms {
		b.fs[k] = u.zero
	}
	return b
}

// Set binds uniform i, an index into the program's UniformNames, in every
// stage that declares it.
func (b *Binding) Set(i int, v Value) {
	if k := b.p.vs.uniformAt[i]; k >= 0 {
		b.vs[k] = v
	}
	if k := b.p.fs.uniformAt[i]; k >= 0 {
		b.fs[k] = v
	}
}

// Frame takes a frame for the given stage, loaded with b's uniforms in
// every lane. Release it when the invocations are done.
func (b *Binding) Frame(k Kind) *Frame {
	st, uni := b.p.fs, b.fs
	if k == Vertex {
		st, uni = b.p.vs, b.vs
	}
	f := takeFrame()
	if f.st != st {
		f.layout(st)
	}
	f.uni = uni
	for k, u := range st.uniforms {
		f.u.fill(u.slot, 1, uni[k])
	}
	return f
}

// Acquire implements gpu.FragShader: every tile shades through its own
// fragment frame.
func (b *Binding) Acquire() gpu.Fragment { return b.Frame(Fragment) }

// Release implements gpu.FragShader.
func (b *Binding) Release(f gpu.Fragment) { f.(*Frame).Release() }

// TexelCopy implements gpu.TexelCopier: the fragment shader copies the
// texel at v from s (see stage.texelCopy), bound to a texture with an image.
func (b *Binding) TexelCopy() (*gpu.Texture, int, bool) {
	fs := b.p.fs
	if fs.copyUniform < 0 {
		return nil, 0, false
	}
	t := b.fs[fs.copyUniform].Sampler
	return t, fs.copyVarying, t != nil && t.Img != nil
}

// Frame is one stage's evaluation state for up to its stage's lane count of
// invocations at once: one lane per invocation (a single lane for vertices,
// gpu.SpanSize for fragments). Every slot, constant and temporary of the
// compiled shader is a cell, kept as its class says (see typeSlots). A
// typed cell keeps its components per lane and one width for all of them.
// A dynamic cell keeps its Value in lanes across three planes, cell-major:
// its components, its width, and its reference — the matrix or sampler it
// points to — with a mask per cell of the lanes that hold one; reading a
// lane's reference first tests its mask bit. A draw-uniform cell is kept
// in the same planes of the uniform frame u, whose single lane every lane
// reads: the constants, the uniforms the shader never writes, and the
// nodes over only those. The frame also holds, per slot, the lanes in which
// it is defined, and per lane the steps left before the step limit, the
// texture fetches, the runtime error (with a mask of the lanes that have
// one) and the colour word Shade hands back. Every run resets what an
// invocation can observe in the lanes it uses — the defined bits, the
// counters, the errors, the inputs, the outputs and any uniform the shader
// overwrites — so one frame runs a tile's spans, or a draw's vertices,
// without allocating. What no invocation can change is set once: the
// constants and a typed slot's width at layout, the uniforms when the
// binding hands out the frame, the width and reference mask of a varying
// the shader never assigns in Inputs, and a shader that cannot reach the
// step limit keeps no step counts. A Frame is not safe for concurrent use.
type Frame struct {
	st      *stage
	lanes   int
	comp    []gpu.Vec4 // cell c's lane l at c*lanes+l: components
	width   []uint8    // likewise: Value.Width, of a dynamic cell
	refs    []ref      // likewise: the reference, where refMask has the lane
	refMask []uint64   // cell-indexed: the lanes holding a reference
	cw      []uint8    // cell-indexed: a typed cell's width in every lane
	u       *Frame     // the uniform frame: one lane, for draw-uniform cells
	def     []uint64   // slot-indexed: the lanes in which it is defined
	uni     []Value    // the binding's values for st.uniforms
	args    []int      // call-argument cells
	steps   []int32
	charged int32 // step calls this run: no lane has spent more steps
	fetches []int
	errs    []error
	faulted uint64   // the lanes whose errs entry is set
	col     []uint32 // per lane: the colour word Shade returns
	live    []uint8  // the lane list a run starts from
	// Scratch lane lists for byWidth.
	todo, group []uint8
	// The fragment inputs of the last Inputs call: the primitives' varying
	// count, and the indexes and component planes of those the shader reads.
	nvary    int
	inIndex  []int
	inPlanes [][]gpu.Vec4
}

// ref is the part of a Value that points: its matrix or its sampler.
type ref struct {
	M *gpu.Mat4
	S *gpu.Texture
}

// frames is a free list of frames shared by every stage of every program. A
// frame keeps the storage of the largest stage it has served, so once the
// list is warm, taking a frame allocates nothing, even for a program linked
// moments ago. Unlike a sync.Pool the list survives garbage collection — a
// replay session collects several times — and it never holds more frames
// than were once in use at the same time.
var frames struct {
	sync.Mutex
	free []*Frame
}

func takeFrame() *Frame {
	frames.Lock()
	defer frames.Unlock()
	n := len(frames.free)
	if n == 0 {
		return new(Frame)
	}
	f := frames.free[n-1]
	frames.free = frames.free[:n-1]
	return f
}

// layout lays f and its uniform frame out for st, reusing their storage
// where it is large enough, loads the shader's constants into the uniform
// frame, and gives each typed slot its width.
func (f *Frame) layout(st *stage) {
	f.size(st, st.lanes)
	if f.u == nil {
		f.u = new(Frame)
	}
	f.u.size(st, 1)
	f.u.live[0] = 0
	sh := st.sh
	for k, v := range sh.consts {
		f.u.fill(len(sh.written)+k, 1, v)
	}
	copy(f.cw, sh.widths)
}

// size sizes f's storage for st's cells in n lanes.
func (f *Frame) size(st *stage, n int) {
	sh := st.sh
	cells := len(sh.written) + len(sh.consts) + sh.temps
	f.st, f.lanes = st, n
	f.comp = slices.Grow(f.comp[:0], cells*n)[:cells*n]
	f.width = slices.Grow(f.width[:0], cells*n)[:cells*n]
	f.refs = slices.Grow(f.refs[:0], cells*n)[:cells*n]
	f.refMask = slices.Grow(f.refMask[:0], cells)[:cells]
	clear(f.refMask)
	f.cw = slices.Grow(f.cw[:0], cells)[:cells]
	f.def = slices.Grow(f.def[:0], len(sh.written))[:len(sh.written)]
	f.args = slices.Grow(f.args[:0], sh.scratch)[:sh.scratch]
	f.steps = slices.Grow(f.steps[:0], n)[:n]
	f.fetches = slices.Grow(f.fetches[:0], n)[:n]
	f.errs = slices.Grow(f.errs[:0], n)[:n]
	clear(f.errs)
	f.faulted = 0
	f.col = slices.Grow(f.col[:0], n)[:n]
	f.live = slices.Grow(f.live[:0], n)[:n]
	f.todo = slices.Grow(f.todo[:0], n)
	f.group = slices.Grow(f.group[:0], n)
}

// Release returns f to the free list. The whole reference plane, and the
// uniform frame's, is cleared, so an idle frame keeps no matrix or texture
// alive: not a uniform's, a local's or a temporary's.
func (f *Frame) Release() {
	for _, g := range []*Frame{f, f.u} {
		clear(g.refs)
		clear(g.refMask)
	}
	f.uni = nil
	frames.Lock()
	frames.free = append(frames.free, f)
	frames.Unlock()
}

// planes returns cell c's components and widths in every lane.
func (f *Frame) planes(c int) ([]gpu.Vec4, []uint8) {
	lo, hi := c*f.lanes, (c+1)*f.lanes
	return f.comp[lo:hi], f.width[lo:hi]
}

// refCell returns cell c's references in every lane.
func (f *Frame) refCell(c int) []ref { return f.refs[c*f.lanes : (c+1)*f.lanes] }

// lanesBelow is the mask of lanes [0, n).
func lanesBelow(n int) uint64 { return 1<<n - 1 }

// fill stores v in lanes [0, n) of cell c.
func (f *Frame) fill(c, n int, v Value) {
	comp, width := f.planes(c)
	for l := range n {
		comp[l], width[l] = v.V, uint8(v.Width)
	}
	if v.M == nil && v.Sampler == nil {
		f.refMask[c] &^= lanesBelow(n)
		return
	}
	refs := f.refCell(c)
	for l := range n {
		refs[l] = ref{v.M, v.Sampler}
	}
	f.refMask[c] |= lanesBelow(n)
}

type evalError struct {
	line int
	msg  string
}

func (e *evalError) Error() string { return fmt.Sprintf("runtime: line %d: %s", e.line, e.msg) }

const defaultMaxSteps = 100000

// faultWord is what a fragment whose shader faults at run time shades:
// opaque magenta, the word gpu.Pack makes of (1, 0, 1, 1).
const faultWord = 0xffff00ff

// laneIDs lists every lane of a span in order: the lane list a run starts
// from.
var laneIDs = func() (ids [gpu.SpanSize]uint8) {
	for l := range ids {
		ids[l] = uint8(l)
	}
	return ids
}()

// restoreUniforms rebinds, in lanes [0, n), the uniforms an invocation may
// have overwritten.
func (f *Frame) restoreUniforms(n int) {
	for _, k := range f.st.mutable {
		f.fill(f.st.uniforms[k].slot, n, f.uni[k])
	}
}

// run executes the shader in lanes [0, n), whose inputs are loaded: it
// resets their defined bits, counters and errors, then runs the compiled
// body over them. Each lane's error is left in f.errs, and f.faulted marks
// the lanes that have one.
func (f *Frame) run(n int) {
	sh := f.st.sh
	copy(f.def, f.st.def)
	for m := f.faulted; m != 0; m &= m - 1 {
		f.errs[bits.TrailingZeros64(m)] = nil
	}
	f.faulted = 0
	live := f.live[:n]
	copy(live, laneIDs[:n])
	if sh.counted {
		for l := range live {
			f.steps[l] = defaultMaxSteps
		}
		f.charged = 0
	}
	clear(f.fetches[:n])
	sh.run(f, live)
}

// RunVertex executes the vertex shader for one vertex. attribs holds the
// attribute values in declaration order; a missing one reads as zero. The
// varyings are written to vary, which needs room for len(VaryNames), in
// VaryNames order. It returns gl_Position.
func (f *Frame) RunVertex(attribs []Value, vary []gpu.Vec4) (gpu.Vec4, error) {
	st, L := f.st, f.lanes
	for _, in := range st.attribs {
		if in.index < len(attribs) {
			f.fill(in.slot, 1, attribs[in.index])
		} else {
			f.fill(in.slot, 1, in.zero)
		}
	}
	f.restoreUniforms(1)
	for _, in := range st.varyZero {
		f.fill(in.slot, 1, in.zero)
	}
	f.fill(st.out, 1, Vec(4))
	f.run(1)
	if err := f.errs[0]; err != nil {
		return gpu.Vec4{}, err
	}
	for i, s := range st.varyOut {
		vary[i] = f.comp[s*L]
	}
	return f.comp[st.out*L], nil
}

// Inputs implements gpu.Fragment. The varyings the fragment shader reads
// are its varying slots, and their planes are the slots' component planes,
// which the rasterizer fills in place. A varying the primitives do not
// carry (an index at or past nvary) reads as its type's zero. Every lane of
// a varying the shader never assigns gets its width, or its zero, here,
// once for all the spans until the next call; load rewrites the others
// before each span.
func (f *Frame) Inputs(nvary int) ([]int, [][]gpu.Vec4) {
	f.nvary = nvary
	f.inIndex, f.inPlanes = f.inIndex[:0], f.inPlanes[:0]
	for _, in := range f.st.varyIn {
		if in.index < nvary {
			comp, _ := f.planes(in.slot)
			f.inIndex = append(f.inIndex, in.index)
			f.inPlanes = append(f.inPlanes, comp)
		}
		if !f.st.sh.written[in.slot] {
			f.loadVarying(in, f.lanes)
		}
	}
	return f.inIndex, f.inPlanes
}

// loadVarying readies lanes [0, n) of a fragment input whose components
// the rasterizer writes: its width, and no reference; or, for a varying
// the primitives lack, its zero.
func (f *Frame) loadVarying(in input, n int) {
	if in.index >= f.nvary {
		f.fill(in.slot, n, in.zero)
		return
	}
	_, width := f.planes(in.slot)
	for l := range n {
		width[l] = uint8(in.width)
	}
	f.refMask[in.slot] &^= lanesBelow(n)
}

// Shade implements gpu.Fragment: each of lanes [0, n) runs the shader on
// the inputs the rasterizer wrote, and the colours returned are the
// gl_FragColor plane's, packed (gpu.Pack). A lane whose shader faults at
// run time shades magenta and counts no fetches; its error stays in f.errs.
func (f *Frame) Shade(n int) ([]uint32, []int) {
	f.load(n)
	f.run(n)
	col := f.col[:n]
	out, _ := f.planes(f.st.out)
	gpu.Pack(col, out[:n])
	for m := f.faulted; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		col[l], f.fetches[l] = faultWord, 0
	}
	return col, f.fetches[:n]
}

// load readies lanes [0, n), whose varying components are written, to run:
// the widths or zeros of the varyings the shader assigns (Inputs did the
// others), the uniforms an invocation may have overwritten, and
// gl_FragColor.
func (f *Frame) load(n int) {
	st := f.st
	for _, in := range st.varyIn {
		if st.sh.written[in.slot] {
			f.loadVarying(in, n)
		}
	}
	f.restoreUniforms(n)
	if st.sh.class[st.out] == vecCell {
		out, _ := f.planes(st.out)
		clear(out[:n])
		return
	}
	f.fill(st.out, n, Value{Width: 4})
}

func widthOf(typ string) int {
	switch typ {
	case "float":
		return 1
	case "vec2":
		return 2
	case "vec3":
		return 3
	default:
		return 4
	}
}

func zeroOf(typ string) Value {
	switch typ {
	case "mat4":
		return Mat(gpu.Identity())
	case "sampler2D":
		return Value{}
	default:
		return Value{Width: widthOf(typ)}
	}
}

// setSplat writes x to every component of d.
func setSplat(d *gpu.Vec4, x float32) { d[0], d[1], d[2], d[3] = x, x, x, x }

// splatMask is the component index mask for reading a value of width w as
// one of width to: x[i&m] is x[0] when a scalar splats, else x[i].
func splatMask(w, to uint8) int {
	if w == 1 && to > 1 {
		return 0
	}
	return 3
}

func swizzleIndex(c rune) uint8 {
	switch c {
	case 'x', 'r':
		return 0
	case 'y', 'g':
		return 1
	case 'z', 'b':
		return 2
	default:
		return 3
	}
}

func minf(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}
