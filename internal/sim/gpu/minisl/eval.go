package minisl

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"cycada/internal/sim/gpu"
)

// Value is a MiniSL value at the API: a scalar/vector (width 1-4), a
// matrix, or a sampler reference. It is the form bound uniforms take, while
// a Frame keeps each lane's value in its cells' component planes.
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

// Program is a linked vertex+fragment shader pair. Concurrent draws and the
// tiles of one draw each take a frame of their own, so they shade without
// sharing evaluation state.
type Program struct {
	VS, FS    *Shader
	VaryNames []string // sorted; defines the varying slot order
	// UniformNames lists both stages' uniforms, sorted, each name once: the
	// index order Binding.Set takes. UniformTypes holds each one's declared
	// type.
	UniformNames []string
	UniformTypes []string
	Tokens       int
	vs, fs       *stage
}

// LinkError is a GLES-style link failure.
type LinkError struct{ Msg string }

func (e *LinkError) Error() string { return "link error: " + e.Msg }

// Link validates that every varying the fragment shader reads is written by
// the vertex shader, and that a uniform both stages declare has one type in
// both, assigns varying and uniform indices, and lays out each stage's
// frame.
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
	types := map[string]string{}
	for _, d := range slices.Concat(vs.Uniforms, fs.Uniforms) {
		switch typ, ok := types[d.Name]; {
		case !ok:
			types[d.Name] = d.Type
			p.UniformNames = append(p.UniformNames, d.Name)
		case typ != d.Type:
			return nil, &LinkError{Msg: "uniform " + d.Name + " type mismatch"}
		}
	}
	sort.Strings(p.UniformNames)
	for _, n := range p.UniformNames {
		p.UniformTypes = append(p.UniformTypes, types[n])
	}
	p.vs, p.fs = newStage(p, vs), newStage(p, fs)
	return p, nil
}

// stage is one shader's frame layout within a linked program. An invocation
// starts from its inputs (vertex attributes, or fragment varyings), the
// vertex shader's zeroed varyings and the zeroed stage output; the
// uniforms and constants are in the uniform frame.
type stage struct {
	sh        *Shader
	lanes     int     // invocations one frame runs at once
	uniforms  []int   // the cell of each of the shader's uniforms, in declaration order
	uniformAt []int   // Program.UniformNames index -> uniforms index, or -1
	attribs   []input // vertex: each attribute declaration's cell
	varyIn    []input // fragment: each declared varying's VaryNames index, cell and width
	varyZero  []int   // vertex: the varyings' cells, zeroed every invocation
	varyOut   []int   // vertex: the cell of each VaryNames entry
	out       int     // the cell of gl_Position or gl_FragColor
	// fragment: the st.uniforms and VaryNames indexes of the texel the
	// shader copies, or -1 (see texelCopy)
	copyUniform, copyVarying int
}

type input struct {
	index int // into the attribute values or the varyings
	cell  int
	width int // the declared width
}

func newStage(p *Program, sh *Shader) *stage {
	// A vertex is transformed on its own; fragments are shaded a span at a
	// time, one lane per fragment.
	lanes := 1
	if sh.Kind == Fragment {
		lanes = gpu.SpanSize
	}
	cell := func(name string) int { return sh.globals[name].cell }
	st := &stage{sh: sh, lanes: lanes, out: cell(specialOut(sh.Kind))}
	if sh.Kind == Vertex {
		for i, d := range sh.Attributes {
			st.attribs = append(st.attribs, input{index: i, cell: cell(d.Name), width: widthOf(d.Type)})
		}
		for _, d := range sh.Varyings {
			st.varyZero = append(st.varyZero, cell(d.Name))
		}
		for _, n := range p.VaryNames {
			st.varyOut = append(st.varyOut, cell(n))
		}
	} else {
		// A fragment shader reads the varyings it declares, as it declares
		// them; Link has checked that the vertex shader writes each one
		// with that type.
		for i, n := range p.VaryNames {
			if k := slices.IndexFunc(sh.Varyings, func(d Decl) bool { return d.Name == n }); k >= 0 {
				st.varyIn = append(st.varyIn, input{index: i, cell: cell(n), width: widthOf(sh.Varyings[k].Type)})
			}
		}
	}
	st.uniformAt = slices.Repeat([]int{-1}, len(p.UniformNames))
	for k, d := range sh.Uniforms {
		st.uniformAt[sort.SearchStrings(p.UniformNames, d.Name)] = k
		st.uniforms = append(st.uniforms, cell(d.Name))
	}
	st.copyUniform, st.copyVarying = st.texelCopy()
	return st
}

// texelCopy returns the indexes in st.uniforms and in VaryNames of s and v
// when st is a fragment stage whose body is the single statement
// gl_FragColor = texture2D(s, v), with v a varying; otherwise -1, -1. Such
// a shader shades each fragment with the texel nearest its v: texture2D's
// unorm8 channels, which gpu.Pack turns back into the texel's word.
func (st *stage) texelCopy() (int, int) {
	sh := st.sh
	if sh.Kind != Fragment || len(sh.body) != 1 {
		return -1, -1
	}
	as, ok := sh.body[0].(*assignStmt)
	if !ok || as.cell != st.out || as.comp >= 0 {
		return -1, -1
	}
	call, ok := as.val.(*callExpr)
	if !ok || call.fn != fnTexture2D {
		return -1, -1
	}
	v, ok := call.args[1].(*varExpr)
	i := slices.IndexFunc(st.varyIn, func(in input) bool { return ok && in.cell == v.cell })
	if i < 0 {
		return -1, -1
	}
	s := call.args[0].(*varExpr).cell
	return slices.Index(st.uniforms, s), st.varyIn[i].index
}

// Binding holds one draw's uniform values, in each stage's declaration
// order. Set every uniform before taking frames; the frames read the
// binding until they are released.
type Binding struct {
	p      *Program
	vs, fs []Value
}

// Bind returns a binding in which every uniform is its declared type's
// zero value.
func (p *Program) Bind() *Binding {
	zeros := func(decls []Decl) []Value {
		out := make([]Value, len(decls))
		for k, d := range decls {
			out[k] = zeroOf(d.Type)
		}
		return out
	}
	return &Binding{p: p, vs: zeros(p.VS.Uniforms), fs: zeros(p.FS.Uniforms)}
}

// Set binds uniform i, an index into the program's UniformNames, in every
// stage that declares it. A value of another type than the uniform's
// declaration is refused with an error, as glUniform refuses it, and the
// uniform keeps its value. Components past the value's width are dropped.
func (b *Binding) Set(i int, v Value) error {
	if typ := b.p.UniformTypes[i]; typeOfValue(v) != typeNames[typ] {
		return fmt.Errorf("minisl: uniform %s is a %s; cannot bind a %v to it", b.p.UniformNames[i], typ, typeOfValue(v))
	}
	clear(v.V[v.Width:])
	if k := b.p.vs.uniformAt[i]; k >= 0 {
		b.vs[k] = v
	}
	if k := b.p.fs.uniformAt[i]; k >= 0 {
		b.fs[k] = v
	}
	return nil
}

// typeOfValue is the type of an API value: none for a width outside 1..4.
func typeOfValue(v Value) vtype {
	switch {
	case v.M != nil:
		return tMat
	case v.Width == 0:
		return tSampler
	case v.Width >= 1 && v.Width <= 4:
		return vtype(v.Width)
	}
	return 0
}

// Frame takes a frame for the given stage, with b's uniforms in its
// uniform frame. Release it when the invocations are done.
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
	for k, c := range st.uniforms {
		f.u.put(c, uni[k])
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
// gpu.SpanSize for fragments). Every variable, constant, matrix product and
// temporary of the compiled shader is a cell (a mat4 four, its columns), and
// the frame keeps one plane of components, cell-major. A typed cell keeps
// the components of its static width per lane; the nodes that read and
// write it know that width from Compile, and its hidden components hold
// whatever they held. A draw-uniform cell is kept in the single lane of the
// uniform frame u, which every lane reads: the constants, the uniforms, and
// the nodes over only those. A sampler's texture stays in the binding's
// values (uni), read once per texture2D node and span, so no cell holds a
// pointer. The frame also holds per lane the steps left before the step
// limit, the texture fetches, whether the lane ran out of steps, and the
// colour word Shade hands back. Every run resets what an invocation can
// observe in the lanes it uses — the counters, the inputs and the outputs
// — so one frame runs a tile's spans, or a draw's vertices, without
// allocating. What no invocation can change is set once: the constants at
// layout, the uniforms when the binding hands out the frame, and a shader
// that cannot reach the step limit keeps no step counts. A Frame is not
// safe for concurrent use.
type Frame struct {
	st      *stage
	lanes   int
	comp    []gpu.Vec4 // cell c's lane l at c*lanes+l
	u       *Frame     // the uniform frame: one lane, for draw-uniform cells; its own u is itself
	uni     []Value    // the binding's values for st.uniforms
	steps   []int32
	charged int32 // step calls this run: no lane has spent more steps
	fetches []int
	faulted uint64   // the lanes that ran out of steps
	n       int      // the lanes the current run started with
	col     []uint32 // per lane: the colour word Shade returns
	live    []uint8  // the lane list a run starts from
	// The fragment inputs of the last Inputs call: the indexes, widths and
	// component planes of the varyings the shader reads.
	inIndex  []int
	inWidth  []int
	inPlanes [][]gpu.Vec4
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
// where it is large enough, and loads the shader's constants into the
// uniform frame.
func (f *Frame) layout(st *stage) {
	f.size(st, st.lanes)
	if f.u == nil {
		f.u = new(Frame)
	}
	u := f.u
	u.size(st, 1)
	u.u, u.n, u.live[0] = u, 1, 0
	for _, k := range st.sh.consts {
		u.put(k.cell, k.v)
	}
}

// size sizes f's storage for st's cells in n lanes.
func (f *Frame) size(st *stage, n int) {
	cells := st.sh.cells + st.sh.temps
	f.st, f.lanes = st, n
	f.comp = slices.Grow(f.comp[:0], cells*n)[:cells*n]
	f.steps = slices.Grow(f.steps[:0], n)[:n]
	f.fetches = slices.Grow(f.fetches[:0], n)[:n]
	f.faulted = 0
	f.col = slices.Grow(f.col[:0], n)[:n]
	f.live = slices.Grow(f.live[:0], n)[:n]
}

// put writes v to cell c of a one-lane frame: a vector's components, or a
// matrix's columns from c on. A sampler has none.
func (f *Frame) put(c int, v Value) {
	switch {
	case v.M != nil:
		for i := range 4 {
			copy(f.comp[c+i][:], v.M[4*i:4*i+4])
		}
	case v.Width > 0:
		f.comp[c] = v.V
	}
}

// Release returns f to the free list, dropping its binding's values: an
// idle frame keeps no texture alive.
func (f *Frame) Release() {
	f.uni = nil
	frames.Lock()
	frames.free = append(frames.free, f)
	frames.Unlock()
}

const defaultMaxSteps = 100000

// faultWord is what a fragment whose shader runs out of steps shades:
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

// run executes the shader in lanes [0, n), whose inputs are loaded: it
// resets their counters, then runs the compiled body over them. f.faulted
// marks the lanes that ran out of steps.
func (f *Frame) run(n int) {
	f.faulted = 0
	live := f.live[:n]
	copy(live, laneIDs[:n])
	f.n = n
	if f.st.sh.counted {
		for l := range live {
			f.steps[l] = defaultMaxSteps
		}
		f.charged = 0
	}
	clear(f.fetches[:n])
	f.st.sh.run(f, live)
}

// err is lane l's runtime error in the last run: the step limit, or nil.
func (f *Frame) err(l int) error {
	if f.faulted>>l&1 != 0 {
		return errSteps
	}
	return nil
}

// RunVertex executes the vertex shader for one vertex. attribs holds the
// attribute values in declaration order, of which the shader reads the
// components of each attribute's declared width; a missing one reads as
// zero. The varyings are written to vary, which needs room for
// len(VaryNames), in VaryNames order. It returns gl_Position.
func (f *Frame) RunVertex(attribs []gpu.Vec4, vary []gpu.Vec4) (gpu.Vec4, error) {
	st := f.st
	for _, in := range st.attribs {
		f.comp[in.cell] = gpu.Vec4{}
		if in.index < len(attribs) {
			f.comp[in.cell] = attribs[in.index]
		}
	}
	for _, c := range st.varyZero {
		f.comp[c] = gpu.Vec4{}
	}
	f.comp[st.out] = gpu.Vec4{}
	f.run(1)
	if f.faulted != 0 {
		return gpu.Vec4{}, errSteps
	}
	for i, c := range st.varyOut {
		vary[i] = f.comp[c]
	}
	return f.comp[st.out], nil
}

// Inputs implements gpu.Fragment. The varyings the fragment shader reads
// are the ones it declares, their widths its declarations', and their
// planes the cells' component planes, whose declared components the
// rasterizer fills in place. A varying the primitives do not carry (an
// index at or past nvary) reads as zero, set here once for all the spans
// until the next call.
func (f *Frame) Inputs(nvary int) ([]int, []int, [][]gpu.Vec4) {
	f.inIndex, f.inWidth, f.inPlanes = f.inIndex[:0], f.inWidth[:0], f.inPlanes[:0]
	for _, in := range f.st.varyIn {
		comp := f.comp[in.cell*f.lanes : (in.cell+1)*f.lanes]
		if in.index >= nvary {
			clear(comp)
			continue
		}
		f.inIndex = append(f.inIndex, in.index)
		f.inWidth = append(f.inWidth, in.width)
		f.inPlanes = append(f.inPlanes, comp)
	}
	return f.inIndex, f.inWidth, f.inPlanes
}

// Shade implements gpu.Fragment: each of lanes [0, n) runs the shader on
// the inputs the rasterizer wrote, from gl_FragColor zero, and the colours
// returned are the gl_FragColor plane's, packed (gpu.Pack). A lane that runs
// out of steps shades magenta and counts no fetches.
func (f *Frame) Shade(n int) ([]uint32, []int) {
	out := f.comp[f.st.out*f.lanes:][:n]
	clear(out)
	f.run(n)
	col := f.col[:n]
	gpu.Pack(col, out)
	for m := f.faulted; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		col[l], f.fetches[l] = faultWord, 0
	}
	return col, f.fetches[:n]
}

// widthOf is a vector type's width: 0 for mat4 and sampler2D.
func widthOf(typ string) int { return typeNames[typ].width() }

func zeroOf(typ string) Value {
	if typ == "mat4" {
		return Mat(gpu.Identity())
	}
	return Value{Width: widthOf(typ)}
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
