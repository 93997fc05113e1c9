package minisl

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"cycada/internal/sim/gpu"
)

// Value is a runtime MiniSL value: a scalar/vector (width 1-4), a matrix,
// or a sampler reference.
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

// Program is a linked vertex+fragment shader pair. Each stage owns a pool of
// frames, so concurrent draws and the tiles of one draw shade without
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
	def       []bool        // slots defined when an invocation starts
	uniforms  []uniformSlot // this stage's uniforms, each name once
	uniformAt []int         // Program.UniformNames index -> uniforms index, or -1
	mutable   []int         // uniforms indexes rewritten every invocation
	attribs   []input       // vertex: attribute declaration index -> slot
	varyIn    []input       // fragment: VaryNames index -> slot
	varyZero  []input       // vertex: varyings zeroed every invocation
	varyOut   []int         // vertex: slot of each VaryNames entry
	out       int           // slot of gl_Position or gl_FragColor
	frames    sync.Pool     // *Frame
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

func newStage(p *Program, sh *Shader) *stage {
	st := &stage{sh: sh, def: make([]bool, len(sh.written)), out: sh.slots[specialOut(sh.Kind)]}
	// rewritten marks slots an invocation writes before or while it runs;
	// a uniform living there cannot stay bound from the previous one.
	rewritten := slices.Clone(sh.written)
	rewritten[st.out] = true
	st.def[st.out] = true
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
		for i, n := range p.VaryNames {
			if s, ok := sh.slots[n]; ok {
				d := declOf(p.VS.Varyings, n)
				st.varyIn = append(st.varyIn, input{index: i, slot: s, width: widthOf(d.Type), zero: zeroOf(d.Type)})
			}
		}
	}
	for _, ins := range [][]input{st.attribs, st.varyIn, st.varyZero} {
		for _, in := range ins {
			st.def[in.slot], rewritten[in.slot] = true, true
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
		st.def[u.slot] = true
	}
	for k, u := range st.uniforms {
		if rewritten[u.slot] {
			st.mutable = append(st.mutable, k)
		}
	}
	return st
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

// Frame takes a frame for the given stage from the program's pool, loaded
// with b's uniforms. Release it when the invocations are done.
func (b *Binding) Frame(k Kind) *Frame {
	st, uni := b.p.fs, b.fs
	if k == Vertex {
		st, uni = b.p.vs, b.vs
	}
	f, _ := st.frames.Get().(*Frame)
	if f == nil {
		n := len(st.sh.written)
		f = &Frame{st: st, vals: make([]Value, n), def: make([]bool, n), scratch: make([]Value, st.sh.scratch)}
	}
	f.uni = uni
	for k, u := range st.uniforms {
		f.vals[u.slot] = uni[k]
	}
	return f
}

// Acquire implements gpu.FragShader: every tile shades through its own
// fragment frame.
func (b *Binding) Acquire() gpu.Fragment { return b.Frame(Fragment) }

// Release implements gpu.FragShader.
func (b *Binding) Release(f gpu.Fragment) { f.(*Frame).Release() }

// Frame is one stage's evaluation state: a Value per slot, a "defined" bit
// per slot, scratch for call arguments, and the step and fetch counters.
// Every run resets what an invocation can observe — the defined bits, the
// counters, the inputs, the outputs and any uniform the shader overwrites —
// so one frame runs a tile's fragments, or a draw's vertices, without
// allocating. A Frame is not safe for concurrent use.
type Frame struct {
	st      *stage
	vals    []Value
	def     []bool
	uni     []Value // the binding's values for st.uniforms
	scratch []Value
	steps   int // statements left before the step limit
	fetches int
}

// Release returns f to its program's pool.
func (f *Frame) Release() {
	f.uni = nil
	f.st.frames.Put(f)
}

type evalError struct {
	line int
	msg  string
}

func (e *evalError) Error() string { return fmt.Sprintf("runtime: line %d: %s", e.line, e.msg) }

const defaultMaxSteps = 100000

// faultColor is what a fragment whose shader faults at run time shades.
var faultColor = gpu.Vec4{1, 0, 1, 1} // magenta

// begin resets the defined bits and the counters for a new invocation.
func (f *Frame) begin() {
	copy(f.def, f.st.def)
	f.steps = defaultMaxSteps
	f.fetches = 0
}

// restoreUniforms rebinds the uniforms an invocation may have overwritten.
func (f *Frame) restoreUniforms() {
	for _, k := range f.st.mutable {
		f.vals[f.st.uniforms[k].slot] = f.uni[k]
	}
}

// RunVertex executes the vertex shader for one vertex. attribs holds the
// attribute values in declaration order; a missing one reads as zero. The
// varyings are written to vary, which needs room for len(VaryNames), in
// VaryNames order. It returns gl_Position.
func (f *Frame) RunVertex(attribs []Value, vary []gpu.Vec4) (gpu.Vec4, error) {
	st := f.st
	f.begin()
	for _, in := range st.attribs {
		if in.index < len(attribs) {
			f.vals[in.slot] = attribs[in.index]
		} else {
			f.vals[in.slot] = in.zero
		}
	}
	f.restoreUniforms()
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

// RunFragment executes the fragment shader for one fragment with varyings
// in VaryNames order. It returns gl_FragColor and the texture fetch count;
// a faulting run counts no fetches.
func (f *Frame) RunFragment(vary []gpu.Vec4) (gpu.Vec4, int, error) {
	st := f.st
	f.begin()
	for _, in := range st.varyIn {
		if in.index < len(vary) {
			f.vals[in.slot] = Value{Width: in.width, V: vary[in.index]}
		} else {
			f.vals[in.slot] = in.zero
		}
	}
	f.restoreUniforms()
	f.vals[st.out] = Vec(4)
	if err := f.runBlock(st.sh.body); err != nil {
		return gpu.Vec4{}, 0, err
	}
	return f.vals[st.out].V, f.fetches, nil
}

// Shade implements gpu.Fragment: a fragment whose shader faults at run time
// shades magenta.
func (f *Frame) Shade(vary []gpu.Vec4) (gpu.Vec4, int) {
	col, fetches, err := f.RunFragment(vary)
	if err != nil {
		return faultColor, 0
	}
	return col, fetches
}

func declOf(ds []Decl, name string) Decl {
	for _, d := range ds {
		if d.Name == name {
			return d
		}
	}
	return Decl{Name: name, Type: "vec4"}
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

func (f *Frame) runBlock(body []stmt) error {
	for _, s := range body {
		if err := f.runStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (f *Frame) runStmt(s stmt) error {
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
				v = coerceWidth(iv, st.width)
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
				v = coerceWidth(v, cur.Width)
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

func (f *Frame) eval(x expr) (Value, error) {
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

func (f *Frame) evalBin(ex *binExpr) (Value, error) {
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
	lv, rv := broadcast(l, w), broadcast(r, w)
	var out gpu.Vec4
	switch ex.op {
	case opAdd:
		out = lv.Add(rv)
	case opSub:
		out = lv.Sub(rv)
	case opMul:
		out = lv.Mul(rv)
	case opDiv:
		for i := 0; i < 4; i++ {
			if rv[i] != 0 {
				out[i] = lv[i] / rv[i]
			}
		}
	}
	return Value{Width: w, V: out}, nil
}

func (ex *callExpr) fail(msg string) (Value, error) {
	return Value{}, &evalError{line: ex.line, msg: ex.name + ": " + msg}
}

func (f *Frame) evalCall(ex *callExpr) (Value, error) {
	args := f.scratch[ex.base : ex.base+len(ex.args)]
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
			return ex.fail(fmt.Sprintf("needs %d components, got %d", w, n))
		}
		return Value{Width: w, V: comps}, nil
	case fnTexture2D:
		if len(args) != 2 {
			return ex.fail("needs (sampler, vec2)")
		}
		f.fetches++
		c := args[0].Sampler.Sample(args[1].V[0], args[1].V[1])
		return Value{Width: 4, V: c}, nil
	case fnClamp:
		if len(args) != 3 {
			return ex.fail("needs 3 args")
		}
		var out gpu.Vec4
		for i := 0; i < 4; i++ {
			out[i] = minf(maxf(args[0].V[i], args[1].V[0]), args[2].V[0])
		}
		return Value{Width: args[0].Width, V: out}, nil
	case fnMin, fnMax, fnPow:
		if len(args) != 2 {
			return ex.fail("needs 2 args")
		}
		w := args[0].Width
		a, b := broadcast(args[0], w), broadcast(args[1], w)
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
			return ex.fail("needs 2 args")
		}
		var s float32
		for i := 0; i < args[0].Width; i++ {
			s += args[0].V[i] * args[1].V[i]
		}
		return Float(s), nil
	case fnMix:
		if len(args) != 3 {
			return ex.fail("needs 3 args")
		}
		t := args[2].V[0]
		w := args[0].Width
		out := args[0].V.Scale(1 - t).Add(broadcast(args[1], w).Scale(t))
		return Value{Width: w, V: out}, nil
	case fnFract, fnFloor, fnAbs, fnSin, fnCos:
		if len(args) != 1 {
			return ex.fail("needs 1 arg")
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
			return ex.fail("needs 1 arg")
		}
		var s float64
		for i := 0; i < args[0].Width; i++ {
			s += float64(args[0].V[i]) * float64(args[0].V[i])
		}
		return Float(float32(math.Sqrt(s))), nil
	case fnNormalize:
		if len(args) != 1 {
			return ex.fail("needs 1 arg")
		}
		var s float64
		for i := 0; i < args[0].Width; i++ {
			s += float64(args[0].V[i]) * float64(args[0].V[i])
		}
		n := float32(math.Sqrt(s))
		if n == 0 {
			return args[0], nil
		}
		return Value{Width: args[0].Width, V: args[0].V.Scale(1 / n)}, nil
	default:
		return ex.fail("unknown function")
	}
}

func coerceWidth(v Value, w int) Value {
	if v.Width == 1 && w > 1 {
		return Value{Width: w, V: gpu.Vec4{v.V[0], v.V[0], v.V[0], v.V[0]}}
	}
	v.Width = w
	return v
}

func broadcast(v Value, w int) gpu.Vec4 {
	if v.Width == 1 && w > 1 {
		return gpu.Vec4{v.V[0], v.V[0], v.V[0], v.V[0]}
	}
	return v.V
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
