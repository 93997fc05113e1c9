package engine

import (
	"sync"

	"cycada/internal/sim/gpu"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// textureObj is a GLES texture. Its storage is either private (allocated by
// glTexImage2D) or an external EGLImage (a GraphicBuffer/IOSurface bound via
// glEGLImageTargetTexture2DOES) — the distinction at the heart of the
// IOSurface lock/unlock dance in §6.2.
type textureObj struct {
	id       uint32
	img      *gpu.Image
	external *EGLImage // non-nil when bound to an EGLImage
	repeat   bool
}

type bufferObj struct {
	id   uint32
	data []float32
	elem []uint16
}

type renderbufferObj struct {
	id  uint32
	img *gpu.Image
}

type framebufferObj struct {
	id       uint32
	colorTex *textureObj
	colorRb  *renderbufferObj
	target   *gpu.Target // cached target for the current attachment
}

type shaderObj struct {
	id       uint32
	kind     uint32
	source   string
	compiled *minislShader
	infoLog  string
	ok       bool
}

type programObj struct {
	id           uint32
	vs, fs       *shaderObj
	linked       *minislProgram
	infoLog      string
	ok           bool
	attribs      map[string]int // name -> location
	uniforms     map[string]int
	uniformNames []string // location-indexed
	uniformTypes []string // location-indexed: the declared type
	values       map[int]uniformValue
}

type fenceObj struct {
	id       uint32
	pending  bool
	signaled bool
}

// EGLImage is a zero-copy handle to externally managed graphics memory (an
// Android GraphicBuffer or, through Cycada, an IOSurface). Destroying the
// EGLImage implicitly disassociates the underlying buffer from any texture.
type EGLImage struct {
	Img   *gpu.Image
	valid bool
}

// NewEGLImage wraps an image for zero-copy texture binding.
func NewEGLImage(img *gpu.Image) *EGLImage { return &EGLImage{Img: img, valid: true} }

// Destroy invalidates the EGLImage (eglDestroyImageKHR).
func (e *EGLImage) Destroy() { e.valid = false }

// Valid reports whether the image is still usable.
func (e *EGLImage) Valid() bool { return e != nil && e.valid }

// objectStore holds the shareable objects of a sharegroup.
type objectStore struct {
	mu       sync.Mutex
	nextID   uint32
	textures map[uint32]*textureObj
	buffers  map[uint32]*bufferObj
	rbos     map[uint32]*renderbufferObj
	shaders  map[uint32]*shaderObj
	programs map[uint32]*programObj
	fences   map[uint32]*fenceObj
}

func newObjectStore() *objectStore {
	return &objectStore{
		textures: map[uint32]*textureObj{},
		buffers:  map[uint32]*bufferObj{},
		rbos:     map[uint32]*renderbufferObj{},
		shaders:  map[uint32]*shaderObj{},
		programs: map[uint32]*programObj{},
		fences:   map[uint32]*fenceObj{},
	}
}

func (s *objectStore) newID() uint32 {
	s.nextID++
	return s.nextID
}

// clientArray is a GLES 1 client-state array (glVertexPointer & friends).
type clientArray struct {
	size    int
	data    []float32
	enabled bool
}

// vertexAttrib is a GLES 2 vertex attribute binding.
type vertexAttrib struct {
	size    int
	data    []float32
	buffer  uint32 // when non-zero, data comes from the bound buffer object
	enabled bool
}

type uniformValue struct {
	f   [4]float32
	n   int // component count; 0 means int (sampler unit)
	i   int
	mat *gpu.Mat4
}

// typ is the MiniSL type a glUniform* call sets.
func (v uniformValue) typ() string {
	if v.mat != nil {
		return "mat4"
	}
	return [...]string{"sampler2D", "float", "vec2", "vec3", "vec4"}[v.n]
}

// Context is a GLES context: "a state container for all GLES objects
// associated with a given instance of GLES" (paper §2).
type Context struct {
	lib     *Lib
	id      uint64
	version int
	creator *kernel.Thread
	share   *ShareGroup

	mu sync.Mutex

	// Framebuffer bindings. fbo 0 is the default framebuffer whose target is
	// provided by the window system (EGL surface / EAGL renderbuffer).
	fbos          map[uint32]*framebufferObj
	nextFBO       uint32
	boundFBO      uint32
	defaultTarget *gpu.Target

	// Texture and buffer bindings.
	activeUnit   int
	boundTex     [8]uint32
	boundArray   uint32
	boundElement uint32
	boundRbo     uint32

	// Draw state.
	state struct {
		blend    bool
		depth    bool
		scissor  bool
		scissorR [4]int
		viewport [4]int
	}
	clear gpu.Vec4

	// GLES 2 program state.
	curProgram uint32
	attribs    [16]vertexAttrib

	// GLES 1 fixed-function state.
	fixed fixedState

	// Pixel store state, including the APPLE_row_bytes extension values the
	// data-dependent diplomats manage (§4.1).
	unpackAlign    int
	unpackRowBytes int
	packRowBytes   int

	lastErr        uint32
	poisoned       bool
	workSinceFlush vclock.Duration
}

// ID returns the context's library-unique ID.
func (ctx *Context) ID() uint64 { return ctx.id }

// Version returns the GLES API version of the context (1 or 2).
func (ctx *Context) Version() int { return ctx.version }

// Creator returns the thread that created the context.
func (ctx *Context) Creator() *kernel.Thread { return ctx.creator }

// Share returns the context's sharegroup.
func (ctx *Context) Share() *ShareGroup { return ctx.share }

// Lib returns the owning library instance.
func (ctx *Context) Lib() *Lib { return ctx.lib }

// SetDefaultTarget attaches the window-system-provided target backing
// framebuffer 0. EGL surfaces and EAGL renderbuffer storage call this.
func (ctx *Context) SetDefaultTarget(tgt *gpu.Target) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	ctx.defaultTarget = tgt
}

func (ctx *Context) setErr(e uint32) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if ctx.lastErr == NoError {
		ctx.lastErr = e
	}
}

// Poison marks the context as unreliable after a fault was isolated inside
// one of its GL calls (a diplomat panic, §3 recovery): subsequent GetError
// calls keep returning GL_OUT_OF_MEMORY — the canonical "context lost"
// signal real drivers use — instead of clearing, so the app learns the
// context is dead no matter how the error checks interleave.
func (ctx *Context) Poison() {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	ctx.poisoned = true
	ctx.lastErr = OutOfMemory
}

// Poisoned reports whether the context has been poisoned.
func (ctx *Context) Poisoned() bool {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	return ctx.poisoned
}

// boundTarget resolves the currently bound framebuffer to a raster target.
func (ctx *Context) boundTarget() *gpu.Target {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if ctx.boundFBO == 0 {
		return ctx.defaultTarget
	}
	fbo := ctx.fbos[ctx.boundFBO]
	if fbo == nil {
		return nil
	}
	return fbo.resolveTarget()
}

func (f *framebufferObj) resolveTarget() *gpu.Target {
	switch {
	case f.colorTex != nil && f.colorTex.img != nil:
		if f.target == nil || f.target.Color != f.colorTex.img {
			f.target = gpu.NewTarget(f.colorTex.img)
		}
		return f.target
	case f.colorRb != nil && f.colorRb.img != nil:
		if f.target == nil || f.target.Color != f.colorRb.img {
			f.target = gpu.NewTarget(f.colorRb.img)
		}
		return f.target
	default:
		return nil
	}
}

// renderState snapshots the context's fixed-function raster state. The
// depth comparison is GL_LESS — the GLES default depth func, and the only
// one the engine implements (glDepthFunc resolves to a fixed-cost stub), so
// the rasterizer's convention matches what the API advertises.
func (ctx *Context) renderState() gpu.RenderState {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	st := gpu.RenderState{
		DepthTest:   ctx.state.depth,
		Scissor:     ctx.state.scissor,
		ScissorRect: ctx.state.scissorR,
		Viewport:    ctx.state.viewport,
	}
	if ctx.state.blend {
		st.Blend = gpu.BlendAlpha
	}
	return st
}
