package engine

import (
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/gpu/minisl"
	"cycada/internal/sim/kernel"
)

// This file implements the GLES 1 fixed-function pipeline: matrix stacks,
// client-state arrays, the current color, and single-texture modulation.
// PassMark's 3D tests and the multigles example exercise it (the paper's §8
// scenario: a game on GLES v1 while WebKit renders on GLES v2).

// fixedState is the GLES 1 fixed-function state block.
type fixedState struct {
	matrixMode uint32
	modelview  []gpu.Mat4
	projection []gpu.Mat4

	color      gpu.Vec4
	texEnabled bool

	vertex, colorArr, texcoord clientArray
}

func (f *fixedState) init() {
	if len(f.modelview) == 0 {
		f.modelview = []gpu.Mat4{gpu.Identity()}
		f.projection = []gpu.Mat4{gpu.Identity()}
		f.matrixMode = ModelView
		f.color = gpu.Vec4{1, 1, 1, 1}
	}
}

func (f *fixedState) stack() *[]gpu.Mat4 {
	if f.matrixMode == Projection {
		return &f.projection
	}
	return &f.modelview
}

func (f *fixedState) top() *gpu.Mat4 {
	s := f.stack()
	return &(*s)[len(*s)-1]
}

func (l *Lib) fixedCtx(t *kernel.Thread, name string) *Context {
	l.enter(t, name)
	ctx := l.current(t)
	if ctx == nil {
		return nil
	}
	if ctx.version != 1 {
		ctx.setErr(InvalidOperation)
		return nil
	}
	ctx.mu.Lock()
	ctx.fixed.init()
	ctx.mu.Unlock()
	return ctx
}

// MatrixMode implements glMatrixMode.
func (l *Lib) MatrixMode(t *kernel.Thread, mode uint32) {
	if ctx := l.fixedCtx(t, "glMatrixMode"); ctx != nil {
		if mode != ModelView && mode != Projection {
			ctx.setErr(InvalidEnum)
			return
		}
		ctx.mu.Lock()
		ctx.fixed.matrixMode = mode
		ctx.mu.Unlock()
	}
}

// LoadIdentity implements glLoadIdentity.
func (l *Lib) LoadIdentity(t *kernel.Thread) {
	if ctx := l.fixedCtx(t, "glLoadIdentity"); ctx != nil {
		ctx.mu.Lock()
		*ctx.fixed.top() = gpu.Identity()
		ctx.mu.Unlock()
	}
}

// LoadMatrixf implements glLoadMatrixf.
func (l *Lib) LoadMatrixf(t *kernel.Thread, m gpu.Mat4) {
	if ctx := l.fixedCtx(t, "glLoadMatrixf"); ctx != nil {
		ctx.mu.Lock()
		*ctx.fixed.top() = m
		ctx.mu.Unlock()
	}
}

// MultMatrixf implements glMultMatrixf.
func (l *Lib) MultMatrixf(t *kernel.Thread, m gpu.Mat4) {
	if ctx := l.fixedCtx(t, "glMultMatrixf"); ctx != nil {
		ctx.mu.Lock()
		top := ctx.fixed.top()
		*top = top.MulMat(m)
		ctx.mu.Unlock()
	}
}

// Orthof implements glOrthof.
func (l *Lib) Orthof(t *kernel.Thread, left, right, bottom, top, near, far float32) {
	if ctx := l.fixedCtx(t, "glOrthof"); ctx != nil {
		ctx.mu.Lock()
		tp := ctx.fixed.top()
		*tp = tp.MulMat(gpu.Ortho(left, right, bottom, top, near, far))
		ctx.mu.Unlock()
	}
}

// Frustumf implements glFrustumf.
func (l *Lib) Frustumf(t *kernel.Thread, left, right, bottom, top, near, far float32) {
	if ctx := l.fixedCtx(t, "glFrustumf"); ctx != nil {
		ctx.mu.Lock()
		tp := ctx.fixed.top()
		*tp = tp.MulMat(gpu.Frustum(left, right, bottom, top, near, far))
		ctx.mu.Unlock()
	}
}

// PushMatrix implements glPushMatrix.
func (l *Lib) PushMatrix(t *kernel.Thread) {
	if ctx := l.fixedCtx(t, "glPushMatrix"); ctx != nil {
		ctx.mu.Lock()
		s := ctx.fixed.stack()
		*s = append(*s, (*s)[len(*s)-1])
		ctx.mu.Unlock()
	}
}

// PopMatrix implements glPopMatrix; popping the last matrix is a stack
// underflow error.
func (l *Lib) PopMatrix(t *kernel.Thread) {
	if ctx := l.fixedCtx(t, "glPopMatrix"); ctx != nil {
		ctx.mu.Lock()
		s := ctx.fixed.stack()
		if len(*s) <= 1 {
			ctx.mu.Unlock()
			ctx.setErr(0x0504) // GL_STACK_UNDERFLOW
			return
		}
		*s = (*s)[:len(*s)-1]
		ctx.mu.Unlock()
	}
}

// Rotatef implements glRotatef about the major axes.
func (l *Lib) Rotatef(t *kernel.Thread, angle, x, y, z float32) {
	if ctx := l.fixedCtx(t, "glRotatef"); ctx != nil {
		ctx.mu.Lock()
		top := ctx.fixed.top()
		switch {
		case z != 0:
			*top = top.RotateZ(angle)
		case y != 0:
			*top = top.RotateY(angle)
		case x != 0:
			*top = top.RotateX(angle)
		}
		ctx.mu.Unlock()
	}
}

// Translatef implements glTranslatef.
func (l *Lib) Translatef(t *kernel.Thread, x, y, z float32) {
	if ctx := l.fixedCtx(t, "glTranslatef"); ctx != nil {
		ctx.mu.Lock()
		top := ctx.fixed.top()
		*top = top.Translate(x, y, z)
		ctx.mu.Unlock()
	}
}

// Scalef implements glScalef.
func (l *Lib) Scalef(t *kernel.Thread, x, y, z float32) {
	if ctx := l.fixedCtx(t, "glScalef"); ctx != nil {
		ctx.mu.Lock()
		top := ctx.fixed.top()
		*top = top.Scale(x, y, z)
		ctx.mu.Unlock()
	}
}

// Color4f implements glColor4f.
func (l *Lib) Color4f(t *kernel.Thread, r, g, b, a float32) {
	if ctx := l.fixedCtx(t, "glColor4f"); ctx != nil {
		ctx.mu.Lock()
		ctx.fixed.color = gpu.Vec4{r, g, b, a}
		ctx.mu.Unlock()
	}
}

// EnableClientState implements glEnableClientState.
func (l *Lib) EnableClientState(t *kernel.Thread, array uint32) {
	l.clientState(t, "glEnableClientState", array, true)
}

// DisableClientState implements glDisableClientState.
func (l *Lib) DisableClientState(t *kernel.Thread, array uint32) {
	l.clientState(t, "glDisableClientState", array, false)
}

func (l *Lib) clientState(t *kernel.Thread, name string, array uint32, on bool) {
	ctx := l.fixedCtx(t, name)
	if ctx == nil {
		return
	}
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	switch array {
	case VertexArray:
		ctx.fixed.vertex.enabled = on
	case ColorArray:
		ctx.fixed.colorArr.enabled = on
	case TexCoordArray:
		ctx.fixed.texcoord.enabled = on
	default:
		ctx.lastErr = InvalidEnum
	}
}

// VertexPointer implements glVertexPointer.
func (l *Lib) VertexPointer(t *kernel.Thread, size int, data []float32) {
	if ctx := l.fixedCtx(t, "glVertexPointer"); ctx != nil {
		ctx.mu.Lock()
		ctx.fixed.vertex.size = size
		ctx.fixed.vertex.data = data
		ctx.mu.Unlock()
	}
}

// ColorPointer implements glColorPointer.
func (l *Lib) ColorPointer(t *kernel.Thread, size int, data []float32) {
	if ctx := l.fixedCtx(t, "glColorPointer"); ctx != nil {
		ctx.mu.Lock()
		ctx.fixed.colorArr.size = size
		ctx.fixed.colorArr.data = data
		ctx.mu.Unlock()
	}
}

// TexCoordPointer implements glTexCoordPointer.
func (l *Lib) TexCoordPointer(t *kernel.Thread, size int, data []float32) {
	if ctx := l.fixedCtx(t, "glTexCoordPointer"); ctx != nil {
		ctx.mu.Lock()
		ctx.fixed.texcoord.size = size
		ctx.fixed.texcoord.data = data
		ctx.mu.Unlock()
	}
}

// TexEnvi implements glTexEnvi; the simulation always modulates.
func (l *Lib) TexEnvi(t *kernel.Thread, pname uint32, param int) {
	l.fixedCtx(t, "glTexEnvi")
}

// ShadeModel implements glShadeModel; interpolation is always smooth.
func (l *Lib) ShadeModel(t *kernel.Thread, mode uint32) {
	l.fixedCtx(t, "glShadeModel")
}

// The fixed-function fragment stage is one of two MiniSL programs, linked
// once per process: TexEnv always modulates and shading is always smooth, so
// a fragment's colour is its interpolated colour, times its texel when a
// texture is bound. drawFixed transforms vertices on the CPU; fixedVS never
// runs, it only declares the varyings, whose sorted names put them in the
// order drawFixed writes them: colour, then texcoord.
const fixedVS = `attribute vec4 a_pos; attribute vec4 a_color; attribute vec2 a_uv;
varying vec4 v_color; varying vec2 v_uv;
void main() { gl_Position = a_pos; v_color = a_color; v_uv = a_uv; }`

var (
	fixedColor = linkFixed(`varying vec4 v_color;
void main() { gl_FragColor = v_color; }`)
	fixedTextured = linkFixed(`uniform sampler2D u_tex; varying vec4 v_color; varying vec2 v_uv;
void main() { gl_FragColor = v_color * texture2D(u_tex, v_uv); }`)
)

func linkFixed(fs string) *minisl.Program {
	v, err := minisl.Compile(fixedVS, minisl.Vertex)
	if err != nil {
		panic(err)
	}
	f, err := minisl.Compile(fs, minisl.Fragment)
	if err != nil {
		panic(err)
	}
	p, err := minisl.Link(v, f)
	if err != nil {
		panic(err)
	}
	return p
}

// drawFixed runs the fixed-function pipeline for a draw call.
func (ctx *Context) drawFixed(t *kernel.Thread, mode uint32, first, count int, indices []int) {
	tgt := ctx.boundTarget()
	if tgt == nil {
		ctx.setErr(InvalidFramebufferOperation)
		return
	}
	ctx.mu.Lock()
	ctx.fixed.init()
	f := &ctx.fixed
	if !f.vertex.enabled || f.vertex.data == nil {
		ctx.mu.Unlock()
		ctx.setErr(InvalidOperation)
		return
	}
	mvp := f.projection[len(f.projection)-1].MulMat(f.modelview[len(f.modelview)-1])
	vertexArr := f.vertex
	colorArr := f.colorArr
	texArr := f.texcoord
	curColor := f.color
	textured := f.texEnabled
	texID := ctx.boundTex[0]
	ctx.mu.Unlock()

	var tex *gpu.Texture
	if textured {
		if to := ctx.lookupTexture(texID); to != nil && to.img != nil {
			tex = &gpu.Texture{Img: to.img, Repeat: to.repeat}
		}
	}

	verts := make([]gpu.TVert, count)
	for i := 0; i < count; i++ {
		vi := first + i
		var pos gpu.Vec4
		pos[3] = 1
		for c := 0; c < vertexArr.size && vi*vertexArr.size+c < len(vertexArr.data); c++ {
			pos[c] = vertexArr.data[vi*vertexArr.size+c]
		}
		col := curColor
		if colorArr.enabled && colorArr.data != nil {
			for c := 0; c < colorArr.size && vi*colorArr.size+c < len(colorArr.data); c++ {
				col[c] = colorArr.data[vi*colorArr.size+c]
			}
		}
		var uv gpu.Vec4
		if texArr.enabled && texArr.data != nil {
			for c := 0; c < texArr.size && vi*texArr.size+c < len(texArr.data); c++ {
				uv[c] = texArr.data[vi*texArr.size+c]
			}
		}
		verts[i] = gpu.TVert{Pos: mvp.MulVec(pos), Vary: []gpu.Vec4{col, uv}}
	}

	var frag *minisl.Binding
	if tex != nil {
		frag = fixedTextured.Bind()
		frag.Set(0, minisl.Sampler(tex)) // u_tex, its only uniform
	} else {
		frag = fixedColor.Bind()
	}

	// Rasterize on the kernel's bounded worker pool, as in the GLES 2 path.
	st := ctx.renderState()
	st.Pool = t.Kernel().RasterPool()
	var stats gpu.Stats
	if mode == Lines {
		stats = gpu.DrawLines(tgt, verts, indices, frag, st)
	} else {
		stats = gpu.DrawTriangles(tgt, verts, expandMode(mode, indices), frag, st)
	}
	ctx.chargeStats(t, stats, false)
}
