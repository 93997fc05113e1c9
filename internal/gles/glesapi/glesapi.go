// Package glesapi is the typed GLES facade application code programs
// against. It resolves entry points by name through a dynamic-linker handle
// — exactly how a real binary binds its imports — so the same app code runs
// unmodified against the Apple vendor library (native iOS), the Tegra vendor
// library (Android apps), or Cycada's diplomatic GLES library (iOS apps on
// Android), which is the binary-compatibility property the paper is about.
//
// The typed wrappers use the callconv fast path: each entry point's name is
// interned once into a package-level FuncID, arguments travel in a pooled
// typed frame, and resolution goes through the linker's lock-free flat
// cache — so a facade call reaches the bound library without boxing its
// arguments or hashing a name. Call, the by-name entry for runtime-built
// argument lists, frames its list once and takes the same path: every GLES
// library exports its entry points only as typed frames.
package glesapi

import (
	"fmt"
	"sync/atomic"

	"cycada/internal/core/callconv"
	"cycada/internal/gles/engine"
	"cycada/internal/linker"
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/kernel"
)

// Interned entry-point IDs, assigned once at package init. The IDs index the
// linker's per-library resolution cache, replacing the facade's old
// mutex-guarded map[string]Symbol.
var (
	fidGetError                 = callconv.Intern("glGetError")
	fidGetString                = callconv.Intern("glGetString")
	fidClearColor               = callconv.Intern("glClearColor")
	fidClear                    = callconv.Intern("glClear")
	fidEnable                   = callconv.Intern("glEnable")
	fidDisable                  = callconv.Intern("glDisable")
	fidBlendFunc                = callconv.Intern("glBlendFunc")
	fidViewport                 = callconv.Intern("glViewport")
	fidScissor                  = callconv.Intern("glScissor")
	fidGenTextures              = callconv.Intern("glGenTextures")
	fidBindTexture              = callconv.Intern("glBindTexture")
	fidActiveTexture            = callconv.Intern("glActiveTexture")
	fidTexImage2D               = callconv.Intern("glTexImage2D")
	fidTexSubImage2D            = callconv.Intern("glTexSubImage2D")
	fidTexParameteri            = callconv.Intern("glTexParameteri")
	fidDeleteTextures           = callconv.Intern("glDeleteTextures")
	fidPixelStorei              = callconv.Intern("glPixelStorei")
	fidReadPixels               = callconv.Intern("glReadPixels")
	fidFlush                    = callconv.Intern("glFlush")
	fidFinish                   = callconv.Intern("glFinish")
	fidGenBuffers               = callconv.Intern("glGenBuffers")
	fidBindBuffer               = callconv.Intern("glBindBuffer")
	fidBufferData               = callconv.Intern("glBufferData")
	fidDeleteBuffers            = callconv.Intern("glDeleteBuffers")
	fidGenFramebuffers          = callconv.Intern("glGenFramebuffers")
	fidBindFramebuffer          = callconv.Intern("glBindFramebuffer")
	fidFramebufferTexture2D     = callconv.Intern("glFramebufferTexture2D")
	fidFramebufferRenderbuffer  = callconv.Intern("glFramebufferRenderbuffer")
	fidCheckFramebufferStatus   = callconv.Intern("glCheckFramebufferStatus")
	fidDeleteFramebuffers       = callconv.Intern("glDeleteFramebuffers")
	fidGenRenderbuffers         = callconv.Intern("glGenRenderbuffers")
	fidBindRenderbuffer         = callconv.Intern("glBindRenderbuffer")
	fidRenderbufferStorage      = callconv.Intern("glRenderbufferStorage")
	fidDeleteRenderbuffers      = callconv.Intern("glDeleteRenderbuffers")
	fidCreateShader             = callconv.Intern("glCreateShader")
	fidShaderSource             = callconv.Intern("glShaderSource")
	fidCompileShader            = callconv.Intern("glCompileShader")
	fidGetShaderiv              = callconv.Intern("glGetShaderiv")
	fidGetShaderInfoLog         = callconv.Intern("glGetShaderInfoLog")
	fidCreateProgram            = callconv.Intern("glCreateProgram")
	fidAttachShader             = callconv.Intern("glAttachShader")
	fidLinkProgram              = callconv.Intern("glLinkProgram")
	fidGetProgramiv             = callconv.Intern("glGetProgramiv")
	fidGetProgramInfoLog        = callconv.Intern("glGetProgramInfoLog")
	fidUseProgram               = callconv.Intern("glUseProgram")
	fidGetAttribLocation        = callconv.Intern("glGetAttribLocation")
	fidGetUniformLocation       = callconv.Intern("glGetUniformLocation")
	fidUniform1i                = callconv.Intern("glUniform1i")
	fidUniform1f                = callconv.Intern("glUniform1f")
	fidUniform2f                = callconv.Intern("glUniform2f")
	fidUniform4f                = callconv.Intern("glUniform4f")
	fidUniformMatrix4fv         = callconv.Intern("glUniformMatrix4fv")
	fidVertexAttribPointer      = callconv.Intern("glVertexAttribPointer")
	fidEnableVertexAttribArray  = callconv.Intern("glEnableVertexAttribArray")
	fidDisableVertexAttribArray = callconv.Intern("glDisableVertexAttribArray")
	fidDrawArrays               = callconv.Intern("glDrawArrays")
	fidDrawElements             = callconv.Intern("glDrawElements")
	fidMatrixMode               = callconv.Intern("glMatrixMode")
	fidLoadIdentity             = callconv.Intern("glLoadIdentity")
	fidOrthof                   = callconv.Intern("glOrthof")
	fidFrustumf                 = callconv.Intern("glFrustumf")
	fidPushMatrix               = callconv.Intern("glPushMatrix")
	fidPopMatrix                = callconv.Intern("glPopMatrix")
	fidRotatef                  = callconv.Intern("glRotatef")
	fidTranslatef               = callconv.Intern("glTranslatef")
	fidScalef                   = callconv.Intern("glScalef")
	fidColor4f                  = callconv.Intern("glColor4f")
	fidEnableClientState        = callconv.Intern("glEnableClientState")
	fidDisableClientState       = callconv.Intern("glDisableClientState")
	fidVertexPointer            = callconv.Intern("glVertexPointer")
	fidColorPointer             = callconv.Intern("glColorPointer")
	fidTexCoordPointer          = callconv.Intern("glTexCoordPointer")
)

// GL is a bound GLES function table.
type GL struct {
	link *linker.Linker
	h    *linker.Handle
	// enc is the command encoder (encoder.go): while batching is on,
	// batchable calls are appended to a pooled batch and flushed across the
	// persona boundary in one impersonation window instead of one per call.
	// The gate is one atomic load on the facade hot path.
	batching atomic.Bool
	enc      Encoder
}

// New binds a facade over a loaded GLES-providing library.
func New(link *linker.Linker, h *linker.Handle) *GL {
	return &GL{link: link, h: h}
}

// symID resolves an entry point, like the paper's diplomat step 1 ("storing
// a pointer to the function in a locally-scoped static variable for
// efficient reuse"): the resolution is served from the linker's flat
// FuncID-indexed snapshot — one atomic load, no facade-side mutex or map.
// The typed wrappers bind fixed IDs that always resolve, so failure here is
// a facade construction bug and panics; the name-driven Call path resolves
// through DlsymID directly and returns errors instead.
func (g *GL) symID(id callconv.FuncID) linker.Symbol {
	s, err := g.link.DlsymID(g.h, id)
	if err != nil {
		panic(err)
	}
	return s
}

// call dispatches a filled frame through the bound symbol and releases the
// frame. With no observer active the whole round trip is allocation-free.
// When the command encoder is on, batchable calls are deferred into the
// pending batch instead (the frame's ownership moves to the batch) and the
// wrapper returns immediately — legal because every batchable call is void,
// which is also why the dispatch errors of the flushes it triggers are
// discarded, as the serial path discards them at the same wrappers.
func (g *GL) call(t *kernel.Thread, fr *callconv.Frame) any {
	if g.batching.Load() {
		if encoded, _ := g.enc.Encode(t, fr); encoded {
			return nil
		}
	}
	ret := g.symID(fr.ID()).CallFrame(t, fr)
	fr.Release()
	return ret
}

// Call invokes an arbitrary entry point by name (extension functions, replay
// dispatch). Unlike the typed wrappers — whose shapes are fixed at compile
// time and may rely on the internal builders' panics — Call is an API
// boundary fed with runtime-constructed argument lists, so it never panics:
// the list is framed once and takes the typed path of the wrappers, and an
// unresolvable name or an argument list no frame can carry (no real GLES
// entry point has such a shape) surfaces as an EINVAL-style error return.
func (g *GL) Call(t *kernel.Thread, name string, args ...any) any {
	id, ok := callconv.LookupID(name)
	if !ok {
		id = callconv.Intern(name)
	}
	if _, err := g.link.DlsymID(g.h, id); err != nil {
		return fmt.Errorf("glesapi: %w", err)
	}
	fr, err := callconv.FrameArgs(t, id, args)
	if err != nil {
		return fmt.Errorf("glesapi: %s: %w", name, err)
	}
	return g.call(t, fr)
}

// --- Typed wrappers for the surface the workloads use ---
//
// Each wrapper pushes its arguments into the frame in declaration order;
// the materialized []any view is identical — in order and Go types — to
// what the old variadic path boxed, which record/replay depends on.

func (g *GL) GetError(t *kernel.Thread) uint32 {
	v, _ := g.call(t, callconv.Acquire(fidGetError)).(uint32)
	return v
}

func (g *GL) GetString(t *kernel.Thread, name uint32) string {
	fr := callconv.Acquire(fidGetString)
	fr.PushU32(name)
	s, _ := g.call(t, fr).(string)
	return s
}

func (g *GL) ClearColor(t *kernel.Thread, r, gr, b, a float32) {
	fr := callconv.Acquire(fidClearColor)
	fr.PushF32(r)
	fr.PushF32(gr)
	fr.PushF32(b)
	fr.PushF32(a)
	g.call(t, fr)
}

func (g *GL) Clear(t *kernel.Thread, mask uint32) {
	fr := callconv.Acquire(fidClear)
	fr.PushU32(mask)
	g.call(t, fr)
}

func (g *GL) Enable(t *kernel.Thread, cap uint32) {
	fr := callconv.Acquire(fidEnable)
	fr.PushU32(cap)
	g.call(t, fr)
}

func (g *GL) Disable(t *kernel.Thread, cap uint32) {
	fr := callconv.Acquire(fidDisable)
	fr.PushU32(cap)
	g.call(t, fr)
}

func (g *GL) BlendFunc(t *kernel.Thread, s, d uint32) {
	fr := callconv.Acquire(fidBlendFunc)
	fr.PushU32(s)
	fr.PushU32(d)
	g.call(t, fr)
}

func (g *GL) Viewport(t *kernel.Thread, x, y, w, h int) {
	fr := callconv.Acquire(fidViewport)
	fr.PushInt(x)
	fr.PushInt(y)
	fr.PushInt(w)
	fr.PushInt(h)
	g.call(t, fr)
}

func (g *GL) Scissor(t *kernel.Thread, x, y, w, h int) {
	fr := callconv.Acquire(fidScissor)
	fr.PushInt(x)
	fr.PushInt(y)
	fr.PushInt(w)
	fr.PushInt(h)
	g.call(t, fr)
}

func (g *GL) GenTextures(t *kernel.Thread, n int) []uint32 {
	fr := callconv.Acquire(fidGenTextures)
	fr.PushInt(n)
	ids, _ := g.call(t, fr).([]uint32)
	return ids
}

func (g *GL) BindTexture(t *kernel.Thread, id uint32) {
	fr := callconv.Acquire(fidBindTexture)
	fr.PushU32(engine.Texture2D)
	fr.PushU32(id)
	g.call(t, fr)
}

func (g *GL) ActiveTexture(t *kernel.Thread, unit int) {
	fr := callconv.Acquire(fidActiveTexture)
	fr.PushInt(unit)
	g.call(t, fr)
}

func (g *GL) TexImage2D(t *kernel.Thread, w, h int, format gpu.Format, data []byte) {
	fr := callconv.Acquire(fidTexImage2D)
	fr.PushInt(w)
	fr.PushInt(h)
	fr.PushHandle(format)
	fr.PushBytes(data)
	g.call(t, fr)
}

func (g *GL) TexSubImage2D(t *kernel.Thread, x, y, w, h int, format gpu.Format, data []byte) {
	fr := callconv.Acquire(fidTexSubImage2D)
	fr.PushInt(x)
	fr.PushInt(y)
	fr.PushInt(w)
	fr.PushInt(h)
	fr.PushHandle(format)
	fr.PushBytes(data)
	g.call(t, fr)
}

func (g *GL) TexParameteri(t *kernel.Thread, pname uint32, v int) {
	fr := callconv.Acquire(fidTexParameteri)
	fr.PushU32(pname)
	fr.PushInt(v)
	g.call(t, fr)
}

func (g *GL) DeleteTextures(t *kernel.Thread, ids []uint32) {
	fr := callconv.Acquire(fidDeleteTextures)
	fr.PushHandle(ids)
	g.call(t, fr)
}

func (g *GL) PixelStorei(t *kernel.Thread, pname uint32, v int) {
	fr := callconv.Acquire(fidPixelStorei)
	fr.PushU32(pname)
	fr.PushInt(v)
	g.call(t, fr)
}

func (g *GL) ReadPixels(t *kernel.Thread, x, y, w, h int) []byte {
	fr := callconv.Acquire(fidReadPixels)
	fr.PushInt(x)
	fr.PushInt(y)
	fr.PushInt(w)
	fr.PushInt(h)
	b, _ := g.call(t, fr).([]byte)
	return b
}

func (g *GL) Flush(t *kernel.Thread)  { g.call(t, callconv.Acquire(fidFlush)) }
func (g *GL) Finish(t *kernel.Thread) { g.call(t, callconv.Acquire(fidFinish)) }

func (g *GL) GenBuffers(t *kernel.Thread, n int) []uint32 {
	fr := callconv.Acquire(fidGenBuffers)
	fr.PushInt(n)
	ids, _ := g.call(t, fr).([]uint32)
	return ids
}

func (g *GL) BindBuffer(t *kernel.Thread, target, id uint32) {
	fr := callconv.Acquire(fidBindBuffer)
	fr.PushU32(target)
	fr.PushU32(id)
	g.call(t, fr)
}

func (g *GL) BufferData(t *kernel.Thread, target uint32, verts []float32, elems []uint16) {
	fr := callconv.Acquire(fidBufferData)
	fr.PushU32(target)
	fr.PushFloats(verts)
	fr.PushHandle(elems)
	g.call(t, fr)
}

func (g *GL) DeleteBuffers(t *kernel.Thread, ids []uint32) {
	fr := callconv.Acquire(fidDeleteBuffers)
	fr.PushHandle(ids)
	g.call(t, fr)
}

func (g *GL) GenFramebuffers(t *kernel.Thread, n int) []uint32 {
	fr := callconv.Acquire(fidGenFramebuffers)
	fr.PushInt(n)
	ids, _ := g.call(t, fr).([]uint32)
	return ids
}

func (g *GL) BindFramebuffer(t *kernel.Thread, id uint32) {
	fr := callconv.Acquire(fidBindFramebuffer)
	fr.PushU32(engine.Framebuffer)
	fr.PushU32(id)
	g.call(t, fr)
}

func (g *GL) FramebufferTexture2D(t *kernel.Thread, tex uint32) {
	fr := callconv.Acquire(fidFramebufferTexture2D)
	fr.PushU32(tex)
	g.call(t, fr)
}

func (g *GL) FramebufferRenderbuffer(t *kernel.Thread, rb uint32) {
	fr := callconv.Acquire(fidFramebufferRenderbuffer)
	fr.PushU32(rb)
	g.call(t, fr)
}

func (g *GL) CheckFramebufferStatus(t *kernel.Thread) uint32 {
	v, _ := g.call(t, callconv.Acquire(fidCheckFramebufferStatus)).(uint32)
	return v
}

func (g *GL) DeleteFramebuffers(t *kernel.Thread, ids []uint32) {
	fr := callconv.Acquire(fidDeleteFramebuffers)
	fr.PushHandle(ids)
	g.call(t, fr)
}

func (g *GL) GenRenderbuffers(t *kernel.Thread, n int) []uint32 {
	fr := callconv.Acquire(fidGenRenderbuffers)
	fr.PushInt(n)
	ids, _ := g.call(t, fr).([]uint32)
	return ids
}

func (g *GL) BindRenderbuffer(t *kernel.Thread, id uint32) {
	fr := callconv.Acquire(fidBindRenderbuffer)
	fr.PushU32(engine.Renderbuffer)
	fr.PushU32(id)
	g.call(t, fr)
}

func (g *GL) RenderbufferStorage(t *kernel.Thread, w, h int) {
	fr := callconv.Acquire(fidRenderbufferStorage)
	fr.PushInt(w)
	fr.PushInt(h)
	g.call(t, fr)
}

func (g *GL) DeleteRenderbuffers(t *kernel.Thread, ids []uint32) {
	fr := callconv.Acquire(fidDeleteRenderbuffers)
	fr.PushHandle(ids)
	g.call(t, fr)
}

func (g *GL) CreateShader(t *kernel.Thread, kind uint32) uint32 {
	fr := callconv.Acquire(fidCreateShader)
	fr.PushU32(kind)
	v, _ := g.call(t, fr).(uint32)
	return v
}

func (g *GL) ShaderSource(t *kernel.Thread, id uint32, src string) {
	fr := callconv.Acquire(fidShaderSource)
	fr.PushU32(id)
	fr.PushStr(src)
	g.call(t, fr)
}

func (g *GL) CompileShader(t *kernel.Thread, id uint32) {
	fr := callconv.Acquire(fidCompileShader)
	fr.PushU32(id)
	g.call(t, fr)
}

func (g *GL) GetShaderiv(t *kernel.Thread, id, pname uint32) int {
	fr := callconv.Acquire(fidGetShaderiv)
	fr.PushU32(id)
	fr.PushU32(pname)
	v, _ := g.call(t, fr).(int)
	return v
}

func (g *GL) GetShaderInfoLog(t *kernel.Thread, id uint32) string {
	fr := callconv.Acquire(fidGetShaderInfoLog)
	fr.PushU32(id)
	s, _ := g.call(t, fr).(string)
	return s
}

func (g *GL) CreateProgram(t *kernel.Thread) uint32 {
	v, _ := g.call(t, callconv.Acquire(fidCreateProgram)).(uint32)
	return v
}

func (g *GL) AttachShader(t *kernel.Thread, prog, sh uint32) {
	fr := callconv.Acquire(fidAttachShader)
	fr.PushU32(prog)
	fr.PushU32(sh)
	g.call(t, fr)
}

func (g *GL) LinkProgram(t *kernel.Thread, prog uint32) {
	fr := callconv.Acquire(fidLinkProgram)
	fr.PushU32(prog)
	g.call(t, fr)
}

func (g *GL) GetProgramiv(t *kernel.Thread, prog, pname uint32) int {
	fr := callconv.Acquire(fidGetProgramiv)
	fr.PushU32(prog)
	fr.PushU32(pname)
	v, _ := g.call(t, fr).(int)
	return v
}

func (g *GL) GetProgramInfoLog(t *kernel.Thread, prog uint32) string {
	fr := callconv.Acquire(fidGetProgramInfoLog)
	fr.PushU32(prog)
	s, _ := g.call(t, fr).(string)
	return s
}

func (g *GL) UseProgram(t *kernel.Thread, prog uint32) {
	fr := callconv.Acquire(fidUseProgram)
	fr.PushU32(prog)
	g.call(t, fr)
}

func (g *GL) GetAttribLocation(t *kernel.Thread, prog uint32, name string) int {
	fr := callconv.Acquire(fidGetAttribLocation)
	fr.PushU32(prog)
	fr.PushStr(name)
	v, _ := g.call(t, fr).(int)
	return v
}

func (g *GL) GetUniformLocation(t *kernel.Thread, prog uint32, name string) int {
	fr := callconv.Acquire(fidGetUniformLocation)
	fr.PushU32(prog)
	fr.PushStr(name)
	v, _ := g.call(t, fr).(int)
	return v
}

func (g *GL) Uniform1i(t *kernel.Thread, loc, v int) {
	fr := callconv.Acquire(fidUniform1i)
	fr.PushInt(loc)
	fr.PushInt(v)
	g.call(t, fr)
}

func (g *GL) Uniform1f(t *kernel.Thread, loc int, v float32) {
	fr := callconv.Acquire(fidUniform1f)
	fr.PushInt(loc)
	fr.PushF32(v)
	g.call(t, fr)
}

func (g *GL) Uniform2f(t *kernel.Thread, loc int, x, y float32) {
	fr := callconv.Acquire(fidUniform2f)
	fr.PushInt(loc)
	fr.PushF32(x)
	fr.PushF32(y)
	g.call(t, fr)
}

func (g *GL) Uniform4f(t *kernel.Thread, loc int, x, y, z, w float32) {
	fr := callconv.Acquire(fidUniform4f)
	fr.PushInt(loc)
	fr.PushF32(x)
	fr.PushF32(y)
	fr.PushF32(z)
	fr.PushF32(w)
	g.call(t, fr)
}

func (g *GL) UniformMatrix4fv(t *kernel.Thread, loc int, m gpu.Mat4) {
	fr := callconv.Acquire(fidUniformMatrix4fv)
	fr.PushInt(loc)
	fr.PushHandle(m)
	g.call(t, fr)
}

func (g *GL) VertexAttribPointer(t *kernel.Thread, loc, size int, data []float32) {
	fr := callconv.Acquire(fidVertexAttribPointer)
	fr.PushInt(loc)
	fr.PushInt(size)
	fr.PushFloats(data)
	g.call(t, fr)
}

func (g *GL) EnableVertexAttribArray(t *kernel.Thread, loc int) {
	fr := callconv.Acquire(fidEnableVertexAttribArray)
	fr.PushInt(loc)
	g.call(t, fr)
}

func (g *GL) DisableVertexAttribArray(t *kernel.Thread, loc int) {
	fr := callconv.Acquire(fidDisableVertexAttribArray)
	fr.PushInt(loc)
	g.call(t, fr)
}

func (g *GL) DrawArrays(t *kernel.Thread, mode uint32, first, count int) {
	fr := callconv.Acquire(fidDrawArrays)
	fr.PushU32(mode)
	fr.PushInt(first)
	fr.PushInt(count)
	g.call(t, fr)
}

func (g *GL) DrawElements(t *kernel.Thread, mode uint32, indices []uint16) {
	fr := callconv.Acquire(fidDrawElements)
	fr.PushU32(mode)
	fr.PushHandle(indices)
	g.call(t, fr)
}

// --- GLES 1 fixed function ---

func (g *GL) MatrixMode(t *kernel.Thread, mode uint32) {
	fr := callconv.Acquire(fidMatrixMode)
	fr.PushU32(mode)
	g.call(t, fr)
}

func (g *GL) LoadIdentity(t *kernel.Thread) { g.call(t, callconv.Acquire(fidLoadIdentity)) }

func (g *GL) Orthof(t *kernel.Thread, l, r, b, tp, n, f float32) {
	fr := callconv.Acquire(fidOrthof)
	fr.PushF32(l)
	fr.PushF32(r)
	fr.PushF32(b)
	fr.PushF32(tp)
	fr.PushF32(n)
	fr.PushF32(f)
	g.call(t, fr)
}

func (g *GL) Frustumf(t *kernel.Thread, l, r, b, tp, n, f float32) {
	fr := callconv.Acquire(fidFrustumf)
	fr.PushF32(l)
	fr.PushF32(r)
	fr.PushF32(b)
	fr.PushF32(tp)
	fr.PushF32(n)
	fr.PushF32(f)
	g.call(t, fr)
}

func (g *GL) PushMatrix(t *kernel.Thread) { g.call(t, callconv.Acquire(fidPushMatrix)) }
func (g *GL) PopMatrix(t *kernel.Thread)  { g.call(t, callconv.Acquire(fidPopMatrix)) }

func (g *GL) Rotatef(t *kernel.Thread, a, x, y, z float32) {
	fr := callconv.Acquire(fidRotatef)
	fr.PushF32(a)
	fr.PushF32(x)
	fr.PushF32(y)
	fr.PushF32(z)
	g.call(t, fr)
}

func (g *GL) Translatef(t *kernel.Thread, x, y, z float32) {
	fr := callconv.Acquire(fidTranslatef)
	fr.PushF32(x)
	fr.PushF32(y)
	fr.PushF32(z)
	g.call(t, fr)
}

func (g *GL) Scalef(t *kernel.Thread, x, y, z float32) {
	fr := callconv.Acquire(fidScalef)
	fr.PushF32(x)
	fr.PushF32(y)
	fr.PushF32(z)
	g.call(t, fr)
}

func (g *GL) Color4f(t *kernel.Thread, r, gr, b, a float32) {
	fr := callconv.Acquire(fidColor4f)
	fr.PushF32(r)
	fr.PushF32(gr)
	fr.PushF32(b)
	fr.PushF32(a)
	g.call(t, fr)
}

func (g *GL) EnableClientState(t *kernel.Thread, arr uint32) {
	fr := callconv.Acquire(fidEnableClientState)
	fr.PushU32(arr)
	g.call(t, fr)
}

func (g *GL) DisableClientState(t *kernel.Thread, arr uint32) {
	fr := callconv.Acquire(fidDisableClientState)
	fr.PushU32(arr)
	g.call(t, fr)
}

func (g *GL) VertexPointer(t *kernel.Thread, size int, data []float32) {
	fr := callconv.Acquire(fidVertexPointer)
	fr.PushInt(size)
	fr.PushFloats(data)
	g.call(t, fr)
}

func (g *GL) ColorPointer(t *kernel.Thread, size int, data []float32) {
	fr := callconv.Acquire(fidColorPointer)
	fr.PushInt(size)
	fr.PushFloats(data)
	g.call(t, fr)
}

func (g *GL) TexCoordPointer(t *kernel.Thread, size int, data []float32) {
	fr := callconv.Acquire(fidTexCoordPointer)
	fr.PushInt(size)
	fr.PushFloats(data)
	g.call(t, fr)
}
