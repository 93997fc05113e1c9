package engine

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cycada/internal/sim/gpu"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// fakeReg is a TLSRegistrar for tests (the real one is the platform libc).
type fakeReg struct {
	next    int
	deleted []int
}

func (r *fakeReg) CreateKey(string) int { r.next++; return r.next + 100 }
func (r *fakeReg) DeleteKey(k int)      { r.deleted = append(r.deleted, k) }

func tegraProfile() Profile {
	return Profile{
		Vendor:     "NVIDIA Corporation",
		Renderer:   "NVIDIA Tegra 3",
		Versions:   []int{1, 2},
		Extensions: []string{"GL_NV_fence", "GL_OES_EGL_image"},
		Policy:     PolicyCreatorOnly,
		Persona:    kernel.PersonaAndroid,
	}
}

func appleProfile() Profile {
	p := tegraProfile()
	p.Vendor = "Apple Inc."
	p.Renderer = "PowerVR SGX 543"
	p.Extensions = []string{"GL_APPLE_fence", "GL_APPLE_row_bytes", "GL_OES_EGL_image"}
	p.Policy = PolicyAnyThread
	p.Persona = kernel.PersonaIOS
	return p
}

func newEnv(t *testing.T) (*kernel.Process, *kernel.Thread, *Lib) {
	t.Helper()
	k := kernel.New(kernel.Config{Platform: vclock.Nexus7(), Flavor: vclock.KernelCycada})
	p, err := k.NewProcess("app", kernel.PersonaAndroid, kernel.PersonaIOS)
	if err != nil {
		t.Fatal(err)
	}
	return p, p.Main(), NewLib(tegraProfile(), &fakeReg{})
}

func mustCtx(t *testing.T, l *Lib, th *kernel.Thread, version int) *Context {
	t.Helper()
	ctx, err := l.CreateContext(th, version, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.MakeCurrent(th, ctx); err != nil {
		t.Fatal(err)
	}
	return ctx
}

func attachTarget(ctx *Context, w, h int) *gpu.Image {
	img := gpu.NewImage(w, h)
	ctx.SetDefaultTarget(gpu.NewTarget(img))
	return img
}

func TestCreateContextVersionCheck(t *testing.T) {
	_, th, l := newEnv(t)
	if _, err := l.CreateContext(th, 3, nil); err == nil {
		t.Fatal("GLES 3 context created on a v1/v2 profile")
	}
	ctx := mustCtx(t, l, th, 2)
	if ctx.Version() != 2 || ctx.Creator() != th {
		t.Fatal("context metadata wrong")
	}
	if l.Contexts() != 1 {
		t.Fatal("context not registered")
	}
	l.DestroyContext(ctx)
	if l.Contexts() != 0 {
		t.Fatal("context not destroyed")
	}
}

func TestMakeCurrentCreatorOnlyPolicy(t *testing.T) {
	p, _, l := newEnv(t)
	worker := p.NewThread("worker") // non-leader creator
	observer := p.NewThread("observer")

	ctx, err := l.CreateContext(worker, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The Android restriction (paper §7): another thread may not use it…
	if err := l.MakeCurrent(observer, ctx); !errors.Is(err, ErrWrongThread) {
		t.Fatalf("err = %v, want ErrWrongThread", err)
	}
	// …but the creator itself may.
	if err := l.MakeCurrent(worker, ctx); err != nil {
		t.Fatal(err)
	}
	// And a context created by the group leader is usable anywhere.
	leaderCtx, err := l.CreateContext(p.Main(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.MakeCurrent(observer, leaderCtx); err != nil {
		t.Fatalf("leader context rejected on other thread: %v", err)
	}
}

func TestMakeCurrentAnyThreadPolicy(t *testing.T) {
	k := kernel.New(kernel.Config{Platform: vclock.IPadMini()})
	p, err := k.NewProcess("iosapp", kernel.PersonaIOS)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLib(appleProfile(), &fakeReg{})
	worker := p.NewThread("worker")
	other := p.NewThread("other")
	ctx, err := l.CreateContext(worker, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// iOS: any thread may use any context (paper §7).
	if err := l.MakeCurrent(other, ctx); err != nil {
		t.Fatalf("iOS policy rejected cross-thread use: %v", err)
	}
}

func TestCurrentContextLivesInTLS(t *testing.T) {
	p, th, l := newEnv(t)
	ctx := mustCtx(t, l, th, 2)
	v, ok := th.TLSGet(kernel.PersonaAndroid, l.TLSKey())
	if !ok || v.(*Context) != ctx {
		t.Fatal("current context not stored in android-persona TLS")
	}
	// Migrating the slot to another thread (what impersonation does) makes
	// the context current there without a MakeCurrent call.
	other := p.NewThread("imp")
	if err := other.TLSSet(kernel.PersonaAndroid, l.TLSKey(), ctx); err != nil {
		t.Fatal(err)
	}
	if l.Current(other) != ctx {
		t.Fatal("TLS-migrated context not visible via Current")
	}
	if err := l.MakeCurrent(th, nil); err != nil {
		t.Fatal(err)
	}
	if l.Current(th) != nil {
		t.Fatal("MakeCurrent(nil) did not clear")
	}
}

func TestMakeCurrentRejectsForeignReplicaContext(t *testing.T) {
	_, th, l := newEnv(t)
	other := NewLib(tegraProfile(), &fakeReg{})
	ctx, err := other.CreateContext(th, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.MakeCurrent(th, ctx); err == nil {
		t.Fatal("context from another lib instance accepted")
	}
}

func TestClearFillsTarget(t *testing.T) {
	_, th, l := newEnv(t)
	ctx := mustCtx(t, l, th, 2)
	img := attachTarget(ctx, 8, 8)
	l.ClearColor(th, 1, 0, 0, 1)
	l.Clear(th, ColorBufferBit)
	if got := img.At(4, 4); got.R != 255 || got.G != 0 {
		t.Fatalf("clear color = %v", got)
	}
	if l.GetError(th) != NoError {
		t.Fatal("unexpected GL error")
	}
}

func TestClearWithoutTargetSetsError(t *testing.T) {
	_, th, l := newEnv(t)
	mustCtx(t, l, th, 2)
	l.Clear(th, ColorBufferBit)
	if got := l.GetError(th); got != InvalidFramebufferOperation {
		t.Fatalf("error = %#x, want INVALID_FRAMEBUFFER_OPERATION", got)
	}
	if got := l.GetError(th); got != NoError {
		t.Fatal("GetError did not clear the sticky error")
	}
}

const testVS = `
attribute vec4 a_pos;
attribute vec2 a_uv;
varying vec2 v_uv;
void main() { gl_Position = a_pos; v_uv = a_uv; }
`

const testFS = `
varying vec2 v_uv;
uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_uv); }
`

const solidFS = `
uniform vec4 u_color;
void main() { gl_FragColor = u_color; }
`

func buildProgram(t *testing.T, l *Lib, th *kernel.Thread, vsSrc, fsSrc string) uint32 {
	t.Helper()
	vs := l.CreateShader(th, VertexShaderKind)
	l.ShaderSource(th, vs, vsSrc)
	l.CompileShader(th, vs)
	if l.GetShaderiv(th, vs, CompileStatus) != 1 {
		t.Fatalf("VS compile: %s", l.GetShaderInfoLog(th, vs))
	}
	fs := l.CreateShader(th, FragmentShaderKind)
	l.ShaderSource(th, fs, fsSrc)
	l.CompileShader(th, fs)
	if l.GetShaderiv(th, fs, CompileStatus) != 1 {
		t.Fatalf("FS compile: %s", l.GetShaderInfoLog(th, fs))
	}
	prog := l.CreateProgram(th)
	l.AttachShader(th, prog, vs)
	l.AttachShader(th, prog, fs)
	l.LinkProgram(th, prog)
	if l.GetProgramiv(th, prog, LinkStatus) != 1 {
		t.Fatalf("link: %s", l.GetProgramInfoLog(th, prog))
	}
	return prog
}

var quadPos = []float32{-1, -1, 0, 1, 1, -1, 0, 1, 1, 1, 0, 1, -1, 1, 0, 1}
var quadUV = []float32{0, 1, 1, 1, 1, 0, 0, 0}
var quadIdx = []uint16{0, 1, 2, 0, 2, 3}

func TestProgrammableDrawSolid(t *testing.T) {
	_, th, l := newEnv(t)
	ctx := mustCtx(t, l, th, 2)
	img := attachTarget(ctx, 16, 16)

	prog := buildProgram(t, l, th, "attribute vec4 a_pos; void main(){gl_Position = a_pos;}", solidFS)
	l.UseProgram(th, prog)
	loc := l.GetAttribLocation(th, prog, "a_pos")
	if loc < 0 {
		t.Fatal("a_pos location missing")
	}
	l.VertexAttribPointer(th, loc, 4, quadPos)
	l.EnableVertexAttribArray(th, loc)
	uloc := l.GetUniformLocation(th, prog, "u_color")
	l.Uniform4f(th, uloc, 0, 1, 0, 1)
	l.DrawElements(th, Triangles, quadIdx)
	if got := img.At(8, 8); got.G != 255 || got.R != 0 {
		t.Fatalf("pixel = %v, want green", got)
	}
	if e := l.GetError(th); e != NoError {
		t.Fatalf("GL error %#x", e)
	}
}

func TestProgrammableDrawTextured(t *testing.T) {
	_, th, l := newEnv(t)
	ctx := mustCtx(t, l, th, 2)
	img := attachTarget(ctx, 8, 8)

	texData := make([]byte, 4*4*4)
	for i := 0; i < len(texData); i += 4 {
		texData[i] = 0
		texData[i+1] = 0
		texData[i+2] = 255
		texData[i+3] = 255
	}
	texs := l.GenTextures(th, 1)
	l.BindTexture(th, Texture2D, texs[0])
	l.TexImage2D(th, 4, 4, gpu.FormatRGBA8888, texData)

	prog := buildProgram(t, l, th, testVS, testFS)
	l.UseProgram(th, prog)
	posLoc := l.GetAttribLocation(th, prog, "a_pos")
	uvLoc := l.GetAttribLocation(th, prog, "a_uv")
	l.VertexAttribPointer(th, posLoc, 4, quadPos)
	l.EnableVertexAttribArray(th, posLoc)
	l.VertexAttribPointer(th, uvLoc, 2, quadUV)
	l.EnableVertexAttribArray(th, uvLoc)
	l.Uniform1i(th, l.GetUniformLocation(th, prog, "u_tex"), 0)
	l.DrawElements(th, Triangles, quadIdx)

	if got := img.At(4, 4); got.B != 255 {
		t.Fatalf("pixel = %v, want blue from texture", got)
	}
}

// colourVS hands an attribute, as the shader reads it, to colourFS.
const colourVS = `
attribute vec4 a_pos;
attribute vec4 a_col;
varying vec4 v_col;
void main() { gl_Position = a_pos; v_col = a_col; }
`

const colourFS = `
varying vec4 v_col;
void main() { gl_FragColor = v_col; }
`

// TestAttributeWidths feeds attributes from pointers of another size than
// their declaration (GLES 2.0 §2.7). A vec4 fed by a size-2 or size-3
// pointer reads the missing components as (z, w) = (0, 1): it draws what a
// size-4 pointer holding them draws. A vec2 fed by a size-4 pointer reads
// its first two components: it draws what a size-2 pointer draws. A
// disabled attribute reads (0, 0, 0, 1).
func TestAttributeWidths(t *testing.T) {
	_, th, l := newEnv(t)
	ctx := mustCtx(t, l, th, 2)
	img := attachTarget(ctx, 8, 8)
	tex := make([]byte, 4*4*4)
	for i := range tex {
		tex[i] = byte(37 * i)
	}
	l.BindTexture(th, Texture2D, l.GenTextures(th, 1)[0])
	l.TexImage2D(th, 4, 4, gpu.FormatRGBA8888, tex)
	textured, coloured := buildProgram(t, l, th, testVS, testFS), buildProgram(t, l, th, colourVS, colourFS)
	// draw draws the quad through prog, each attribute from its pointer
	// (size, data), or disabled when data is nil, and returns the pixels.
	type ptr struct {
		size int
		data []float32
	}
	draw := func(prog uint32, attribs map[string]ptr) []byte {
		t.Helper()
		l.ClearColor(th, 0.5, 0.5, 0.5, 0.5)
		l.Clear(th, ColorBufferBit)
		l.UseProgram(th, prog)
		for name, a := range attribs {
			loc := l.GetAttribLocation(th, prog, name)
			if a.data == nil {
				l.DisableVertexAttribArray(th, loc)
				continue
			}
			l.VertexAttribPointer(th, loc, a.size, a.data)
			l.EnableVertexAttribArray(th, loc)
		}
		if loc := l.GetUniformLocation(th, prog, "u_tex"); loc >= 0 {
			l.Uniform1i(th, loc, 0)
		}
		l.DrawElements(th, Triangles, quadIdx)
		if e := l.GetError(th); e != NoError {
			t.Fatalf("GL error %#x", e)
		}
		return append([]byte(nil), img.Pix...)
	}
	// keep returns the first n of every 4 components of v.
	keep := func(v []float32, n int) []float32 {
		var out []float32
		for i := 0; i < len(v); i += 4 {
			out = append(out, v[i:i+n]...)
		}
		return out
	}
	pos4 := []float32{-1, -1, 0, 1, 1, -1, 0, 1, 1, 0.5, 0, 1, -0.5, 1, 0, 1}
	uv4 := []float32{0, 1, 7, -3, 1, 1, -2, 9, 1, 0, 0.5, 5, 0, 0, 3, 3}
	want := draw(textured, map[string]ptr{"a_pos": {4, pos4}, "a_uv": {2, keep(uv4, 2)}})
	for name, got := range map[string][]byte{
		"a_pos of size 2": draw(textured, map[string]ptr{"a_pos": {2, keep(pos4, 2)}, "a_uv": {2, keep(uv4, 2)}}),
		"a_pos of size 3": draw(textured, map[string]ptr{"a_pos": {3, keep(pos4, 3)}, "a_uv": {2, keep(uv4, 2)}}),
		"a_uv of size 4":  draw(textured, map[string]ptr{"a_pos": {4, pos4}, "a_uv": {4, uv4}}),
	} {
		if !bytes.Equal(got, want) {
			t.Errorf("%s drew other pixels than the declared width's pointer", name)
		}
	}
	zero := draw(textured, map[string]ptr{"a_pos": {4, pos4}, "a_uv": {2, make([]float32, 8)}})
	if got := draw(textured, map[string]ptr{"a_pos": {4, pos4}, "a_uv": {}}); !bytes.Equal(got, zero) {
		t.Error("a disabled vec2 drew other pixels than (0, 0)")
	}
	draw(coloured, map[string]ptr{"a_pos": {4, pos4}, "a_col": {}})
	if got := img.At(4, 4); got != (gpu.RGBA{A: 255}) {
		t.Errorf("a disabled vec4 shaded %v, want (0, 0, 0, 1)", got)
	}
	draw(coloured, map[string]ptr{"a_pos": {4, pos4}, "a_col": {1, []float32{1, 1, 1, 1}}})
	if got := img.At(4, 4); got != (gpu.RGBA{R: 255, A: 255}) {
		t.Errorf("a vec4 fed by a size-1 pointer of 1s shaded %v, want (1, 0, 0, 1)", got)
	}
}

func TestDrawWithVBO(t *testing.T) {
	_, th, l := newEnv(t)
	ctx := mustCtx(t, l, th, 2)
	img := attachTarget(ctx, 8, 8)
	prog := buildProgram(t, l, th, "attribute vec4 a_pos; void main(){gl_Position = a_pos;}", solidFS)
	l.UseProgram(th, prog)
	bufs := l.GenBuffers(th, 2)
	l.BindBuffer(th, ArrayBuffer, bufs[0])
	l.BufferData(th, ArrayBuffer, quadPos, nil)
	l.BindBuffer(th, ElementArrayBuffer, bufs[1])
	l.BufferData(th, ElementArrayBuffer, nil, quadIdx)
	loc := l.GetAttribLocation(th, prog, "a_pos")
	l.VertexAttribPointer(th, loc, 4, nil) // sources from bound VBO
	l.EnableVertexAttribArray(th, loc)
	l.Uniform4f(th, l.GetUniformLocation(th, prog, "u_color"), 1, 1, 0, 1)
	l.DrawElements(th, Triangles, nil) // indices from bound element buffer
	if got := img.At(4, 4); got.R != 255 || got.G != 255 {
		t.Fatalf("VBO draw pixel = %v, want yellow", got)
	}
}

func TestRenderToTextureFBO(t *testing.T) {
	_, th, l := newEnv(t)
	mustCtx(t, l, th, 2)

	texs := l.GenTextures(th, 1)
	l.BindTexture(th, Texture2D, texs[0])
	l.TexImage2D(th, 8, 8, gpu.FormatRGBA8888, nil)

	fbos := l.GenFramebuffers(th, 1)
	l.BindFramebuffer(th, Framebuffer, fbos[0])
	l.FramebufferTexture2D(th, texs[0])
	if st := l.CheckFramebufferStatus(th); st != FramebufferComplete {
		t.Fatalf("fbo status %#x", st)
	}
	l.ClearColor(th, 0, 0, 1, 1)
	l.Clear(th, ColorBufferBit)

	px := l.ReadPixels(th, 0, 0, 1, 1)
	if px[2] != 255 {
		t.Fatalf("render-to-texture pixel = %v, want blue", px)
	}
	l.BindFramebuffer(th, Framebuffer, 0)
	if l.BoundFramebuffer(th) != 0 {
		t.Fatal("default FBO not restored")
	}
}

func TestFixedFunctionPipeline(t *testing.T) {
	_, th, l := newEnv(t)
	ctx := mustCtx(t, l, th, 1)
	img := attachTarget(ctx, 16, 16)

	l.MatrixMode(th, Projection)
	l.LoadIdentity(th)
	l.Orthof(th, -1, 1, -1, 1, -1, 1)
	l.MatrixMode(th, ModelView)
	l.LoadIdentity(th)
	l.Color4f(th, 1, 0, 0, 1)
	l.EnableClientState(th, VertexArray)
	l.VertexPointer(th, 2, []float32{-1, -1, 1, -1, 1, 1, -1, 1})
	l.DrawArrays(th, TriangleFan, 0, 4)
	if got := img.At(8, 8); got.R != 255 {
		t.Fatalf("fixed-function pixel = %v, want red", got)
	}
}

func TestFixedFunctionMatrixStack(t *testing.T) {
	_, th, l := newEnv(t)
	ctx := mustCtx(t, l, th, 1)
	img := attachTarget(ctx, 16, 16)
	l.EnableClientState(th, VertexArray)
	// A small quad in the left half, translated to the right half.
	l.VertexPointer(th, 2, []float32{-0.4, -0.4, 0, -0.4, 0, 0, -0.4, 0})
	l.PushMatrix(th)
	l.Translatef(th, 0.7, 0, 0)
	l.Color4f(th, 0, 1, 0, 1)
	l.DrawArrays(th, TriangleFan, 0, 4)
	l.PopMatrix(th)
	right := img.At(12, 8)
	if right.G != 255 {
		t.Fatalf("translated quad missing on the right: %v", right)
	}
	// Stack underflow reports an error.
	l.PopMatrix(th)
	if e := l.GetError(th); e == NoError {
		t.Fatal("stack underflow not reported")
	}
	// Fixed-function calls on a v2 context are invalid.
	ctx2 := mustCtx(t, l, th, 2)
	_ = ctx2
	l.Rotatef(th, 90, 0, 0, 1)
	if e := l.GetError(th); e != InvalidOperation {
		t.Fatalf("v1 call on v2 context: error %#x", e)
	}
}

func TestEGLImageBindingAndDisassociation(t *testing.T) {
	_, th, l := newEnv(t)
	mustCtx(t, l, th, 2)
	shared := gpu.NewImage(4, 4)
	shared.Fill(gpu.RGBA{R: 9, G: 9, B: 9, A: 9})
	eglImg := NewEGLImage(shared)

	texs := l.GenTextures(th, 1)
	l.BindTexture(th, Texture2D, texs[0])
	l.EGLImageTargetTexture2D(th, eglImg)
	if !l.TextureBackedByEGLImage(th, texs[0]) {
		t.Fatal("texture not backed by EGLImage")
	}
	// §6.2: re-pointing the texture at a 1x1 private buffer via glTexImage2D
	// implicitly disassociates the external buffer.
	l.TexImage2D(th, 1, 1, gpu.FormatRGBA8888, []byte{0, 0, 0, 0})
	if l.TextureBackedByEGLImage(th, texs[0]) {
		t.Fatal("texture still bound to EGLImage after TexImage2D rebind")
	}
	// A destroyed EGLImage cannot be bound.
	eglImg.Destroy()
	l.EGLImageTargetTexture2D(th, eglImg)
	if e := l.GetError(th); e != InvalidValue {
		t.Fatalf("binding destroyed EGLImage: error %#x", e)
	}
}

func TestFences(t *testing.T) {
	_, th, l := newEnv(t)
	ctx := mustCtx(t, l, th, 2)
	attachTarget(ctx, 4, 4)
	ids := l.GenFences(th, "glGenFencesNV", 1)
	l.SetFence(th, "glSetFenceNV", ids[0])
	if l.TestFence(th, "glTestFenceNV", ids[0]) {
		t.Fatal("fence signaled before flush")
	}
	l.Flush(th)
	if !l.TestFence(th, "glTestFenceNV", ids[0]) {
		t.Fatal("fence not signaled after flush")
	}
	l.DeleteFences(th, "glDeleteFencesNV", ids)
	if l.TestFence(th, "glTestFenceNV", ids[0]) {
		t.Fatal("deleted fence still signals")
	}
	if e := l.GetError(th); e != InvalidOperation {
		t.Fatalf("using deleted fence: error %#x", e)
	}
}

func TestAppleRowBytesGatedByExtension(t *testing.T) {
	// Tegra rejects the Apple parameter…
	_, th, l := newEnv(t)
	mustCtx(t, l, th, 2)
	l.PixelStorei(th, UnpackRowBytesApple, 64)
	if e := l.GetError(th); e != InvalidEnum {
		t.Fatalf("Tegra accepted APPLE_row_bytes: error %#x", e)
	}
	// …the Apple library accepts it.
	k := kernel.New(kernel.Config{Platform: vclock.IPadMini()})
	p, _ := k.NewProcess("iosapp", kernel.PersonaIOS)
	al := NewLib(appleProfile(), &fakeReg{})
	ith := p.Main()
	ctx, err := al.CreateContext(ith, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := al.MakeCurrent(ith, ctx); err != nil {
		t.Fatal(err)
	}
	al.PixelStorei(ith, UnpackRowBytesApple, 64)
	if e := al.GetError(ith); e != NoError {
		t.Fatalf("Apple rejected APPLE_row_bytes: error %#x", e)
	}
	if al.UnpackRowBytes(ith) != 64 {
		t.Fatal("row bytes state not stored")
	}
}

func TestGetString(t *testing.T) {
	_, th, l := newEnv(t)
	mustCtx(t, l, th, 2)
	if got := l.GetString(th, Vendor); got != "NVIDIA Corporation" {
		t.Fatalf("vendor = %q", got)
	}
	if got := l.GetString(th, Extensions); !strings.Contains(got, "GL_NV_fence") {
		t.Fatalf("extensions = %q", got)
	}
	if got := l.GetString(th, VersionQ); got != "OpenGL ES 2.0" {
		t.Fatalf("version = %q", got)
	}
	if l.GetString(th, 0xDEAD) != "" || l.GetError(th) != InvalidEnum {
		t.Fatal("bad enum not rejected")
	}
}

func TestShareGroupSharesTextures(t *testing.T) {
	_, th, l := newEnv(t)
	share := NewShareGroup()
	a, err := l.CreateContext(th, 2, share)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.CreateContext(th, 2, share)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.MakeCurrent(th, a); err != nil {
		t.Fatal(err)
	}
	texs := l.GenTextures(th, 1)
	l.BindTexture(th, Texture2D, texs[0])
	l.TexImage2D(th, 2, 2, gpu.FormatRGBA8888, nil)
	if err := l.MakeCurrent(th, b); err != nil {
		t.Fatal(err)
	}
	l.BindTexture(th, Texture2D, texs[0])
	l.TexSubImage2D(th, 0, 0, 1, 1, gpu.FormatRGBA8888, []byte{1, 2, 3, 4})
	if e := l.GetError(th); e != NoError {
		t.Fatalf("shared texture not visible in second context: %#x", e)
	}
}

func TestDrawChargesGPUWork(t *testing.T) {
	_, th, l := newEnv(t)
	ctx := mustCtx(t, l, th, 2)
	attachTarget(ctx, 64, 64)
	prog := buildProgram(t, l, th, "attribute vec4 a_pos; void main(){gl_Position = a_pos;}", solidFS)
	l.UseProgram(th, prog)
	loc := l.GetAttribLocation(th, prog, "a_pos")
	l.VertexAttribPointer(th, loc, 4, quadPos)
	l.EnableVertexAttribArray(th, loc)
	before := th.VTime()
	l.DrawElements(th, Triangles, quadIdx)
	drawCost := th.VTime() - before
	if drawCost < 4*1000 { // 64x64 pixels at ≥1ns each
		t.Fatalf("fullscreen draw cost %v suspiciously low", drawCost)
	}
	// Flush drains a fraction of accumulated work, so it must cost at least
	// the base cost and scale with pending work.
	before = th.VTime()
	l.Flush(th)
	flushCost := th.VTime() - before
	if flushCost < vclock.Duration(20*vclock.Microsecond) {
		t.Fatalf("flush cost %v below base", flushCost)
	}
	before = th.VTime()
	l.Flush(th)
	second := th.VTime() - before
	if second >= flushCost {
		t.Fatalf("second flush (%v) should be cheaper than first (%v): backlog drained", second, flushCost)
	}
}

func TestCallCounts(t *testing.T) {
	_, th, l := newEnv(t)
	ctx := mustCtx(t, l, th, 2)
	attachTarget(ctx, 4, 4)
	l.Clear(th, ColorBufferBit)
	l.Clear(th, ColorBufferBit)
	if got := l.CallCount("glClear"); got != 2 {
		t.Fatalf("glClear count = %d, want 2", got)
	}
}

func TestFinalizeReleasesTLSKey(t *testing.T) {
	reg := &fakeReg{}
	l := NewLib(tegraProfile(), reg)
	key := l.TLSKey()
	l.Finalize()
	if len(reg.deleted) != 1 || reg.deleted[0] != key {
		t.Fatalf("Finalize deleted %v, want [%d]", reg.deleted, key)
	}
}

func TestNoCurrentContextIsSafe(t *testing.T) {
	_, th, l := newEnv(t)
	// Every entry point must be a safe no-op without a context.
	l.Clear(th, ColorBufferBit)
	l.DrawArrays(th, Triangles, 0, 3)
	l.GenTextures(th, 1)
	l.Flush(th)
	l.UseProgram(th, 1)
	if l.GetError(th) != NoError {
		t.Fatal("no-context calls produced an error")
	}
}
