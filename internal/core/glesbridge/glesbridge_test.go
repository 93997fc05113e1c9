package glesbridge_test

import (
	"testing"

	"cycada/internal/core/callconv"
	"cycada/internal/core/diplomat"
	"cycada/internal/core/system"
	"cycada/internal/fault"
	"cycada/internal/gles/engine"
	"cycada/internal/gles/registry"
	"cycada/internal/ios/eagl"
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/kernel"
)

func app(t *testing.T) (*system.IOSApp, *kernel.Thread) {
	t.Helper()
	sys := system.New(system.Config{})
	a, err := sys.NewIOSApp(system.AppConfig{Name: "bridge-test"})
	if err != nil {
		t.Fatal(err)
	}
	th := a.Main()
	ctx, err := a.EAGL.NewContext(th, eagl.APIGLES2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.EAGL.SetCurrentContext(th, ctx); err != nil {
		t.Fatal(err)
	}
	return a, th
}

func TestEveryIOSFunctionIsBridged(t *testing.T) {
	a, _ := app(t)
	for _, name := range registry.IOSSurface() {
		if _, ok := a.Bridge.Library().Kind(name); !ok {
			t.Errorf("%s not bridged", name)
		}
	}
}

func TestRowBytesRepackingDecodesCorrectPixels(t *testing.T) {
	// §4.1: with APPLE_row_bytes set, row 1 of the upload starts at the
	// stride offset, not at the tight offset. Verify the decoded texels by
	// rendering the texture and reading pixels back.
	a, th := app(t)
	gl := a.GL

	gl.PixelStorei(th, engine.UnpackRowBytesApple, 16) // 2px RGBA rows padded to 16 bytes
	tex := gl.GenTextures(th, 1)
	gl.BindTexture(th, tex[0])
	data := make([]byte, 16*2)
	copy(data[0:], []byte{255, 0, 0, 255, 0, 255, 0, 255})    // row 0: red, green
	copy(data[16:], []byte{0, 0, 255, 255, 255, 255, 0, 255}) // row 1: blue, yellow
	gl.TexImage2D(th, 2, 2, gpu.FormatRGBA8888, data)
	gl.PixelStorei(th, engine.UnpackRowBytesApple, 0)
	if e := gl.GetError(th); e != engine.NoError {
		t.Fatalf("upload error %#x", e)
	}

	// Render the texture 1:1 into a 2x2 FBO and read it back.
	rtex := gl.GenTextures(th, 1)
	gl.ActiveTexture(th, 1)
	gl.BindTexture(th, rtex[0])
	gl.TexImage2D(th, 2, 2, gpu.FormatRGBA8888, nil)
	fbo := gl.GenFramebuffers(th, 1)
	gl.BindFramebuffer(th, fbo[0])
	gl.FramebufferTexture2D(th, rtex[0])
	gl.ActiveTexture(th, 0)

	vs := gl.CreateShader(th, engine.VertexShaderKind)
	gl.ShaderSource(th, vs, `
attribute vec4 a_pos;
attribute vec2 a_uv;
varying vec2 v_uv;
void main() { gl_Position = a_pos; v_uv = a_uv; }
`)
	gl.CompileShader(th, vs)
	fs := gl.CreateShader(th, engine.FragmentShaderKind)
	gl.ShaderSource(th, fs, `
varying vec2 v_uv;
uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_uv); }
`)
	gl.CompileShader(th, fs)
	prog := gl.CreateProgram(th)
	gl.AttachShader(th, prog, vs)
	gl.AttachShader(th, prog, fs)
	gl.LinkProgram(th, prog)
	gl.UseProgram(th, prog)
	gl.BindTexture(th, tex[0])
	gl.Uniform1i(th, gl.GetUniformLocation(th, prog, "u_tex"), 0)
	pos := gl.GetAttribLocation(th, prog, "a_pos")
	uv := gl.GetAttribLocation(th, prog, "a_uv")
	gl.VertexAttribPointer(th, pos, 4, []float32{-1, -1, 0, 1, 1, -1, 0, 1, 1, 1, 0, 1, -1, 1, 0, 1})
	gl.EnableVertexAttribArray(th, pos)
	gl.VertexAttribPointer(th, uv, 2, []float32{0, 1, 1, 1, 1, 0, 0, 0})
	gl.EnableVertexAttribArray(th, uv)
	gl.DrawElements(th, engine.Triangles, []uint16{0, 1, 2, 0, 2, 3})

	px := gl.ReadPixels(th, 0, 0, 2, 2)
	if len(px) != 16 {
		t.Fatalf("readback %d bytes", len(px))
	}
	// Texture row 0 (red, green) lands at the top of the framebuffer.
	checks := []struct {
		off  int
		want [3]byte
		name string
	}{
		{0, [3]byte{255, 0, 0}, "top-left red"},
		{4, [3]byte{0, 255, 0}, "top-right green"},
		{8, [3]byte{0, 0, 255}, "bottom-left blue"},
		{12, [3]byte{255, 255, 0}, "bottom-right yellow"},
	}
	for _, c := range checks {
		if px[c.off] != c.want[0] || px[c.off+1] != c.want[1] || px[c.off+2] != c.want[2] {
			t.Errorf("%s = %v, want %v (row-bytes repack broken)", c.name, px[c.off:c.off+3], c.want)
		}
	}
}

func TestReadPixelsPackRowBytes(t *testing.T) {
	a, th := app(t)
	gl := a.GL
	// Render target: 2x1 red.
	rtex := gl.GenTextures(th, 1)
	gl.BindTexture(th, rtex[0])
	gl.TexImage2D(th, 2, 1, gpu.FormatRGBA8888, []byte{255, 0, 0, 255, 255, 0, 0, 255})
	fbo := gl.GenFramebuffers(th, 1)
	gl.BindFramebuffer(th, fbo[0])
	gl.FramebufferTexture2D(th, rtex[0])

	gl.PixelStorei(th, engine.PackRowBytesApple, 32)
	px := gl.ReadPixels(th, 0, 0, 2, 1)
	gl.PixelStorei(th, engine.PackRowBytesApple, 0)
	if len(px) != 32 {
		t.Fatalf("packed readback %d bytes, want the 32-byte stride", len(px))
	}
	if px[0] != 255 || px[4] != 255 {
		t.Fatalf("pixels wrong: %v", px[:8])
	}
}

func TestIndirectTexStorage(t *testing.T) {
	a, th := app(t)
	gl := a.GL
	tex := gl.GenTextures(th, 1)
	gl.BindTexture(th, tex[0])
	// glTexStorage2DEXT(levels, format, w, h) allocates through glTexImage2D.
	gl.Call(th, "glTexStorage2DEXT", 1, gpu.FormatRGBA8888, 4, 4)
	gl.TexSubImage2D(th, 0, 0, 1, 1, gpu.FormatRGBA8888, []byte{1, 2, 3, 4})
	if e := gl.GetError(th); e != engine.NoError {
		t.Fatalf("storage not allocated: error %#x", e)
	}
	if k, _ := a.Bridge.Library().Kind("glTexStorage2DEXT"); k != diplomat.Indirect {
		t.Fatal("glTexStorage2DEXT not indirect")
	}
}

func TestDirectDiplomatsResolveUnadvertisedSymbols(t *testing.T) {
	// Direct diplomats for iOS-only extension functions resolve against the
	// Tegra library's unadvertised exports rather than failing.
	a, th := app(t)
	for _, name := range registry.TegraUnadvertised()[:5] {
		if ret := a.Bridge.Call(th, name); ret != nil {
			if _, isErr := ret.(error); isErr {
				t.Errorf("%s: %v", name, ret)
			}
		}
	}
}

func TestUnknownFunctionRejected(t *testing.T) {
	a, th := app(t)
	if ret := a.Bridge.Call(th, "glNotAFunction"); ret == nil {
		t.Fatal("unknown function accepted")
	} else if _, ok := ret.(error); !ok {
		t.Fatalf("ret = %v, want error", ret)
	}
}

func TestSymbolsExposeWholeSurface(t *testing.T) {
	a, _ := app(t)
	syms := a.Bridge.FrameSymbols()
	if len(syms) != 344 {
		t.Fatalf("symbol surface = %d, want 344", len(syms))
	}
}

// A batch reports the same error whether its window opened or batch_flush
// degraded it to serial calls: the first error in append order, here the
// unbridged frame's.
func TestCallBatchErrorIndependentOfWindow(t *testing.T) {
	var errs []string
	for _, rate := range []float64{0, 1} {
		a, th := app(t)
		th.Process().Kernel().SetFaultInjector(fault.NewInjector(fault.Schedule{
			Rate: rate, Points: []fault.Point{fault.PointBatchFlush},
		}))
		batch := callconv.AcquireBatch()
		batch.SetOwner(th)
		for _, name := range []string{"glFlush", "glNotAnIOSFunction", "glFlush"} {
			batch.Append(callconv.Acquire(callconv.Intern(name)))
		}
		err := a.Bridge.CallBatch(th, batch)
		batch.Release()
		if err == nil {
			t.Fatalf("batch_flush rate %v: the unbridged frame reported no error", rate)
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Fatalf("windowed batch returned %q, degraded batch %q", errs[0], errs[1])
	}
}
