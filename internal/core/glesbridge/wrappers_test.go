package glesbridge_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"cycada/internal/core/diplomat"
	"cycada/internal/core/glesbridge"
	"cycada/internal/gles/engine"
	"cycada/internal/gles/registry"
	"cycada/internal/linker"
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/kernel"
)

// indirectMinArgs lists the indirect wrappers that re-index their argument
// lists and therefore must reject short calls with EINVAL instead of
// panicking. Every other indirect wrapper forwards defensively.
var indirectMinArgs = map[string]int{
	"glRenderbufferStorageMultisampleAPPLE": 3,
	"glTexStorage2DEXT":                     4,
	"glTexStorage3DEXT":                     4,
	"glTextureStorage2DEXT":                 5,
}

func isEINVAL(ret any) bool {
	err, ok := ret.(error)
	return ok && err != nil && strings.Contains(err.Error(), "invalid arguments")
}

func TestIndirectWrappersRejectShortArgs(t *testing.T) {
	a, th := app(t)
	for _, name := range registry.BridgeIndirect() {
		min, reindexes := indirectMinArgs[name]
		if reindexes {
			if ret := a.Bridge.Call(th, name); !isEINVAL(ret) {
				t.Errorf("%s with no args = %v, want invalid-arguments error", name, ret)
			}
			short := make([]any, min-1)
			if ret := a.Bridge.Call(th, name, short...); !isEINVAL(ret) {
				t.Errorf("%s with %d args = %v, want invalid-arguments error", name, min-1, ret)
			}
			continue
		}
		// The forwarding wrappers must tolerate a short call without
		// panicking and without inventing an argument error.
		if ret := a.Bridge.Call(th, name); isEINVAL(ret) {
			t.Errorf("%s with no args = %v; forwarding wrapper should not EINVAL", name, ret)
		}
	}
	// The table above must keep covering the full indirect census.
	for name := range indirectMinArgs {
		if k, ok := a.Bridge.Library().Kind(name); !ok || k != diplomat.Indirect {
			t.Errorf("%s is not an indirect diplomat (kind %v)", name, k)
		}
	}
}

// fakeGLES is a domestic library whose glBindTexture fails while its
// glTexImage2D would succeed — the failure mode the glTextureStorage2DEXT
// wrapper used to swallow. Own exports shadow namespace peers, so both calls
// land here rather than on the real Tegra library.
type fakeGLES struct{ calls []string }

var errBindRejected = errors.New("fakegles: bind rejected")

func (f *fakeGLES) Symbols() map[string]linker.Fn {
	return map[string]linker.Fn{
		"glBindTexture": func(t *kernel.Thread, args ...any) any {
			f.calls = append(f.calls, "glBindTexture")
			return errBindRejected
		},
		"glTexImage2D": func(t *kernel.Thread, args ...any) any {
			f.calls = append(f.calls, "glTexImage2D")
			return nil
		},
	}
}

func TestTextureStorageSurfacesBindError(t *testing.T) {
	a, th := app(t)
	fake := &fakeGLES{}
	a.Linker.MustRegister(&linker.Blueprint{
		Name: "libfakegles.so",
		New: func(ctx *linker.LoadContext) (linker.Instance, error) {
			return fake, nil
		},
	})
	h, err := a.Linker.Dlopen(th, "libfakegles.so")
	if err != nil {
		t.Fatal(err)
	}
	fb, err := glesbridge.New(glesbridge.Config{
		Diplomat: diplomat.Config{
			Foreign:  kernel.PersonaIOS,
			Domestic: kernel.PersonaAndroid,
			Linker:   a.Linker,
			Library:  h,
		},
		EGLBridge: h,
	})
	if err != nil {
		t.Fatal(err)
	}

	ret := fb.Call(th, "glTextureStorage2DEXT", uint32(7), 1, gpu.FormatRGBA8888, 2, 2)
	rerr, ok := ret.(error)
	if !ok || rerr == nil {
		t.Fatalf("ret = %v, want the failed glBindTexture error", ret)
	}
	if !errors.Is(rerr, errBindRejected) {
		t.Fatalf("ret = %v, want the glBindTexture failure to surface", rerr)
	}
	// The storage allocation must not run against whatever texture happened
	// to be bound before the failed bind.
	for _, c := range fake.calls {
		if c == "glTexImage2D" {
			t.Fatal("glTexImage2D ran after the intermediate glBindTexture failed")
		}
	}
}

func TestRowBytesTruncatedUploadErrorsLikeTightPath(t *testing.T) {
	a, th := app(t)
	gl := a.GL
	tex := gl.GenTextures(th, 1)
	gl.BindTexture(th, tex[0])

	// 2x2 RGBA needs 16 bytes tight and 24 at a 16-byte stride; 12 bytes is
	// short for both, so the repacker must pass through and the engine must
	// reject it exactly as it does without row bytes.
	short := make([]byte, 12)
	gl.PixelStorei(th, engine.UnpackRowBytesApple, 16)
	gl.TexImage2D(th, 2, 2, gpu.FormatRGBA8888, short)
	gl.PixelStorei(th, engine.UnpackRowBytesApple, 0)
	withRB := gl.GetError(th)
	gl.TexImage2D(th, 2, 2, gpu.FormatRGBA8888, short)
	noRB := gl.GetError(th)
	if withRB != engine.InvalidValue || withRB != noRB {
		t.Fatalf("truncated upload: with row bytes %#x, without %#x, want both GL_INVALID_VALUE", withRB, noRB)
	}

	// Same contract on the sub-image path, against allocated storage.
	gl.TexImage2D(th, 4, 4, gpu.FormatRGBA8888, nil)
	if e := gl.GetError(th); e != engine.NoError {
		t.Fatalf("allocation failed: %#x", e)
	}
	gl.PixelStorei(th, engine.UnpackRowBytesApple, 16)
	gl.TexSubImage2D(th, 0, 0, 2, 2, gpu.FormatRGBA8888, short)
	gl.PixelStorei(th, engine.UnpackRowBytesApple, 0)
	withRB = gl.GetError(th)
	gl.TexSubImage2D(th, 0, 0, 2, 2, gpu.FormatRGBA8888, short)
	noRB = gl.GetError(th)
	if withRB != engine.InvalidValue || withRB != noRB {
		t.Fatalf("truncated sub-upload: with row bytes %#x, without %#x, want both GL_INVALID_VALUE", withRB, noRB)
	}
}

func TestRowBytesZeroSizeUpload(t *testing.T) {
	a, th := app(t)
	gl := a.GL
	tex := gl.GenTextures(th, 1)
	gl.BindTexture(th, tex[0])
	gl.PixelStorei(th, engine.UnpackRowBytesApple, 16)
	gl.TexImage2D(th, 0, 0, gpu.FormatRGBA8888, make([]byte, 16))
	gl.PixelStorei(th, engine.UnpackRowBytesApple, 0)
	if e := gl.GetError(th); e != engine.InvalidValue {
		t.Fatalf("zero-size upload with row bytes: error %#x, want GL_INVALID_VALUE", e)
	}
}

func TestRowBytesTightStrideIsPassthrough(t *testing.T) {
	a, th := app(t)
	gl := a.GL

	// A stride equal to the tight row length must behave exactly like no
	// row bytes at all, on both the upload and the readback side.
	tex := gl.GenTextures(th, 1)
	gl.BindTexture(th, tex[0])
	gl.PixelStorei(th, engine.UnpackRowBytesApple, 8) // rowLen for w=2
	gl.TexImage2D(th, 2, 1, gpu.FormatRGBA8888, []byte{255, 0, 0, 255, 255, 0, 0, 255})
	gl.PixelStorei(th, engine.UnpackRowBytesApple, 0)
	if e := gl.GetError(th); e != engine.NoError {
		t.Fatalf("tight-stride upload: error %#x", e)
	}

	fbo := gl.GenFramebuffers(th, 1)
	gl.BindFramebuffer(th, fbo[0])
	gl.FramebufferTexture2D(th, tex[0])
	base := gl.ReadPixels(th, 0, 0, 2, 1)
	gl.PixelStorei(th, engine.PackRowBytesApple, 8)
	tight := gl.ReadPixels(th, 0, 0, 2, 1)
	gl.PixelStorei(th, engine.PackRowBytesApple, 0)
	if !bytes.Equal(base, tight) {
		t.Fatalf("tight-stride readback differs: %v vs %v", tight, base)
	}
}

func TestRowBytesZeroSizeReadPixels(t *testing.T) {
	a, th := app(t)
	gl := a.GL
	tex := gl.GenTextures(th, 1)
	gl.BindTexture(th, tex[0])
	gl.TexImage2D(th, 2, 1, gpu.FormatRGBA8888, make([]byte, 8))
	fbo := gl.GenFramebuffers(th, 1)
	gl.BindFramebuffer(th, fbo[0])
	gl.FramebufferTexture2D(th, tex[0])

	gl.PixelStorei(th, engine.PackRowBytesApple, 32)
	px := gl.ReadPixels(th, 0, 0, 0, 0)
	gl.PixelStorei(th, engine.PackRowBytesApple, 0)
	if len(px) != 0 {
		t.Fatalf("zero-size readback with row bytes = %d bytes, want 0", len(px))
	}
}

func TestSymbolMapsAreCached(t *testing.T) {
	a, _ := app(t)
	f1, f2 := a.Bridge.FrameSymbols(), a.Bridge.FrameSymbols()
	if reflect.ValueOf(f1).Pointer() != reflect.ValueOf(f2).Pointer() {
		t.Fatal("FrameSymbols() rebuilt its closure map")
	}
	if len(f1) != 344 {
		t.Fatalf("frame surface = %d, want 344", len(f1))
	}
}
