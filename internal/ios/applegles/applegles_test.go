package applegles

import (
	"strings"
	"testing"

	"cycada/internal/android/libc"
	"cycada/internal/core/callconv"
	"cycada/internal/gles/engine"
	"cycada/internal/gles/registry"
	"cycada/internal/linker"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

func load(t *testing.T) (*kernel.Thread, *VendorLib, *linker.Linker) {
	t.Helper()
	k := kernel.New(kernel.Config{Platform: vclock.IPadMini()})
	p, err := k.NewProcess("app", kernel.PersonaIOS)
	if err != nil {
		t.Fatal(err)
	}
	l := linker.New(p)
	l.MustRegister(libc.New(kernel.PersonaIOS).Blueprint())
	l.MustRegister(Blueprint())
	h, err := l.Dlopen(p.Main(), LibName)
	if err != nil {
		t.Fatal(err)
	}
	return p.Main(), h.Instance().(*VendorLib), l
}

// call invokes one of v's frame symbols with a boxed argument list.
func call(t *testing.T, th *kernel.Thread, v *VendorLib, name string, args ...any) any {
	t.Helper()
	fn, ok := v.FrameSymbols()[name]
	if !ok {
		t.Fatalf("%s missing", name)
	}
	fr, framed, err := callconv.BuildFrame(callconv.Intern(name), args)
	if !framed || err != nil {
		t.Fatalf("BuildFrame(%s, %v) = (framed=%v, err=%v)", name, args, framed, err)
	}
	defer fr.Release()
	return fn(th, fr)
}

func TestAppleProfile(t *testing.T) {
	prof := AppleProfile()
	if prof.Vendor != "Apple Inc." || !strings.Contains(prof.Renderer, "PowerVR") {
		t.Fatalf("profile = %+v", prof)
	}
	if prof.Policy != engine.PolicyAnyThread {
		t.Fatal("Apple library must allow any-thread context use (§7)")
	}
	if len(prof.Extensions) != 50 {
		t.Fatalf("extensions = %d, want 50 (Table 1)", len(prof.Extensions))
	}
	if !prof.HasExtension("GL_APPLE_fence") || !prof.HasExtension("GL_APPLE_row_bytes") {
		t.Fatal("Apple extensions missing")
	}
	if prof.HasExtension("GL_NV_fence") {
		t.Fatal("NV_fence on iOS")
	}
}

func TestSurfaceIs344Functions(t *testing.T) {
	_, v, _ := load(t)
	syms := v.FrameSymbols()
	if got := len(syms); got != len(registry.IOSSurface()) {
		t.Fatalf("symbols = %d, want %d", got, len(registry.IOSSurface()))
	}
	if _, ok := syms["glSetFenceAPPLE"]; !ok {
		t.Fatal("glSetFenceAPPLE missing from the Apple library")
	}
	if _, ok := syms["glSetFenceNV"]; ok {
		t.Fatal("Apple library exports NV_fence")
	}
}

func TestAppleGetStringExtension(t *testing.T) {
	// The §4.1 data-dependent example exists because Apple's own library
	// honours a non-standard glGetString parameter.
	th, v, _ := load(t)
	ctx, err := v.Engine().CreateContext(th, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Engine().MakeCurrent(th, ctx); err != nil {
		t.Fatal(err)
	}
	got := call(t, th, v, "glGetString", engine.AppleExtensionsQ)
	s, ok := got.(string)
	if !ok || !strings.Contains(s, "GL_APPLE_fence") {
		t.Fatalf("Apple extensions query = %v", got)
	}
	if AppleExtensionString() != s {
		t.Fatal("AppleExtensionString mismatch")
	}
	// Standard parameters still work.
	if got := call(t, th, v, "glGetString", engine.Vendor); got != "Apple Inc." {
		t.Fatalf("vendor = %v", got)
	}
}

func TestAppleFenceFamilyWorks(t *testing.T) {
	th, v, _ := load(t)
	ctx, err := v.Engine().CreateContext(th, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Engine().MakeCurrent(th, ctx); err != nil {
		t.Fatal(err)
	}
	ids := call(t, th, v, "glGenFencesAPPLE", 1).([]uint32)
	call(t, th, v, "glSetFenceAPPLE", ids[0])
	if call(t, th, v, "glTestFenceAPPLE", ids[0]).(bool) {
		t.Fatal("fence signaled early")
	}
	call(t, th, v, "glFlush")
	if !call(t, th, v, "glTestFenceAPPLE", ids[0]).(bool) {
		t.Fatal("fence not signaled after flush")
	}
	call(t, th, v, "glDeleteFencesAPPLE", ids)
}
