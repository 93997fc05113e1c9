package gles

import (
	"strings"
	"testing"

	"cycada/internal/android/libc"
	"cycada/internal/core/callconv"
	"cycada/internal/gles/registry"
	"cycada/internal/linker"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

func load(t *testing.T) (*kernel.Thread, *VendorLib, *linker.Linker) {
	t.Helper()
	k := kernel.New(kernel.Config{Platform: vclock.Nexus7()})
	p, err := k.NewProcess("app", kernel.PersonaAndroid)
	if err != nil {
		t.Fatal(err)
	}
	l := linker.New(p)
	l.MustRegister(libc.New(kernel.PersonaAndroid).Blueprint())
	for _, bp := range SupportBlueprints() {
		l.MustRegister(bp)
	}
	l.MustRegister(Blueprint())
	h, err := l.Dlopen(p.Main(), LibName)
	if err != nil {
		t.Fatal(err)
	}
	return p.Main(), h.Instance().(*VendorLib), l
}

func TestTegraProfile(t *testing.T) {
	prof := TegraProfile()
	if prof.Vendor != "NVIDIA Corporation" || !strings.Contains(prof.Renderer, "Tegra") {
		t.Fatalf("profile = %+v", prof)
	}
	if !prof.Supports(1) || !prof.Supports(2) || prof.Supports(3) {
		t.Fatal("version support wrong")
	}
	if !prof.HasExtension("GL_NV_fence") {
		t.Fatal("NV_fence missing")
	}
	if prof.HasExtension("GL_APPLE_fence") {
		t.Fatal("APPLE_fence advertised on Tegra")
	}
	if len(prof.Extensions) != 60 {
		t.Fatalf("extensions = %d, want 60 (Table 1)", len(prof.Extensions))
	}
}

func TestSymbolSurfaceCoversAndroidPlusUnadvertised(t *testing.T) {
	_, v, _ := load(t)
	syms := v.FrameSymbols()
	for _, name := range registry.AndroidSurface() {
		if _, ok := syms[name]; !ok {
			t.Errorf("missing advertised symbol %s", name)
		}
	}
	for _, name := range registry.TegraUnadvertised() {
		if _, ok := syms[name]; !ok {
			t.Errorf("missing unadvertised symbol %s", name)
		}
	}
	// The Apple fence family must NOT be exported: that is what forces the
	// indirect diplomats.
	if _, ok := syms["glSetFenceAPPLE"]; ok {
		t.Error("Tegra exports glSetFenceAPPLE")
	}
}

func TestNVDependencyChainIsPrivatePerReplica(t *testing.T) {
	th, _, l := load(t)
	r1, err := l.Dlforce(th, LibName)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l.Dlforce(th, LibName)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate libnvrm state in replica 1; replica 2 must not see it (§8.1's
	// exact example).
	s1 := l.MustSym(r1, "nvrm_set")
	s1.Call(th, "mode", "fast")
	g2 := l.MustSym(r2, "nvrm_get")
	if got := g2.Call(th, "mode"); got != nil {
		t.Fatalf("replica 2 libnvrm saw %v", got)
	}
	g1 := l.MustSym(r1, "nvrm_get")
	if got := g1.Call(th, "mode"); got != "fast" {
		t.Fatalf("replica 1 libnvrm = %v", got)
	}
	if l.ConstructorRuns(NVOSName) != 3 {
		t.Fatalf("libnvos constructors = %d, want 3", l.ConstructorRuns(NVOSName))
	}
}

func TestStubSymbolsAreCallable(t *testing.T) {
	th, v, _ := load(t)
	// A stub entry point (never modelled) must be callable and counted.
	fn := v.FrameSymbols()["glStencilMask"]
	if fn == nil {
		t.Fatal("glStencilMask missing")
	}
	fr := callconv.Acquire(callconv.Intern("glStencilMask"))
	fr.PushU32(0xFF)
	fn(th, fr)
	fr.Release()
	if v.Engine().CallCount("glStencilMask") != 1 {
		t.Fatal("stub call not counted")
	}
}
