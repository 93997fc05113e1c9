package diplomat

import (
	"errors"
	"sync"
	"testing"

	"cycada/internal/core/callconv"
	"cycada/internal/core/profile"
	"cycada/internal/linker"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// domesticLib records the persona each call arrived in — the property
// diplomats exist to guarantee.
type domesticLib struct {
	calls    []string
	personas []kernel.Persona
	errno    int
}

func (d *domesticLib) Symbols() map[string]linker.Fn {
	rec := func(name string) linker.Fn {
		return func(t *kernel.Thread, args ...any) any {
			d.calls = append(d.calls, name)
			d.personas = append(d.personas, t.Persona())
			if d.errno != 0 {
				t.SetErrno(d.errno)
			}
			if len(args) > 0 {
				return args[0]
			}
			return "ret:" + name
		}
	}
	return map[string]linker.Fn{
		"glDoWork":  rec("glDoWork"),
		"glOther":   rec("glOther"),
		"aegl_help": rec("aegl_help"),
	}
}

func env(t *testing.T) (*kernel.Thread, Config, *domesticLib) {
	t.Helper()
	k := kernel.New(kernel.Config{Platform: vclock.Nexus7(), Flavor: vclock.KernelCycada})
	p, err := k.NewProcess("app", kernel.PersonaIOS, kernel.PersonaAndroid)
	if err != nil {
		t.Fatal(err)
	}
	lib := &domesticLib{}
	l := linker.New(p)
	l.MustRegister(&linker.Blueprint{
		Name: "libdomestic.so",
		New:  func(ctx *linker.LoadContext) (linker.Instance, error) { return lib, nil },
	})
	h, err := l.Dlopen(p.Main(), "libdomestic.so")
	if err != nil {
		t.Fatal(err)
	}
	return p.Main(), Config{
		Foreign:  kernel.PersonaIOS,
		Domestic: kernel.PersonaAndroid,
		Linker:   l,
		Library:  h,
	}, lib
}

func TestDirectDiplomatSwitchesPersona(t *testing.T) {
	th, cfg, lib := env(t)
	d, err := New(cfg, "glDoWork", Direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := th.Persona(); got != kernel.PersonaIOS {
		t.Fatalf("starting persona = %v", got)
	}
	ret := d.Call(th, 42)
	if ret != 42 {
		t.Fatalf("ret = %v, want echoed arg", ret)
	}
	// Step 6 ran in the domestic persona…
	if lib.personas[0] != kernel.PersonaAndroid {
		t.Fatalf("domestic call in persona %v", lib.personas[0])
	}
	// …steps 8+ switched back.
	if got := th.Persona(); got != kernel.PersonaIOS {
		t.Fatalf("persona after return = %v, want ios", got)
	}
}

func TestErrnoConversion(t *testing.T) {
	th, cfg, lib := env(t)
	lib.errno = 22
	d, err := New(cfg, "glDoWork", Direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Call(th)
	// Step 9: the domestic errno appears in the foreign persona's TLS.
	if got := th.ErrnoIn(kernel.PersonaIOS); got != 22 {
		t.Fatalf("foreign errno = %d, want 22", got)
	}
}

func TestPreludePostludeRunInForeignPersona(t *testing.T) {
	th, cfg, _ := env(t)
	var hookPersonas []kernel.Persona
	cfg.Hooks = &Hooks{
		GL:       true,
		Prelude:  func(t *kernel.Thread) { hookPersonas = append(hookPersonas, t.Persona()) },
		Postlude: func(t *kernel.Thread) { hookPersonas = append(hookPersonas, t.Persona()) },
	}
	d, err := New(cfg, "glDoWork", Direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Call(th)
	if len(hookPersonas) != 2 {
		t.Fatalf("hooks ran %d times", len(hookPersonas))
	}
	for i, p := range hookPersonas {
		if p != kernel.PersonaIOS {
			t.Fatalf("hook %d ran in %v, want the foreign persona", i, p)
		}
	}
}

func TestIndirectWrapperRedirects(t *testing.T) {
	th, cfg, lib := env(t)
	// APPLE→NV style: the diplomat named glSetFenceAPPLE calls glOther.
	d, err := New(cfg, "glSetFenceAPPLE", Indirect, func(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
		return domestic("glOther", args...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Call(th); got != "ret:glOther" {
		t.Fatalf("ret = %v", got)
	}
	if len(lib.calls) != 1 || lib.calls[0] != "glOther" {
		t.Fatalf("calls = %v", lib.calls)
	}
}

func TestDataDependentMayNotCallDomestic(t *testing.T) {
	th, cfg, lib := env(t)
	d, err := New(cfg, "glGetString", DataDependent, func(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
		if len(args) > 0 && args[0] == "apple-param" {
			return "" // foreign-side answer, no domestic call
		}
		return domestic("glDoWork", args...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Call(th, "apple-param"); got != "" {
		t.Fatalf("ret = %v", got)
	}
	if len(lib.calls) != 0 {
		t.Fatal("domestic function called for the Apple parameter")
	}
	if th.Persona() != kernel.PersonaIOS {
		t.Fatal("persona corrupted by a no-domestic-call diplomat")
	}
	d.Call(th, "other")
	if len(lib.calls) != 1 {
		t.Fatal("pass-through path did not call domestic")
	}
}

func TestMultiDiplomatTarget(t *testing.T) {
	th, cfg, lib := env(t)
	dl, err := NewLibrary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dl.AddMulti("glDeleteTextures", "aegl_help", nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Call(th)
	if len(lib.calls) != 1 || lib.calls[0] != "aegl_help" {
		t.Fatalf("calls = %v, want the coalesced helper", lib.calls)
	}
}

func TestUnimplementedReturnsError(t *testing.T) {
	th, cfg, lib := env(t)
	d, err := New(cfg, "glFenceSyncAPPLE", Unimplemented, nil)
	if err != nil {
		t.Fatal(err)
	}
	ret := d.Call(th)
	if e, ok := ret.(error); !ok || !errors.Is(e, ErrUnimplemented) {
		t.Fatalf("ret = %v", ret)
	}
	if len(lib.calls) != 0 {
		t.Fatal("unimplemented diplomat called something")
	}
}

func TestConstructionValidation(t *testing.T) {
	_, cfg, _ := env(t)
	w := func(*kernel.Thread, func(string, ...any) any, []any) any { return nil }
	if _, err := New(cfg, "x", Direct, w); err == nil {
		t.Error("direct with wrapper accepted")
	}
	if _, err := New(cfg, "x", Indirect, nil); err == nil {
		t.Error("indirect without wrapper accepted")
	}
	if _, err := New(cfg, "x", Kind(99), nil); err == nil {
		t.Error("bad kind accepted")
	}
	bad := cfg
	bad.Library = nil
	if _, err := New(bad, "x", Direct, nil); err == nil {
		t.Error("missing library accepted")
	}
}

func TestMissingSymbolSurfacesError(t *testing.T) {
	th, cfg, _ := env(t)
	d, err := New(cfg, "glNotExported", Direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	ret := d.Call(th)
	if e, ok := ret.(error); !ok || !errors.Is(e, linker.ErrNoSymbol) {
		t.Fatalf("ret = %v, want ErrNoSymbol", ret)
	}
}

func TestProfilerRecordsCalls(t *testing.T) {
	th, cfg, _ := env(t)
	prof := profile.New()
	cfg.Profiler = prof
	d, err := New(cfg, "glDoWork", Direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Call(th)
	d.Call(th)
	if prof.Calls("glDoWork") != 2 {
		t.Fatalf("profiled calls = %d", prof.Calls("glDoWork"))
	}
	if prof.Samples()[0].Total <= 0 {
		t.Fatal("no time recorded")
	}
}

// quietLib exports one symbol that touches no shared state, so concurrent
// calls through it share only what the diplomat itself shares.
type quietLib struct{}

func (quietLib) Symbols() map[string]linker.Fn {
	return map[string]linker.Fn{"glQuiet": func(*kernel.Thread, ...any) any { return 0 }}
}

// TestProfileMetricCreatedOnFirstCall checks that a diplomat creates its
// profile histogram on its first call, not when it is built, and that two
// threads making their first calls at once record into one histogram (run
// it under -race).
func TestProfileMetricCreatedOnFirstCall(t *testing.T) {
	th, cfg, _ := env(t)
	cfg.Linker.MustRegister(&linker.Blueprint{
		Name: "libquiet.so",
		New:  func(ctx *linker.LoadContext) (linker.Instance, error) { return quietLib{}, nil },
	})
	h, err := cfg.Linker.Dlopen(th, "libquiet.so")
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New()
	cfg.Library, cfg.Profiler = h, prof
	d, err := New(cfg, "glQuiet", Direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := prof.Histograms().Lookup("glQuiet"); ok {
		t.Fatal("histogram created before the first call")
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, caller := range []*kernel.Thread{th, th.Process().NewThread("second")} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			d.Call(caller)
		}()
	}
	close(start)
	wg.Wait()
	if n := prof.Calls("glQuiet"); n != 2 {
		t.Fatalf("two simultaneous first calls profiled %d calls, want 2", n)
	}
	d.Call(th)
	if n := prof.Calls("glQuiet"); n != 3 {
		t.Fatalf("profiled %d calls after a third, want 3", n)
	}
}

// Regression: Call must check for the Unimplemented kind before any
// profiling. The ten never-called Table 2 functions previously got a profile
// row recorded on every call, which would surface them in the Figure 7-10
// profiles.
func TestUnimplementedNotProfiled(t *testing.T) {
	th, cfg, _ := env(t)
	prof := profile.New()
	cfg.Profiler = prof
	d, err := New(cfg, "glFenceSyncAPPLE", Unimplemented, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := th.VTime()
	d.Call(th)
	d.Call(th)
	if n := prof.Calls("glFenceSyncAPPLE"); n != 0 {
		t.Fatalf("unimplemented diplomat profiled %d calls", n)
	}
	if s := prof.Samples(); len(s) != 0 {
		t.Fatalf("samples = %v, want none", s)
	}
	if th.VTime() != start {
		t.Fatal("unimplemented diplomat charged foreign-visible time")
	}
}

func TestLibraryCensus(t *testing.T) {
	_, cfg, _ := env(t)
	r, err := NewLibrary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("glDoWork", Direct, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddMulti("glOther", "aegl_help", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("glDoWork", Direct, nil); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	c := r.Census()
	if c[Direct] != 1 || c[Multi] != 1 {
		t.Fatalf("census = %v", c)
	}
	if k, ok := r.Kind("glOther"); !ok || k != Multi {
		t.Fatalf("Kind(glOther) = %v, %v", k, ok)
	}
	d, ok := r.Get("glOther")
	if !ok || r.ByID(callconv.Intern("glOther")) != d || r.ByID(callconv.Intern("glUnknown")) != nil {
		t.Fatal("the name and FuncID indexes disagree")
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Direct: "direct", Indirect: "indirect", DataDependent: "data-dependent",
		Multi: "multi", Unimplemented: "unimplemented", Kind(0): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// Table 3 cost structure: diplomat ≈ two persona-switch syscalls + fixed
// machinery, and the hook variants add their measured increments.
func TestCallCostStructure(t *testing.T) {
	th, cfg, _ := env(t)
	costs := th.Costs()
	measure := func(d *Diplomat) vclock.Duration {
		start := th.VTime()
		d.Call(th)
		return th.VTime() - start
	}
	bare, _ := New(cfg, "glDoWork", Direct, nil)
	bareCost := measure(bare)
	floor := costs.SyscallEntryCycadaIOS + costs.SyscallEntryCycada
	if bareCost <= floor {
		t.Fatalf("diplomat cost %v below two traps %v", bareCost, floor)
	}
	cfgE := cfg
	cfgE.Hooks = &Hooks{}
	withEmpty, _ := New(cfgE, "glDoWork", Direct, nil)
	emptyCost := measure(withEmpty)
	if emptyCost-bareCost != 2*costs.PreludeEmpty {
		t.Fatalf("empty hook delta = %v, want %v", emptyCost-bareCost, 2*costs.PreludeEmpty)
	}
	cfgG := cfg
	cfgG.Hooks = &Hooks{GL: true}
	withGL, _ := New(cfgG, "glDoWork", Direct, nil)
	glCost := measure(withGL)
	if glCost-bareCost != costs.GLPrelude+costs.GLPostlude {
		t.Fatalf("GL hook delta = %v, want %v", glCost-bareCost, costs.GLPrelude+costs.GLPostlude)
	}
}
