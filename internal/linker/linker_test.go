package linker

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"cycada/internal/core/callconv"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// counterLib is a library whose instances carry private state, exposing
// symbols that mutate and read it — the state DLR must not share between
// replicas.
type counterLib struct {
	n         int
	finalized bool
}

func (c *counterLib) Symbols() map[string]Fn {
	return map[string]Fn{
		"inc": func(t *kernel.Thread, args ...any) any { c.n++; return c.n },
		"get": func(t *kernel.Thread, args ...any) any { return c.n },
	}
}

func (c *counterLib) Finalize() { c.finalized = true }

func testEnv(t *testing.T) (*kernel.Thread, *Linker) {
	t.Helper()
	k := kernel.New(kernel.Config{Platform: vclock.Nexus7(), Flavor: vclock.KernelCycada})
	p, err := k.NewProcess("app", kernel.PersonaAndroid, kernel.PersonaIOS)
	if err != nil {
		t.Fatal(err)
	}
	return p.Main(), New(p)
}

func registerTree(t *testing.T, l *Linker) {
	t.Helper()
	// Mirrors the paper's example: libGLESv2_tegra.so -> libnvrm.so -> libnvos.so,
	// with libc shared underneath.
	for _, bp := range []*Blueprint{
		{Name: "libc.so", Shared: true, New: newCounter},
		{Name: "libnvos.so", Deps: []string{"libc.so"}, New: newCounter},
		{Name: "libnvrm.so", Deps: []string{"libnvos.so"}, New: newCounter},
		{Name: "libGLESv2_tegra.so", Deps: []string{"libnvrm.so", "libc.so"}, New: newCounter},
	} {
		l.MustRegister(bp)
	}
}

func newCounter(ctx *LoadContext) (Instance, error) { return &counterLib{}, nil }

func TestRegisterValidation(t *testing.T) {
	_, l := testEnv(t)
	if err := l.Register(&Blueprint{}); err == nil {
		t.Fatal("empty blueprint registered")
	}
	bp := &Blueprint{Name: "a", New: newCounter}
	if err := l.Register(bp); err != nil {
		t.Fatal(err)
	}
	if err := l.Register(bp); err == nil {
		t.Fatal("duplicate registration succeeded")
	}
	if !l.Registered("a") || l.Registered("b") {
		t.Fatal("Registered() wrong")
	}
}

func TestDlopenSharesInstance(t *testing.T) {
	th, l := testEnv(t)
	registerTree(t, l)
	h1, err := l.Dlopen(th, "libGLESv2_tegra.so")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := l.Dlopen(th, "libGLESv2_tegra.so")
	if err != nil {
		t.Fatal(err)
	}
	inc := l.MustSym(h1, "inc")
	inc.Call(th)
	got := l.MustSym(h2, "get").Call(th)
	if got != 1 {
		t.Fatalf("second handle saw %v, want shared state 1", got)
	}
	if l.ConstructorRuns("libGLESv2_tegra.so") != 1 {
		t.Fatal("constructor ran more than once for shared dlopen")
	}
	if h1.NamespaceID() != 0 || h2.NamespaceID() != 0 {
		t.Fatal("dlopen did not use the global namespace")
	}
}

func TestDlforceCreatesIsolatedReplicas(t *testing.T) {
	th, l := testEnv(t)
	registerTree(t, l)

	base, err := l.Dlopen(th, "libGLESv2_tegra.so")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := l.Dlforce(th, "libGLESv2_tegra.so")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l.Dlforce(th, "libGLESv2_tegra.so")
	if err != nil {
		t.Fatal(err)
	}

	// State isolation: incrementing in one replica is invisible elsewhere.
	l.MustSym(r1, "inc").Call(th)
	l.MustSym(r1, "inc").Call(th)
	if got := l.MustSym(r2, "get").Call(th); got != 0 {
		t.Fatalf("replica 2 saw %v, want 0", got)
	}
	if got := l.MustSym(base, "get").Call(th); got != 0 {
		t.Fatalf("base instance saw %v, want 0", got)
	}

	// Unique virtual addresses for every instance of every symbol (§8.1).
	a0 := l.MustSym(base, "inc").Addr
	a1 := l.MustSym(r1, "inc").Addr
	a2 := l.MustSym(r2, "inc").Addr
	if a0 == a1 || a1 == a2 || a0 == a2 {
		t.Fatalf("symbol addresses not unique: %#x %#x %#x", a0, a1, a2)
	}

	// Constructors ran once per load (1 dlopen + 2 dlforce).
	if got := l.ConstructorRuns("libGLESv2_tegra.so"); got != 3 {
		t.Fatalf("constructor runs = %d, want 3", got)
	}
	// Dependencies replicated too.
	if got := l.ConstructorRuns("libnvrm.so"); got != 3 {
		t.Fatalf("libnvrm constructor runs = %d, want 3", got)
	}
	if got := l.ConstructorRuns("libnvos.so"); got != 3 {
		t.Fatalf("libnvos constructor runs = %d, want 3", got)
	}
}

func TestSharedLibcNeverReplicated(t *testing.T) {
	th, l := testEnv(t)
	registerTree(t, l)
	if _, err := l.Dlforce(th, "libGLESv2_tegra.so"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Dlforce(th, "libGLESv2_tegra.so"); err != nil {
		t.Fatal(err)
	}
	if got := l.ConstructorRuns("libc.so"); got != 1 {
		t.Fatalf("libc constructor runs = %d, want 1 (footnote 1: single shared libc)", got)
	}
}

func TestDlsymScopedToNamespace(t *testing.T) {
	th, l := testEnv(t)
	registerTree(t, l)
	r1, _ := l.Dlforce(th, "libGLESv2_tegra.so")

	// Resolving a dependency's symbol through the replica handle must find
	// the replica's private copy, not the global one.
	base, _ := l.Dlopen(th, "libnvrm.so")
	l.MustSym(base, "inc").Call(th) // mutate global libnvrm

	depSym, err := l.Dlsym(r1, "get")
	if err != nil {
		t.Fatal(err)
	}
	// "get" resolves to the root lib itself here; check a namespace lookup on
	// the dep by asking LoadedIn.
	libs := l.LoadedIn(r1)
	want := []string{"libGLESv2_tegra.so", "libnvos.so", "libnvrm.so"}
	if fmt.Sprint(libs) != fmt.Sprint(want) {
		t.Fatalf("LoadedIn = %v, want %v", libs, want)
	}
	if got := depSym.Call(th); got != 0 {
		t.Fatalf("replica state = %v, want 0", got)
	}

	if _, err := l.Dlsym(r1, "missing_symbol"); !errors.Is(err, ErrNoSymbol) {
		t.Fatalf("err = %v, want ErrNoSymbol", err)
	}
}

func TestDlsymFindsSharedGlobalsFromReplica(t *testing.T) {
	th, l := testEnv(t)
	l.MustRegister(&Blueprint{Name: "libc.so", Shared: true, New: func(ctx *LoadContext) (Instance, error) {
		return symMap{"malloc": func(t *kernel.Thread, args ...any) any { return "heap" }}, nil
	}})
	l.MustRegister(&Blueprint{Name: "libx.so", Deps: []string{"libc.so"}, New: newCounter})
	h, err := l.Dlforce(th, "libx.so")
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Dlsym(h, "malloc")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Call(th); got != "heap" {
		t.Fatalf("malloc = %v", got)
	}
}

type symMap map[string]Fn

func (m symMap) Symbols() map[string]Fn { return m }

func TestDependencyCycleDetected(t *testing.T) {
	th, l := testEnv(t)
	l.MustRegister(&Blueprint{Name: "a", Deps: []string{"b"}, New: newCounter})
	l.MustRegister(&Blueprint{Name: "b", Deps: []string{"a"}, New: newCounter})
	if _, err := l.Dlopen(th, "a"); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestMissingLibraryAndDependency(t *testing.T) {
	th, l := testEnv(t)
	if _, err := l.Dlopen(th, "nope.so"); err == nil {
		t.Fatal("dlopen of unknown library succeeded")
	}
	l.MustRegister(&Blueprint{Name: "broken.so", Deps: []string{"gone.so"}, New: newCounter})
	if _, err := l.Dlopen(th, "broken.so"); err == nil {
		t.Fatal("dlopen with missing dependency succeeded")
	}
}

func TestConstructorFailureUnwinds(t *testing.T) {
	th, l := testEnv(t)
	l.MustRegister(&Blueprint{Name: "bad.so", New: func(ctx *LoadContext) (Instance, error) {
		return nil, fmt.Errorf("boom")
	}})
	if _, err := l.Dlopen(th, "bad.so"); err == nil {
		t.Fatal("failed constructor not reported")
	}
	// A later open retries the constructor rather than returning a broken lib.
	if _, err := l.Dlopen(th, "bad.so"); err == nil {
		t.Fatal("second open should fail too")
	}
	if got := l.ConstructorRuns("bad.so"); got != 2 {
		t.Fatalf("constructor runs = %d, want 2", got)
	}
}

func TestDlcloseTearsDownReplicaNamespace(t *testing.T) {
	th, l := testEnv(t)
	registerTree(t, l)
	h, err := l.Dlforce(th, "libGLESv2_tegra.so")
	if err != nil {
		t.Fatal(err)
	}
	inst := h.Instance().(*counterLib)
	memBefore := th.Process().Mem().Bytes()
	if err := l.Dlclose(h); err != nil {
		t.Fatal(err)
	}
	if !inst.finalized {
		t.Fatal("finalizer did not run on replica teardown")
	}
	if got := th.Process().Mem().Bytes(); got >= memBefore {
		t.Fatalf("replica images not unmapped: %d >= %d", got, memBefore)
	}
	if err := l.Dlclose(h); err == nil {
		t.Fatal("double dlclose succeeded")
	}
}

func TestDlcloseKeepsGlobalLibraries(t *testing.T) {
	th, l := testEnv(t)
	registerTree(t, l)
	h, _ := l.Dlopen(th, "libnvos.so")
	l.MustSym(h, "inc").Call(th)
	if err := l.Dlclose(h); err != nil {
		t.Fatal(err)
	}
	h2, _ := l.Dlopen(th, "libnvos.so")
	if got := l.MustSym(h2, "get").Call(th); got != 1 {
		t.Fatalf("global library state lost on dlclose: %v", got)
	}
}

func TestDlforceChargesMoreThanDlopen(t *testing.T) {
	th, l := testEnv(t)
	registerTree(t, l)
	before := th.VTime()
	if _, err := l.Dlopen(th, "libGLESv2_tegra.so"); err != nil {
		t.Fatal(err)
	}
	openCost := th.VTime() - before

	before = th.VTime()
	if _, err := l.Dlforce(th, "libGLESv2_tegra.so"); err != nil {
		t.Fatal(err)
	}
	forceCost := th.VTime() - before
	if forceCost <= openCost {
		t.Fatalf("dlforce (%v) should cost more than a fresh dlopen tree (%v)", forceCost, openCost)
	}
}

func TestSymbolAddressesWithinImage(t *testing.T) {
	th, l := testEnv(t)
	registerTree(t, l)
	h, _ := l.Dlopen(th, "libnvos.so")
	for _, name := range []string{"inc", "get"} {
		s := l.MustSym(h, name)
		if s.Addr <= h.BaseAddr() {
			t.Fatalf("symbol %s addr %#x not above base %#x", name, s.Addr, h.BaseAddr())
		}
		m, ok := th.Process().Mem().Resolve(s.Addr)
		if !ok {
			t.Fatalf("symbol %s addr %#x not inside any mapping", name, s.Addr)
		}
		if m.Name != "lib:libnvos.so#0" {
			t.Fatalf("symbol %s resolved to mapping %q", name, m.Name)
		}
	}
}

// frameLib exports one typed frame symbol and nothing boxed, like the GLES
// libraries.
type frameLib struct{}

func (frameLib) FrameSymbols() map[string]callconv.FrameFn {
	return map[string]callconv.FrameFn{
		"add": func(t *kernel.Thread, fr *callconv.Frame) any { return fr.Int(0) + int(fr.U32(0)) },
	}
}

func TestFrameSymbolBoxedAdapter(t *testing.T) {
	th, l := testEnv(t)
	l.MustRegister(&Blueprint{Name: "libframe.so", New: func(ctx *LoadContext) (Instance, error) {
		return frameLib{}, nil
	}})
	h, err := l.Dlopen(th, "libframe.so")
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.DlsymID(h, callconv.Intern("add"))
	if err != nil || s.Frame == nil || s.Fn != nil {
		t.Fatalf("DlsymID(add) = %+v, %v; want a frame-only symbol", s, err)
	}
	// Boxed callers reach the frame implementation through Call.
	if got := s.Call(th, 40, uint32(2)); got != 42 {
		t.Fatalf("boxed Call(add, 40, 2) = %v, want 42", got)
	}
	// A list no frame can carry is an EINVAL error, not a panic.
	th.SetErrno(0)
	ret := s.Call(th, nil, nil)
	if err, ok := ret.(error); !ok || !errors.Is(err, callconv.ErrUnframeable) {
		t.Fatalf("Call(add, nil, nil) = %v, want ErrUnframeable", ret)
	}
	if th.Errno() != int(kernel.EINVAL) {
		t.Fatalf("errno = %d, want EINVAL", th.Errno())
	}
}

// varLib exports boxed names and frame names chosen by its constructor; a
// name in both is one export, resolved to the frame.
type varLib struct{ boxed, framed []string }

func (v varLib) Symbols() map[string]Fn {
	m := map[string]Fn{}
	for _, n := range v.boxed {
		m[n] = func(t *kernel.Thread, args ...any) any { return "boxed:" + n }
	}
	return m
}

func (v varLib) FrameSymbols() map[string]callconv.FrameFn {
	m := map[string]callconv.FrameFn{}
	for _, n := range v.framed {
		m[n] = func(t *kernel.Thread, fr *callconv.Frame) any { return "frame:" + n }
	}
	return m
}

// TestReplicaWithDifferentExports loads one library five times, replicas
// in between exporting other name sets — one as many names with one of them
// different, one more names: each load resolves exactly its own names, to
// its own implementations, at base + 16*(its sorted index + 1). Consecutive
// loads that export the same names share one export image; a load whose
// names differ builds its own.
func TestReplicaWithDifferentExports(t *testing.T) {
	th, l := testEnv(t)
	a := varLib{boxed: []string{"zeta", "alpha"}, framed: []string{"mid", "alpha"}}
	b := varLib{boxed: []string{"beta"}, framed: []string{"zeta", "omega", "alpha"}}
	c := varLib{boxed: []string{"zeta"}, framed: []string{"alpha", "omega"}}
	sets := []varLib{a, a, c, b, a}
	loads := 0
	l.MustRegister(&Blueprint{Name: "libvar.so", New: func(ctx *LoadContext) (Instance, error) {
		loads++
		return sets[loads-1], nil
	}})
	// The sorted exports of each set, and how each is exported.
	sorted := map[string][]string{"a": {"alpha", "mid", "zeta"}, "b": {"alpha", "beta", "omega", "zeta"}, "c": {"alpha", "omega", "zeta"}}
	kinds := map[string]map[string]string{
		"a": {"alpha": "frame:", "mid": "frame:", "zeta": "boxed:"},
		"b": {"alpha": "frame:", "beta": "boxed:", "omega": "frame:", "zeta": "frame:"},
		"c": {"alpha": "frame:", "omega": "frame:", "zeta": "boxed:"},
	}
	var hs []*Handle
	for i, set := range []string{"a", "a", "c", "b", "a"} {
		open := l.Dlforce
		if i == 0 {
			open = l.Dlopen
		}
		h, err := open(th, "libvar.so")
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
		for _, n := range []string{"alpha", "beta", "mid", "omega", "zeta"} {
			s, err := l.Dlsym(h, n)
			kind, exported := kinds[set][n]
			if !exported {
				if !errors.Is(err, ErrNoSymbol) {
					t.Fatalf("load %d: Dlsym(%s) = %+v, %v; want ErrNoSymbol", i, n, s, err)
				}
				continue
			}
			idx := slices.Index(sorted[set], n)
			if err != nil || s.Addr != h.BaseAddr()+uint64(16*(idx+1)) {
				t.Fatalf("load %d: Dlsym(%s) = %+v, %v; want address base+%d", i, n, s, err, 16*(idx+1))
			}
			if got := s.Call(th); got != kind+n {
				t.Fatalf("load %d: %s called %v, want %s", i, n, got, kind+n)
			}
			if id, err := l.DlsymID(h, callconv.Intern(n)); err != nil || id.Addr != s.Addr {
				t.Fatalf("load %d: DlsymID(%s) = %+v, %v; want Dlsym's %+v", i, n, id, err, s)
			}
		}
	}
	if hs[0].lib.exports != hs[1].lib.exports || hs[1].lib.exports == hs[2].lib.exports {
		t.Fatal("loads exporting the same names do not share one export image, or differing ones do")
	}
}

// TestDlsymIDConcurrent resolves a namespace's names from many goroutines
// at once, through one handle and its first DlsymID: every result is
// Dlsym's (run it under -race).
func TestDlsymIDConcurrent(t *testing.T) {
	th, l := testEnv(t)
	registerTree(t, l)
	l.MustRegister(&Blueprint{Name: "libframe.so", New: func(ctx *LoadContext) (Instance, error) { return frameLib{}, nil }})
	h, err := l.Dlforce(th, "libGLESv2_tegra.so")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Dlopen(th, "libframe.so"); err != nil {
		t.Fatal(err)
	}
	names := []string{"inc", "get", "add", "no_such_symbol"}
	want := make([]Symbol, len(names))
	for i, n := range names {
		want[i], _ = l.Dlsym(h, n)
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := range workers {
		go func() {
			for r := range 200 {
				i := (w + r) % len(names)
				s, err := l.DlsymID(h, callconv.Intern(names[i]))
				if (err == nil) != (want[i].Addr != 0) || s.Addr != want[i].Addr || s.Name != want[i].Name {
					errs <- fmt.Errorf("DlsymID(%s) = %+v, %v; want %+v", names[i], s, err, want[i])
					return
				}
			}
			errs <- nil
		}()
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentLoadsShareExports loads one library name into several
// linkers at once, half of them exporting one name set and half another:
// the export images are shared across linkers, and every load must still
// resolve exactly its own names (run it under -race).
func TestConcurrentLoadsShareExports(t *testing.T) {
	sets := []varLib{
		{boxed: []string{"one", "two"}, framed: []string{"three"}},
		{framed: []string{"one", "four"}},
	}
	const loaders = 8
	type loader struct {
		th *kernel.Thread
		l  *Linker
		h  *Handle
	}
	ls := make([]loader, loaders)
	for i := range ls {
		ls[i].th, ls[i].l = testEnv(t)
		set := sets[i%len(sets)]
		ls[i].l.MustRegister(&Blueprint{Name: "libconcurrent.so", New: func(ctx *LoadContext) (Instance, error) { return set, nil }})
	}
	var wg sync.WaitGroup
	for i := range ls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				ls[i].h, _ = ls[i].l.Dlforce(ls[i].th, "libconcurrent.so")
			}
		}()
	}
	wg.Wait()
	for i, ld := range ls {
		set := sets[i%len(sets)]
		for _, n := range []string{"one", "two", "three", "four"} {
			_, err := ld.l.Dlsym(ld.h, n)
			if exported := slices.Contains(set.boxed, n) || slices.Contains(set.framed, n); exported != (err == nil) {
				t.Fatalf("linker %d: Dlsym(%s) = %v, exported %v", i, n, err, exported)
			}
		}
	}
}
