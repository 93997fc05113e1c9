package harness

import (
	"fmt"
	"sort"
	"strings"

	"cycada/internal/core/diplomat"
	"cycada/internal/core/profile"
	"cycada/internal/core/system"
	"cycada/internal/gles/registry"
	"cycada/internal/ios/eagl"
	"cycada/internal/jsvm"
	"cycada/internal/linker"
	"cycada/internal/obs"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
	"cycada/internal/workloads/passmark"
	"cycada/internal/workloads/sunspider"
)

// Table1 renders the paper's Table 1 from the live registries.
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: OpenGL ES Implementation Breakdown\n")
	fmt.Fprintf(&b, "%-34s %6s %8s %8s\n", "OpenGL ES", "iOS", "Android", "Khronos")
	row := func(name string, ios, android, khronos any) {
		fmt.Fprintf(&b, "%-34s %6v %8v %8v\n", name, ios, android, khronos)
	}
	row("1.0 Standard Functions", len(registry.GLES1Standard()), len(registry.GLES1Standard()), len(registry.GLES1Standard()))
	row("2.0 Standard Functions", len(registry.GLES2Standard()), len(registry.GLES2Standard()), len(registry.GLES2Standard()))
	row("Extension Functions",
		registry.CountFuncs(registry.IOSExtensions()),
		registry.CountFuncs(registry.AndroidExtensions()),
		registry.CountFuncs(registry.KhronosExtensions()))
	row("Common Extension Functions", registry.CountFuncs(registry.CommonExtensions), registry.CountFuncs(registry.CommonExtensions), "-")
	row("Extensions", len(registry.IOSExtensions()), len(registry.AndroidExtensions()), len(registry.KhronosExtensions()))
	row("Extensions not in Android", len(registry.IOSOnlyExtensions), 0, "-")
	row("Extensions not in iOS", 0, len(registry.AndroidOnlyExtensions), "-")
	return b.String()
}

// Table2 renders Table 2 from a live Cycada bridge census.
func Table2() (string, error) {
	sys := system.New(system.Config{})
	app, err := sys.NewIOSApp(system.AppConfig{Name: "census"})
	if err != nil {
		return "", err
	}
	census := app.Bridge.Library().Census()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Cycada iOS OpenGL ES Support Breakdown\n")
	fmt.Fprintf(&b, "%-32s %9s\n", "Type of Support", "Functions")
	rows := []struct {
		label string
		kind  diplomat.Kind
	}{
		{"Direct Diplomats", diplomat.Direct},
		{"Indirect Diplomats", diplomat.Indirect},
		{"Data-dependent Diplomats", diplomat.DataDependent},
		{"Multi-Diplomats", diplomat.Multi},
		{"Unimplemented (never called)", diplomat.Unimplemented},
	}
	total := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %9d\n", r.label, census[r.kind])
		total += census[r.kind]
	}
	fmt.Fprintf(&b, "%-32s %9d\n", "Total", total)
	// The EAGL census from §5 accompanies Table 2's discussion.
	eaglCounts := map[eagl.Impl]int{}
	for _, impl := range eagl.Methods {
		eaglCounts[impl]++
	}
	fmt.Fprintf(&b, "\nEAGL methods: %d total — %d multi-diplomat, %d from scratch, %d unimplemented\n",
		len(eagl.Methods), eaglCounts[eagl.ImplMultiDiplomat], eaglCounts[eagl.ImplScratch], eaglCounts[eagl.ImplUnimplemented])
	return b.String(), nil
}

// Table3Row is one measured micro-benchmark.
type Table3Row struct {
	Name string
	Time vclock.Duration
}

// Table3 runs the lmbench-style kernel and diplomatic-call micro-benchmarks.
func Table3() (string, error) {
	const iters = 2000
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: Kernel-level / ABI Micro-Benchmarks\n\nNull Syscall\n")

	nullRows := []struct {
		label string
		id    ConfigID
	}{
		{"Stock Android", StockAndroid},
		{"Cycada Android", CycadaAndroid},
		{"Cycada iOS", CycadaIOS},
		{"iPad mini iOS", NativeIOS},
	}
	for _, r := range nullRows {
		d, err := Boot(r.id)
		if err != nil {
			return "", err
		}
		t := d.NullThread
		start := t.VTime()
		for i := 0; i < iters; i++ {
			t.Null()
		}
		per := (t.VTime() - start) / iters
		fmt.Fprintf(&b, "  %-18s %6d ns\n", r.label, per.AsTime().Nanoseconds())
	}

	fmt.Fprintf(&b, "\nDiplomatic Calls (measured on Cycada iOS)\n")
	rows, err := DiplomaticCallBench(iters)
	if err != nil {
		return "", err
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %6d ns\n", r.Name, r.Time.AsTime().Nanoseconds())
	}
	return b.String(), nil
}

// DiplomaticCallBench measures the Table 3 diplomatic-call rows: a standard
// function call, a bare diplomat, a diplomat with empty prelude/postlude,
// and a diplomat with the GLES prelude/postlude.
func DiplomaticCallBench(iters int) ([]Table3Row, error) {
	sys := system.New(system.Config{})
	app, err := sys.NewIOSApp(system.AppConfig{Name: "lmbench"})
	if err != nil {
		return nil, err
	}
	t := app.Main()

	// A no-op domestic library to call through.
	app.Linker.MustRegister(&linker.Blueprint{
		Name: "libnoop.so",
		New: func(ctx *linker.LoadContext) (linker.Instance, error) {
			return noopLib{}, nil
		},
	})
	h, err := app.Linker.Dlopen(t, "libnoop.so")
	if err != nil {
		return nil, err
	}
	base := diplomat.Config{
		Foreign:  kernel.PersonaIOS,
		Domestic: kernel.PersonaAndroid,
		Linker:   app.Linker,
		Library:  h,
	}
	bare, err := diplomat.New(base, "noop", diplomat.Direct, nil)
	if err != nil {
		return nil, err
	}
	emptyCfg := base
	emptyCfg.Hooks = &diplomat.Hooks{}
	withEmpty, err := diplomat.New(emptyCfg, "noop", diplomat.Direct, nil)
	if err != nil {
		return nil, err
	}
	glCfg := base
	glCfg.Hooks = &diplomat.Hooks{
		GL:       true,
		Prelude:  func(t *kernel.Thread) { app.Impersonator.GateEnter() },
		Postlude: func(t *kernel.Thread) { app.Impersonator.GateExit() },
	}
	withGL, err := diplomat.New(glCfg, "noop", diplomat.Direct, nil)
	if err != nil {
		return nil, err
	}

	sym := app.Linker.MustSym(h, "noop")
	measure := func(name string, f func()) vclock.Duration {
		var sp obs.Span
		if t.TraceEnabled() {
			sp = t.TraceBegin(obs.CatHarness, "lmbench:"+name)
		}
		start := t.VTime()
		for i := 0; i < iters; i++ {
			f()
		}
		per := (t.VTime() - start) / vclock.Duration(iters)
		t.TraceEnd(sp)
		return per
	}
	rows := []Table3Row{
		{Name: "Standard Function", Time: measure("function", func() { sym.Fn(t) })},
		{Name: "Diplomat", Time: measure("diplomat", func() { bare.Call(t) })},
		{Name: "Diplomat + Pre/Post", Time: measure("diplomat-prepost", func() { withEmpty.Call(t) })},
		{Name: "Diplomat + GL Pre/Post", Time: measure("diplomat-gl", func() { withGL.Call(t) })},
	}
	return rows, nil
}

type noopLib struct{}

func (noopLib) Symbols() map[string]linker.Fn {
	return map[string]linker.Fn{
		"noop": func(t *kernel.Thread, args ...any) any {
			t.ChargeCPU(t.Costs().FnCall)
			return nil
		},
	}
}

// Fig5Series is one configuration's SunSpider latencies.
type Fig5Series struct {
	Label  string
	ByTest map[string]vclock.Duration
	Total  vclock.Duration
}

// Fig5 runs SunSpider on every configuration (plus native iOS with JIT
// explicitly disabled) and renders the normalized-overhead table of
// Figure 5. It returns the rendered table and the CycadaIOS profiler for
// Figures 7 and 9.
func Fig5() (string, *profile.Profiler, error) {
	series := []struct {
		label string
		id    ConfigID
		opts  []jsvm.Option
	}{
		{"Cycada iOS", CycadaIOS, nil},
		{"Cycada Android", CycadaAndroid, nil},
		{"iOS", NativeIOS, nil},
		{"iOS (JS JIT disabled)", NativeIOS, []jsvm.Option{jsvm.WithoutJIT()}},
		{"Android", StockAndroid, nil},
	}
	var prof *profile.Profiler
	var results []Fig5Series
	for _, s := range series {
		d, err := Boot(s.id)
		if err != nil {
			return "", nil, err
		}
		browser, t, err := d.NewBrowser(s.opts...)
		if err != nil {
			return "", nil, err
		}
		if err := browser.Load(sunspider.Page); err != nil {
			return "", nil, err
		}
		var sp obs.Span
		if t.TraceEnabled() {
			sp = t.TraceBegin(obs.CatHarness, "sunspider:"+s.label)
		}
		res, err := sunspider.RunInBrowser(browser, t)
		t.TraceEnd(sp)
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", s.label, err)
		}
		fs := Fig5Series{Label: s.label, ByTest: map[string]vclock.Duration{}}
		for _, r := range res {
			fs.ByTest[r.Name] = r.Elapsed
		}
		fs.Total = sunspider.Total(res)
		results = append(results, fs)
		if s.id == CycadaIOS && s.opts == nil && d.CycadaApp != nil {
			prof = d.CycadaApp.Profiler
		}
	}

	baseline := results[len(results)-1] // Android
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: SunSpider normalized overhead (lower is better; Android = 1.0)\n")
	fmt.Fprintf(&b, "%-12s", "test")
	for _, s := range results {
		fmt.Fprintf(&b, " %22s", s.Label)
	}
	fmt.Fprintf(&b, "\n")
	names := make([]string, 0, len(baseline.ByTest))
	for _, test := range sunspider.Tests() {
		names = append(names, test.Name)
	}
	for _, name := range names {
		fmt.Fprintf(&b, "%-12s", name)
		for _, s := range results {
			fmt.Fprintf(&b, " %22.2f", float64(s.ByTest[name])/float64(baseline.ByTest[name]))
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "%-12s", "Total")
	for _, s := range results {
		fmt.Fprintf(&b, " %22.2f", float64(s.Total)/float64(baseline.Total))
	}
	fmt.Fprintf(&b, "\n")
	return b.String(), prof, nil
}

// Fig6 runs the PassMark suite on the three compared configurations and
// renders Figure 6 (normalized to stock Android; higher is better). It also
// returns the Cycada iOS profiler for Figures 8 and 10.
func Fig6() (string, *profile.Profiler, error) {
	ids := []ConfigID{CycadaIOS, CycadaAndroid, NativeIOS, StockAndroid}
	scores := map[ConfigID]map[string]float64{}
	var prof *profile.Profiler
	// Frame-health telemetry rides along with the FPS scores: enable the
	// histogram registry for the run (restoring its prior state after) and
	// start each configuration's frame histogram from zero.
	wasEnabled := obs.DefaultHistograms.Enabled()
	obs.DefaultHistograms.SetEnabled(true)
	defer obs.DefaultHistograms.SetEnabled(wasEnabled)
	for _, id := range ids {
		FrameHistogram(id).Reset()
	}
	for _, id := range ids {
		d, err := Boot(id)
		if err != nil {
			return "", nil, err
		}
		host, err := d.NewPassmarkHost()
		if err != nil {
			return "", nil, err
		}
		res, err := passmark.RunAll(host, d.Variant, 6)
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", id, err)
		}
		scores[id] = map[string]float64{}
		for _, r := range res {
			scores[id][r.Test] = r.Score
		}
		if id == CycadaIOS && d.CycadaApp != nil {
			prof = d.CycadaApp.Profiler
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: PassMark graphics, normalized performance (higher is better; Android = 1.0)\n")
	fmt.Fprintf(&b, "%-20s %12s %15s %8s\n", "test", "Cycada iOS", "Cycada Android", "iOS")
	for _, test := range passmark.TestNames() {
		base := scores[StockAndroid][test]
		fmt.Fprintf(&b, "%-20s %12.2f %15.2f %8.2f\n", test,
			scores[CycadaIOS][test]/base,
			scores[CycadaAndroid][test]/base,
			scores[NativeIOS][test]/base)
	}
	fmt.Fprintf(&b, "\nFrame health: per-present latency across the PassMark run (virtual time)\n")
	fmt.Fprintf(&b, "%-20s %8s %10s %10s %10s %10s\n", "config", "frames", "p50-us", "p95-us", "p99-us", "max-us")
	for _, id := range ids {
		h := FrameHistogram(id)
		fmt.Fprintf(&b, "%-20s %8d %10.1f %10.1f %10.1f %10.1f\n", id,
			h.Count(), h.P50().Micros(), h.P95().Micros(), h.P99().Micros(), h.Max().Micros())
	}
	return b.String(), prof, nil
}

// FigProfile renders Figures 7/9 (SunSpider) or 8/10 (PassMark) from a
// profiler: percentage of total GLES time and average µs per call for the
// top 14 functions.
func FigProfile(title string, prof *profile.Profiler) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (top 14 functions by total GLES time)\n", title)
	fmt.Fprintf(&b, "%-36s %8s %8s %12s\n", "function", "calls", "%time", "avg-us/call")
	for _, s := range prof.Top(14) {
		fmt.Fprintf(&b, "%-36s %8d %7.2f%% %12.1f\n", s.Name, s.Calls, s.Percent, s.Avg().Micros())
	}
	return b.String()
}

// SortedProfileNames lists all profiled function names (tests).
func SortedProfileNames(prof *profile.Profiler) []string {
	var names []string
	for _, s := range prof.Samples() {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}
