package cycada

// The benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices DESIGN.md
// calls out. Harness experiments are deterministic in virtual time; these
// benches additionally measure the real Go-level cost of the mechanisms.

import (
	"path/filepath"
	"testing"

	"cycada/internal/core/diplomat"
	"cycada/internal/core/system"
	"cycada/internal/gles/engine"
	"cycada/internal/harness"
	"cycada/internal/jsvm"
	"cycada/internal/linker"
	"cycada/internal/obs"
	"cycada/internal/replay"
	"cycada/internal/sim/kernel"
	"cycada/internal/workloads/passmark"
	"cycada/internal/workloads/sunspider"
)

// --- Table 1 and Table 2: registry censuses ---

func BenchmarkTable1Census(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.Table1()
	}
}

func BenchmarkTable2Census(b *testing.B) {
	out, err := harness.Table2()
	if err != nil {
		b.Fatal(err)
	}
	_ = out
	b.ResetTimer()
	sys := system.New(system.Config{})
	app, err := sys.NewIOSApp(system.AppConfig{Name: "census"})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = app.Bridge.Library().Census()
	}
}

// --- Table 3: null syscalls and diplomatic calls (real wall clock) ---

func benchNullSyscall(b *testing.B, id harness.ConfigID) {
	d, err := harness.Boot(id)
	if err != nil {
		b.Fatal(err)
	}
	t := d.NullThread
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Null()
	}
}

func BenchmarkTable3NullSyscallStockAndroid(b *testing.B) { benchNullSyscall(b, harness.StockAndroid) }
func BenchmarkTable3NullSyscallCycadaAndroid(b *testing.B) {
	benchNullSyscall(b, harness.CycadaAndroid)
}
func BenchmarkTable3NullSyscallCycadaIOS(b *testing.B) { benchNullSyscall(b, harness.CycadaIOS) }
func BenchmarkTable3NullSyscallNativeIOS(b *testing.B) { benchNullSyscall(b, harness.NativeIOS) }

type benchNoop struct{}

func (benchNoop) Symbols() map[string]linker.Fn {
	return map[string]linker.Fn{
		"noop": func(t *kernel.Thread, args ...any) any { return nil },
	}
}

func diplomatBenchEnv(b *testing.B, hooks *diplomat.Hooks) (*kernel.Thread, *diplomat.Diplomat) {
	return diplomatBenchEnvOn(b, hooks, nil)
}

func diplomatBenchEnvOn(b *testing.B, hooks *diplomat.Hooks, tracer *obs.Tracer) (*kernel.Thread, *diplomat.Diplomat) {
	return diplomatBenchEnvObs(b, hooks, tracer, nil)
}

func diplomatBenchEnvObs(b *testing.B, hooks *diplomat.Hooks, tracer *obs.Tracer, flight *obs.FlightRecorder) (*kernel.Thread, *diplomat.Diplomat) {
	b.Helper()
	sys := system.New(system.Config{Tracer: tracer, Flight: flight})
	app, err := sys.NewIOSApp(system.AppConfig{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	t := app.Main()
	app.Linker.MustRegister(&linker.Blueprint{
		Name: "libnoop.so",
		New:  func(ctx *linker.LoadContext) (linker.Instance, error) { return benchNoop{}, nil },
	})
	h, err := app.Linker.Dlopen(t, "libnoop.so")
	if err != nil {
		b.Fatal(err)
	}
	d, err := diplomat.New(diplomat.Config{
		Foreign:  kernel.PersonaIOS,
		Domestic: kernel.PersonaAndroid,
		Linker:   app.Linker,
		Library:  h,
		Hooks:    hooks,
	}, "noop", diplomat.Direct, nil)
	if err != nil {
		b.Fatal(err)
	}
	return t, d
}

func BenchmarkTable3Diplomat(b *testing.B) {
	t, d := diplomatBenchEnv(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Call(t)
	}
}

func BenchmarkTable3DiplomatEmptyPrePost(b *testing.B) {
	t, d := diplomatBenchEnv(b, &diplomat.Hooks{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Call(t)
	}
}

func BenchmarkTable3DiplomatGLPrePost(b *testing.B) {
	t, d := diplomatBenchEnv(b, &diplomat.Hooks{GL: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Call(t)
	}
}

// --- Observability layer (internal/obs) overhead ---

// BenchmarkDiplomatCall is the hot-path baseline: a bare direct diplomat
// call with tracing off (the default) and no profiler.
func BenchmarkDiplomatCall(b *testing.B) {
	t, d := diplomatBenchEnv(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Call(t)
	}
}

// BenchmarkDiplomatCallAllocs is BenchmarkDiplomatCall with the allocation
// counter on: the direct path must report 0 allocs/op (also enforced by
// TestDirectDiplomatCallDoesNotAllocate in the tier-1 suite).
func BenchmarkDiplomatCallAllocs(b *testing.B) {
	t, d := diplomatBenchEnv(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Call(t)
	}
}

// BenchmarkFacadeViewport compares the two calling conventions over the full
// facade -> bridge -> diplomat -> engine stack: the legacy boxed Call (name
// lookup plus []any) against the typed frame path (interned FuncID plus a
// pooled frame).
func BenchmarkFacadeViewport(b *testing.B) {
	sys := system.New(system.Config{})
	app, err := sys.NewIOSApp(system.AppConfig{Name: "facade"})
	if err != nil {
		b.Fatal(err)
	}
	t := app.Main()
	ctx, err := app.EAGL.NewContext(t, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := app.EAGL.SetCurrentContext(t, ctx); err != nil {
		b.Fatal(err)
	}
	b.Run("boxed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			app.GL.Call(t, "glViewport", 0, 0, 8, 8)
		}
	})
	b.Run("frame", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			app.GL.Viewport(t, 0, 0, 8, 8)
		}
	})
}

// BenchmarkObsOverhead measures the same call with the always-compiled-in
// observability layer in both states. The acceptance bar is disabled ns/op
// within 3% of BenchmarkDiplomatCall: the disabled cost of each potential
// span is a single atomic load.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		tr := obs.New() // explicitly off
		t, d := diplomatBenchEnvOn(b, nil, tr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Call(t)
		}
	})
	// Every observability layer off at once — tracer, flight recorder and
	// the frame-health histograms. This is the fully-disabled path the <3%
	// overhead gate in scripts/check.sh compares against BenchmarkDiplomatCall
	// (which itself runs with the default always-on flight recorder, so this
	// sub-bench has, if anything, less work to do than the baseline).
	b.Run("flight-hist-disabled", func(b *testing.B) {
		tr := obs.New()
		fl := obs.NewFlightRecorder()
		fl.SetEnabled(false)
		wasHist := obs.DefaultHistograms.Enabled()
		obs.DefaultHistograms.SetEnabled(false)
		defer obs.DefaultHistograms.SetEnabled(wasHist)
		t, d := diplomatBenchEnvObs(b, nil, tr, fl)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Call(t)
		}
	})
	// The default process state: flight recorder on, tracer and histograms
	// off. This is what every plain run pays.
	b.Run("flight-enabled", func(b *testing.B) {
		tr := obs.New()
		fl := obs.NewFlightRecorder()
		t, d := diplomatBenchEnvObs(b, nil, tr, fl)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Call(t)
		}
	})
	// Histograms on as well (the -snapshot / cycadatop state).
	b.Run("histograms-enabled", func(b *testing.B) {
		tr := obs.New()
		fl := obs.NewFlightRecorder()
		wasHist := obs.DefaultHistograms.Enabled()
		obs.DefaultHistograms.SetEnabled(true)
		defer obs.DefaultHistograms.SetEnabled(wasHist)
		t, d := diplomatBenchEnvObs(b, nil, tr, fl)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Call(t)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		tr := obs.New()
		tr.SetEnabled(true)
		t, d := diplomatBenchEnvOn(b, nil, tr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Call(t)
			// Drain periodically so the event buffers don't dominate memory.
			if i&0x3fff == 0x3fff {
				tr.Reset()
			}
		}
	})
}

// --- Figure 5: SunSpider per configuration ---

func benchSunSpider(b *testing.B, id harness.ConfigID, opts ...jsvm.Option) {
	d, err := harness.Boot(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		browser, t, err := d.NewBrowser(opts...)
		if err != nil {
			b.Fatal(err)
		}
		if err := browser.Load(sunspider.Page); err != nil {
			b.Fatal(err)
		}
		res, err := sunspider.RunInBrowser(browser, t)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sunspider.Total(res).Micros()), "vtime-us/suite")
	}
}

func BenchmarkFig5SunSpiderCycadaIOS(b *testing.B) { benchSunSpider(b, harness.CycadaIOS) }
func BenchmarkFig5SunSpiderCycadaAndroid(b *testing.B) {
	benchSunSpider(b, harness.CycadaAndroid)
}
func BenchmarkFig5SunSpiderNativeIOS(b *testing.B) { benchSunSpider(b, harness.NativeIOS) }
func BenchmarkFig5SunSpiderNativeIOSNoJIT(b *testing.B) {
	benchSunSpider(b, harness.NativeIOS, jsvm.WithoutJIT())
}
func BenchmarkFig5SunSpiderStockAndroid(b *testing.B) { benchSunSpider(b, harness.StockAndroid) }

// --- Figure 6: PassMark per configuration ---

func benchPassmark(b *testing.B, id harness.ConfigID) {
	d, err := harness.Boot(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host, err := d.NewPassmarkHost()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := passmark.RunAll(host, d.Variant, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6PassmarkCycadaIOS(b *testing.B)     { benchPassmark(b, harness.CycadaIOS) }
func BenchmarkFig6PassmarkCycadaAndroid(b *testing.B) { benchPassmark(b, harness.CycadaAndroid) }
func BenchmarkFig6PassmarkNativeIOS(b *testing.B)     { benchPassmark(b, harness.NativeIOS) }
func BenchmarkFig6PassmarkStockAndroid(b *testing.B)  { benchPassmark(b, harness.StockAndroid) }

// --- Figures 7-10: profile generation ---

func BenchmarkFig7Fig9SunSpiderProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, prof, err := harness.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if len(prof.Top(14)) == 0 {
			b.Fatal("empty profile")
		}
	}
}

func BenchmarkFig8Fig10PassmarkProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, prof, err := harness.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		if len(prof.Top(14)) == 0 {
			b.Fatal("empty profile")
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkImpersonationSession measures the full save/migrate/restore cycle.
func BenchmarkImpersonationSession(b *testing.B) {
	sys := system.New(system.Config{})
	app, err := sys.NewIOSApp(system.AppConfig{Name: "imp"})
	if err != nil {
		b.Fatal(err)
	}
	creator := app.Proc.NewThread("creator")
	runner := app.Proc.NewThread("runner")
	// Seed some graphics TLS.
	app.Impersonator.RegisterIOSGraphicsKey(7)
	creator.TLSSet(kernel.PersonaIOS, 7, "ctx")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := app.Impersonator.Impersonate(runner, creator)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.End(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDLRReplicaLoad measures dlforce of the full vendor graphics tree
// versus a shared dlopen.
func BenchmarkDLRReplicaLoad(b *testing.B) {
	sys := system.New(system.Config{})
	app, err := sys.NewIOSApp(system.AppConfig{Name: "dlr"})
	if err != nil {
		b.Fatal(err)
	}
	t := app.Main()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := app.Linker.Dlforce(t, "libui_wrapper.so")
		if err != nil {
			b.Fatal(err)
		}
		if err := app.Linker.Dlclose(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDLRSharedDlopen(b *testing.B) {
	sys := system.New(system.Config{})
	app, err := sys.NewIOSApp(system.AppConfig{Name: "dlr"})
	if err != nil {
		b.Fatal(err)
	}
	t := app.Main()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.Linker.Dlopen(t, "libui_wrapper.so"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPresentPath compares the paper's shader-blit present (Cycada
// EAGL) against the native hardware path.
func benchPresent(b *testing.B, id harness.ConfigID) {
	d, err := harness.Boot(id)
	if err != nil {
		b.Fatal(err)
	}
	host, err := d.NewPassmarkHost()
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := host.Begin(2); err != nil {
		b.Fatal(err)
	}
	defer host.End()
	t := host.Thread()
	gl := host.GL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gl.ClearColor(t, 0, 0, 0, 1)
		gl.Clear(t, engine.ColorBufferBit)
		if err := host.Present(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPresentPathCycadaShaderBlit(b *testing.B) { benchPresent(b, harness.CycadaIOS) }
func BenchmarkPresentPathNativeIOS(b *testing.B)        { benchPresent(b, harness.NativeIOS) }
func BenchmarkPresentPathAndroidEGL(b *testing.B)       { benchPresent(b, harness.StockAndroid) }

// BenchmarkJSVM compares the engine's two execution modes.
func benchJS(b *testing.B, opts ...jsvm.Option) {
	sys := system.New(system.Config{})
	app, err := sys.NewIOSApp(system.AppConfig{Name: "js", JITWorks: true})
	if err != nil {
		b.Fatal(err)
	}
	const src = `
var s = 0;
for (var i = 0; i < 2000; i++) { s += (i * 7) & 31; }
s;
`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := jsvm.New(app.Main(), opts...)
		if _, err := e.Run(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJSVMJIT(b *testing.B)         { benchJS(b) }
func BenchmarkJSVMInterpreter(b *testing.B) { benchJS(b, jsvm.WithoutJIT()) }

// BenchmarkEAGLBridgeCoalescing measures a coalesced multi diplomat (one
// persona switch into libEGLbridge) against the equivalent sequence of
// individual diplomatic calls — the §5 design rationale.
func BenchmarkEAGLBridgeCoalescing(b *testing.B) {
	sys := system.New(system.Config{})
	app, err := sys.NewIOSApp(system.AppConfig{Name: "coalesce"})
	if err != nil {
		b.Fatal(err)
	}
	t := app.Main()
	ctx, err := app.EAGL.NewContext(t, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := app.EAGL.SetCurrentContext(t, ctx); err != nil {
		b.Fatal(err)
	}
	b.Run("multi-diplomat", func(b *testing.B) {
		start := t.VTime()
		for i := 0; i < b.N; i++ {
			// One diplomat: setCurrentContext runs set_tls+make_current.
			if err := app.EAGL.SetCurrentContext(t, ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64((t.VTime()-start).Micros())/float64(b.N), "vtime-us/op")
	})
	b.Run("individual-diplomats", func(b *testing.B) {
		start := t.VTime()
		for i := 0; i < b.N; i++ {
			// Five separate GLES diplomats crossing personas each time.
			app.GL.GetError(t)
			app.GL.Viewport(t, 0, 0, 8, 8)
			app.GL.Scissor(t, 0, 0, 8, 8)
			app.GL.BlendFunc(t, 1, 1)
			app.GL.ActiveTexture(t, 0)
		}
		b.ReportMetric(float64((t.VTime()-start).Micros())/float64(b.N), "vtime-us/op")
	})
}

// BenchmarkAcidSuite runs the full conformance suite on Cycada.
func BenchmarkAcidSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := RunExperiment("acid")
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// --- Record/replay benchmarks (internal/replay) ---

func loadGoldenTrace(b *testing.B, name string) *replay.Trace {
	b.Helper()
	path := filepath.Join("internal", "replay", "testdata", name)
	tr, err := replay.ReadFile(path)
	if err != nil {
		b.Fatalf("loading golden trace: %v", err)
	}
	data, err := replay.Encode(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(data)), "trace-bytes")
	b.ReportMetric(float64(len(tr.Events)), "events")
	return tr
}

// BenchmarkReplay re-drives the PassMark 2D golden trace sequentially; the
// events/sec metric is the single-worker replay throughput.
func BenchmarkReplay(b *testing.B) {
	tr := loadGoldenTrace(b, "passmark-2d.cytr")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Play(tr, replay.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Events)*b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkReplayBatch sweeps the command-encoder batch cap over the
// draw-call-heavy PassMark 3D golden trace: the `crossings` metric is the
// persona-boundary window count per replay (the number batching exists to
// shrink), and ns/op shows the wall-clock effect of amortizing the
// impersonation sequence. The `off` sub-bench is the serial baseline.
func BenchmarkReplayBatch(b *testing.B) {
	tr := loadGoldenTrace(b, "passmark-3d.cytr")
	for _, bc := range []struct {
		name string
		cap  int
	}{
		{"off", 0}, {"cap1", 1}, {"cap16", 16}, {"cap64", 64}, {"cap256", 256},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var crossings, batched uint64
			for i := 0; i < b.N; i++ {
				res, err := replay.Play(tr, replay.Options{BatchCap: bc.cap})
				if err != nil {
					b.Fatal(err)
				}
				crossings, batched = res.Crossings, res.BatchedCalls
			}
			b.ReportMetric(float64(crossings), "crossings")
			b.ReportMetric(float64(batched), "batched-calls")
		})
	}
}
