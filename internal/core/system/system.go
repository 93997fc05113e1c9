// Package system assembles the complete Cycada configuration of Figure 3: an
// Android system on a Cycada-flavoured kernel with the LinuxCoreSurface
// module, plus per-app dual-persona processes whose iOS-side libraries
// (EAGL, IOSurface, GLES) are Cycada's diplomatic implementations over the
// Android graphics stack.
//
// The same iOS app code that runs against internal/ios/iosys (the native
// iPad configuration) runs unmodified against a system.IOSApp — that is the
// binary compatibility property under test.
package system

import (
	"fmt"
	"strings"

	"cycada/internal/android/egl"
	agles "cycada/internal/android/gles"
	"cycada/internal/android/libc"
	"cycada/internal/android/stack"
	"cycada/internal/core/coresurface"
	"cycada/internal/core/diplomat"
	"cycada/internal/core/eglbridge"
	"cycada/internal/core/glesbridge"
	"cycada/internal/core/impersonate"
	"cycada/internal/core/profile"
	"cycada/internal/core/uiwrapper"
	"cycada/internal/gles/glesapi"
	"cycada/internal/ios/eagl"
	"cycada/internal/ios/gcd"
	"cycada/internal/ios/iokit"
	"cycada/internal/ios/iosurface"
	"cycada/internal/linker"
	"cycada/internal/obs"
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// Cycada is a booted Cycada system: the Nexus 7 hardware, the dual-ABI
// kernel, the Android graphics services, and LinuxCoreSurface.
type Cycada struct {
	Android     *stack.System
	CoreSurface *coresurface.Module
}

// Config describes the machine.
type Config struct {
	Clock    *vclock.Clock
	ScreenW  int
	ScreenH  int
	Tracer   *obs.Tracer         // nil = obs.Default
	Flight   *obs.FlightRecorder // nil = obs.DefaultFlight
	Hists    *obs.Histograms     // nil = obs.DefaultHistograms
	Counters *obs.Counters       // nil = obs.DefaultCounters
	// RasterWorkers bounds the GPU/compose worker pool (kernel.Config).
	// Zero = GOMAXPROCS; 1 = serial. Frames are byte-identical either way.
	RasterWorkers int
	// RasterPool overrides RasterWorkers with a pool shared across stacks
	// (the device farm's shared-pool mode).
	RasterPool *gpu.Pool
}

// Close tears the stack down for decommissioning — the farm calls it before
// booting a replacement device in a quarantined slot. It drains every app's
// present pipeline (exiting presenter threads) and resets the compositor,
// so the only thing keeping the old stack alive afterwards is whatever
// still references it. The stack must be quiescent: Close is never called
// on a stack whose wedged session goroutine was abandoned — that stack is
// dropped without teardown, because the abandoned body still owns it.
// Idempotent.
func (c *Cycada) Close() {
	c.Android.Shutdown()
}

// New boots a Cycada system.
func New(cfg Config) *Cycada {
	sys := stack.New(stack.Config{
		Platform:      vclock.Nexus7(),
		Flavor:        vclock.KernelCycada,
		Clock:         cfg.Clock,
		ScreenW:       cfg.ScreenW,
		ScreenH:       cfg.ScreenH,
		Tracer:        cfg.Tracer,
		Flight:        cfg.Flight,
		Hists:         cfg.Hists,
		Counters:      cfg.Counters,
		RasterWorkers: cfg.RasterWorkers,
		RasterPool:    cfg.RasterPool,
	})
	mod := coresurface.New()
	sys.Kernel.RegisterMachService(iokit.CoreSurfaceService, mod)
	return &Cycada{Android: sys, CoreSurface: mod}
}

// AppConfig parameterizes an iOS app process.
type AppConfig struct {
	Name string
	// JITWorks enables executable mappings. The prototype's Mach VM memory
	// bug "prevents JIT from working properly" (§9), so the default — false
	// — denies them, which is what slows SunSpider down in Figure 5.
	JITWorks bool
	// PipelinedPresents routes this app's presents through a dedicated
	// presenter thread (egl pipeline): frame N+1 encodes while frame N
	// rasterizes and composes. Checksum-verifying harnesses (record/replay)
	// leave it off — they read the screen synchronously after each present.
	PipelinedPresents bool
}

// IOSApp is a running iOS app environment under Cycada: everything the app
// binary would have linked against, backed by diplomats.
type IOSApp struct {
	Proc      *kernel.Process
	Linker    *linker.Linker
	LibSystem *libc.Lib
	Android   *stack.Userspace

	Surfaces *iosurface.Lib
	EAGL     *eagl.Lib
	GL       *glesapi.GL

	Bridge       *glesbridge.Bridge
	Backend      *eglbridge.Backend
	Profiler     *profile.Profiler
	Impersonator *impersonate.Manager

	snapUnregs []func()
}

// Close ends the app when its session is over: it unregisters the
// introspection sources NewIOSApp registered (so obs.Snapshot never polls
// torn-down state), drains the app's present pipeline, and removes its
// userspace and process from the stack. A reused stack — a farm device, a
// replay target — therefore retains nothing of the apps it ran. Closing
// charges no virtual time and counts no syscall. The app must be idle.
// Idempotent.
func (a *IOSApp) Close() {
	for _, unreg := range a.snapUnregs {
		unreg()
	}
	a.snapUnregs = nil
	a.Android.Close()
}

// Main returns the app's main thread.
func (a *IOSApp) Main() *kernel.Thread { return a.Proc.Main() }

// NewQueue creates a GCD queue whose jobs inherit the submitter's EAGL
// context (through impersonation on this backend).
func (a *IOSApp) NewQueue(name string) *gcd.Queue {
	return gcd.NewQueue(a.Proc, name, a.EAGL.Carrier())
}

// NewLayer creates a CAEAGLLayer backed by an IOSurface (which, under
// Cycada, LinuxCoreSurface backs with a GraphicBuffer).
func (a *IOSApp) NewLayer(t *kernel.Thread, x, y, w, h int) (*eagl.CAEAGLLayer, error) {
	surf, err := a.Surfaces.Create(t, w, h, gpu.FormatRGBA8888)
	if err != nil {
		return nil, fmt.Errorf("layer surface: %w", err)
	}
	return &eagl.CAEAGLLayer{W: w, H: h, X: x, Y: y, Surf: surf}, nil
}

// NewIOSApp creates a dual-persona process with the full Cycada iOS
// userland.
func (c *Cycada) NewIOSApp(cfg AppConfig) (*IOSApp, error) {
	us, err := c.Android.NewUserspace(stack.UserConfig{
		Name:     cfg.Name,
		Personas: []kernel.Persona{kernel.PersonaIOS, kernel.PersonaAndroid},
		EGL:      egl.Config{MultiContext: true, PipelinedPresents: cfg.PipelinedPresents},
	})
	if err != nil {
		return nil, err
	}
	main := us.Proc.Main()
	if !cfg.JITWorks {
		us.Proc.Mem().DenyExecutable(true)
	}

	// iOS-side libc and the impersonation manager over both libcs.
	libSystem := libc.New(kernel.PersonaIOS)
	us.Linker.MustRegister(libSystem.Blueprint())
	imp := impersonate.New(us.Bionic, libSystem)
	// The globally loaded vendor GLES predates the manager; adopt its key.
	imp.RegisterAndroidGraphicsKey(us.EGL.Vendor().Engine().TLSKey())

	prof := profile.New()
	hooks := &diplomat.Hooks{
		GL:       true,
		Prelude:  func(t *kernel.Thread) { imp.GateEnter() },
		Postlude: func(t *kernel.Thread) { imp.GateExit() },
	}

	// libui_wrapper joins the registry so eglReInitializeMC can replicate it.
	us.Linker.MustRegister(uiwrapper.Blueprint())

	// libEGLbridge (domestic half).
	us.Linker.MustRegister(eglbridge.Blueprint(eglbridge.Deps{
		EGL:          us.EGL,
		CoreSurface:  c.CoreSurface,
		Impersonator: imp,
	}))
	ebH, err := us.Linker.Dlopen(main, eglbridge.LibName)
	if err != nil {
		return nil, fmt.Errorf("loading libEGLbridge: %w", err)
	}

	dipCfg := diplomat.Config{
		Foreign:  kernel.PersonaIOS,
		Domestic: kernel.PersonaAndroid,
		Linker:   us.Linker,
		Library:  ebH,
		Hooks:    hooks,
		Profiler: prof,
		// A panic isolated inside a diplomat poisons the thread's current
		// GLES context — replica engine when the thread is bound to an
		// EGL_multi_context replica, the global vendor engine otherwise — so
		// the app sees a sticky GL_OUT_OF_MEMORY instead of corrupt state.
		Poison: func(t *kernel.Thread) {
			if conn := us.EGL.CurrentMC(t); conn != nil {
				conn.Engine().PoisonCurrent(t)
				return
			}
			us.EGL.Vendor().Engine().PoisonCurrent(t)
		},
	}
	backend, err := eglbridge.NewBackend(dipCfg)
	if err != nil {
		return nil, err
	}

	// IOSurface with Cycada's interposition (§6).
	surfaces := iosurface.New(backend)
	us.Linker.MustRegister(surfaces.Blueprint())
	if _, err := us.Linker.Dlopen(main, iosurface.LibName); err != nil {
		return nil, fmt.Errorf("loading IOSurface: %w", err)
	}

	// The diplomatic GLES library under Apple's name (§4). Direct diplomats
	// route to the thread's replica when one is selected, otherwise to the
	// globally loaded Tegra library.
	globalGLES, err := us.Linker.Dlopen(main, agles.LibName)
	if err != nil {
		return nil, fmt.Errorf("resolving global GLES: %w", err)
	}
	glesCfg := glesbridge.Config{
		Diplomat:  dipCfg,
		EGLBridge: ebH,
	}
	glesCfg.Diplomat.Library = nil
	glesCfg.Diplomat.LibraryFor = func(t *kernel.Thread) *linker.Handle {
		if conn := us.EGL.CurrentMC(t); conn != nil {
			return conn.Handle
		}
		return globalGLES
	}
	bridge, err := glesbridge.New(glesCfg)
	if err != nil {
		return nil, err
	}
	us.Linker.MustRegister(glesbridge.Blueprint(bridge))
	bh, err := us.Linker.Dlopen(main, glesbridge.LibName)
	if err != nil {
		return nil, fmt.Errorf("loading diplomatic GLES: %w", err)
	}

	eaglLib := eagl.New(backend, libSystem)
	imp.RegisterIOSGraphicsKey(eaglLib.CurrentContextKey())

	app := &IOSApp{
		Proc:         us.Proc,
		Linker:       us.Linker,
		LibSystem:    libSystem,
		Android:      us,
		Surfaces:     surfaces,
		EAGL:         eaglLib,
		GL:           glesapi.New(us.Linker, bh),
		Bridge:       bridge,
		Backend:      backend,
		Profiler:     prof,
		Impersonator: imp,
	}
	// The EAGL flush points (present, context switch, teardown) drain the
	// command encoder so queued GLES work always lands before the display or
	// another context could observe its absence.
	eaglLib.SetFlushHook(func(t *kernel.Thread) { app.GL.FlushBatch(t) })
	if cap := glesapi.DefaultBatchCap(); cap > 0 {
		app.GL.EnableBatching(cap)
	}
	app.registerSnapshotSources(cfg.Name, c, ebH.Instance().(*eglbridge.Lib))
	return app, nil
}

// registerSnapshotSources wires the app's live state into obs.Snapshot: the
// impersonation manager, the EGL stack with its per-surface present health,
// the DLR replica namespaces, the bridge's thread bindings, and the kernel's
// fault-injection status. Registration is a no-op unless snapshot sources
// were enabled (obs.SetSnapshotSourcesEnabled) before boot.
func (a *IOSApp) registerSnapshotSources(name string, c *Cycada, bridgeLib *eglbridge.Lib) {
	imp, eglLib, link := a.Impersonator, a.Android.EGL, a.Linker
	k := c.Android.Kernel
	a.snapUnregs = append(a.snapUnregs,
		obs.RegisterSnapshotSource("impersonation/"+name, func() obs.Section {
			var sec obs.Section
			sec.Addf("active-sessions", "%d", imp.ActiveSessions())
			sec.Addf("gate-depth", "%d", imp.GateDepth())
			return sec
		}),
		obs.RegisterSnapshotSource("egl/"+name, func() obs.Section {
			var sec obs.Section
			sec.Addf("degraded-replicas", "%d", eglLib.DegradedReplicas())
			sec.Addf("present-retries", "%d", eglLib.PresentRetries())
			sec.Addf("presents-dropped", "%d", eglLib.PresentsDropped())
			surfaces := eglLib.Surfaces()
			sec.Addf("live-surfaces", "%d", len(surfaces))
			for i, s := range surfaces {
				sec.Addf(fmt.Sprintf("surface[%d]", i), "%dx%d retried=%d dropped=%d",
					s.W, s.H, s.PresentRetries(), s.PresentsDropped())
			}
			return sec
		}),
		obs.RegisterSnapshotSource("dlr/"+name, func() obs.Section {
			var sec obs.Section
			nss := link.Namespaces()
			sec.Addf("namespaces", "%d (1 global + %d replicas)", len(nss), len(nss)-1)
			for _, ns := range nss {
				key := "global"
				if ns.ID != 0 {
					key = fmt.Sprintf("replica[%d]", ns.ID)
				}
				sec.Addf(key, "%d libs: %s", len(ns.Libs), strings.Join(ns.Libs, " "))
			}
			return sec
		}),
		obs.RegisterSnapshotSource("glesbatch/"+name, func() obs.Section {
			var sec obs.Section
			sec.Addf("enabled", "%v", a.GL.BatchingEnabled())
			sec.Addf("crossings", "%d", a.Bridge.Crossings())
			sec.Addf("batched-calls", "%d", a.Bridge.BatchedCalls())
			counts := a.GL.BatchFlushCounts()
			for r, n := range counts {
				sec.Addf("flush."+glesapi.FlushReason(r).String(), "%d", n)
			}
			return sec
		}),
		obs.RegisterSnapshotSource("eglbridge/"+name, func() obs.Section {
			var sec obs.Section
			sec.Addf("current-contexts", "%d", bridgeLib.ContextCount())
			sec.Addf("held-impersonations", "%d", bridgeLib.SessionCount())
			return sec
		}),
		obs.RegisterSnapshotSource("faults/"+name, func() obs.Section {
			var sec obs.Section
			inj := k.FaultInjector()
			if inj == nil {
				sec.Add("injector", "none")
				return sec
			}
			sec.Addf("armed", "%v", inj.Armed())
			sec.Add("schedule", inj.Schedule().String())
			sec.Add("stats", inj.Stats().String())
			return sec
		}),
	)
}
