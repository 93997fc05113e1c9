// Package kernel simulates the operating-system kernel(s) of the Cycada
// system: processes, threads, per-thread personas with separate TLS areas,
// syscall dispatch with per-ABI entry paths, Mach IPC, Binder transactions
// and ioctl devices.
//
// A Cycada thread has two personas — a foreign (iOS) one and a domestic
// (Android) one — each selecting a kernel ABI personality and a TLS area
// (paper §1, §3). The kernel implements the three Cycada syscalls the paper
// introduces: set_persona (diplomat steps 4 and 8), and locate_tls /
// propagate_tls (thread impersonation, §7.1).
package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cycada/internal/fault"
	"cycada/internal/obs"
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/vclock"
)

// Persona is a thread execution mode: it selects the kernel ABI personality
// and the TLS area used while the thread executes (paper §1).
type Persona uint8

// The two personas of the paper. PersonaNone is the zero value.
const (
	PersonaNone    Persona = iota
	PersonaAndroid         // domestic
	PersonaIOS             // foreign
)

// String implements fmt.Stringer.
func (p Persona) String() string {
	switch p {
	case PersonaAndroid:
		return "android"
	case PersonaIOS:
		return "ios"
	default:
		return "none"
	}
}

// Device is an ioctl-capable driver node ("opaque ioctls", paper §2).
type Device interface {
	// Ioctl handles one command. Both cmd and arg are intentionally opaque,
	// mirroring the proprietary driver interfaces the paper describes.
	Ioctl(t *Thread, cmd uint32, arg any) (any, error)
}

// MachService is a kernel service reachable via Mach IPC (I/O Kit drivers
// such as IOCoreSurface and IOMobileFramebuffer).
type MachService interface {
	MachCall(t *Thread, msgID uint32, body any) (any, error)
}

// BinderService is a service reachable via Binder transactions
// (SurfaceFlinger and friends).
type BinderService interface {
	Transact(t *Thread, code uint32, data any) (any, error)
}

// Kernel is a simulated kernel instance. Its flavour selects the syscall
// entry path behaviour measured in Table 3.
type Kernel struct {
	clock  *vclock.Clock
	costs  *vclock.CostModel
	plat   vclock.Platform
	flavor vclock.KernelFlavor

	tracer *obs.Tracer         // never nil; disabled by default
	flight *obs.FlightRecorder // never nil; the always-on black box
	raster *gpu.Pool           // never nil; bounds raster/compose parallelism

	// hists is the histogram registry this kernel's frame-health sites
	// (EGL present, SurfaceFlinger compose, diplomat calls, impersonation
	// sessions) record into. Never nil; swappable at runtime so a scheduler
	// can scope the samples of one session to its own registry.
	hists atomic.Pointer[obs.Histograms]

	// counters is the event-counter registry for duration-less health events
	// in this kernel's world (present retries/drops, frame-deadline misses).
	// Never nil; the telemetry exposition server scrapes and windows it.
	counters atomic.Pointer[obs.Counters]

	// faults is the fault injector every cross-persona seam in this kernel's
	// world consults (via Thread.Faults). Nil means injection is off and the
	// whole per-site cost is this one atomic load.
	faults atomic.Pointer[fault.Injector]

	mu      sync.Mutex
	devices map[string]Device
	mach    map[string]MachService
	binder  map[string]BinderService
	procs   map[int]*Process
	nextPID int
	// Exported PIDs are pidBase + (pid - pidFirst): kernels sharing a
	// tracer must not collide, and a kernel that has used up its PID
	// space takes a fresh one rather than running into the next
	// kernel's.
	pidBase, pidFirst int
	syscalls          atomic.Int64
}

// Config describes a kernel to create.
type Config struct {
	Platform vclock.Platform
	Costs    *vclock.CostModel
	Clock    *vclock.Clock // optional; a fresh clock is created when nil
	// Flavor overrides the platform's kernel flavour (used to build the
	// Cycada kernel on Nexus 7 hardware). Zero keeps the platform default.
	Flavor vclock.KernelFlavor
	// Tracer receives the kernel's spans (syscalls, and — through the thread
	// helpers — diplomat, impersonation, DLR and EGL spans). Nil attaches
	// obs.Default, which is disabled until something enables it.
	Tracer *obs.Tracer
	// Flight receives the kernel's flight-recorder events (the always-on
	// black box dumped on panic isolation, rollback, chaos invariant
	// failure, and frame deadline misses). Nil attaches obs.DefaultFlight.
	Flight *obs.FlightRecorder
	// Histograms is the frame-health histogram registry the kernel's world
	// records into. Nil attaches obs.DefaultHistograms, which keeps every
	// single-stack caller on the process-wide registry; a device farm gives
	// each stack its own so concurrent stacks never mix samples.
	Histograms *obs.Histograms
	// Counters is the event-counter registry for duration-less health events
	// (present retries/drops, frame-deadline misses). Nil attaches
	// obs.DefaultCounters; a device farm gives each stack its own.
	Counters *obs.Counters
	// Faults installs a fault injector at boot. Nil falls back to
	// fault.Default(), which is itself nil unless a -faults flag set it.
	Faults *fault.Injector
	// RasterWorkers bounds the worker pool the software GPU and
	// SurfaceFlinger use for tiled rasterization and compose. Zero sizes the
	// pool to GOMAXPROCS; 1 forces fully serial rendering. Any value yields
	// byte-identical frames — the tiled rasterizer is deterministic across
	// worker counts — so this only trades latency for CPU.
	RasterWorkers int
	// RasterPool, when non-nil, overrides RasterWorkers with an existing
	// pool. Pools are stateless, so several kernels (a device farm) can
	// share one to bound total render parallelism across the process.
	RasterPool *gpu.Pool
}

// New creates a kernel.
func New(cfg Config) *Kernel {
	if cfg.Costs == nil {
		cfg.Costs = vclock.DefaultCosts()
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewClock()
	}
	flavor := cfg.Flavor
	if flavor == 0 {
		flavor = cfg.Platform.Kernel
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.Default
	}
	flight := cfg.Flight
	if flight == nil {
		flight = obs.DefaultFlight
	}
	hists := cfg.Histograms
	if hists == nil {
		hists = obs.DefaultHistograms
	}
	raster := cfg.RasterPool
	if raster == nil {
		raster = gpu.NewPool(cfg.RasterWorkers)
	}
	k := &Kernel{
		clock:   cfg.Clock,
		costs:   cfg.Costs,
		plat:    cfg.Platform,
		flavor:  flavor,
		tracer:  tracer,
		flight:  flight,
		raster:  raster,
		pidBase: tracer.AllocPIDSpace(),
		devices: make(map[string]Device),
		mach:    make(map[string]MachService),
		binder:  make(map[string]BinderService),
		procs:   make(map[int]*Process),
	}
	k.hists.Store(hists)
	counters := cfg.Counters
	if counters == nil {
		counters = obs.DefaultCounters
	}
	k.counters.Store(counters)
	if cfg.Faults != nil {
		k.faults.Store(cfg.Faults)
	} else if inj := fault.Default(); inj != nil {
		k.faults.Store(inj)
	}
	return k
}

// Clock returns the kernel's virtual clock.
func (k *Kernel) Clock() *vclock.Clock { return k.clock }

// Costs returns the cost model in effect.
func (k *Kernel) Costs() *vclock.CostModel { return k.costs }

// Platform returns the hardware profile the kernel runs on.
func (k *Kernel) Platform() vclock.Platform { return k.plat }

// Flavor returns the kernel flavour (stock Linux, Cycada, XNU).
func (k *Kernel) Flavor() vclock.KernelFlavor { return k.flavor }

// Tracer returns the tracer this kernel's spans go to.
func (k *Kernel) Tracer() *obs.Tracer { return k.tracer }

// Flight returns the flight recorder this kernel's events go to.
func (k *Kernel) Flight() *obs.FlightRecorder { return k.flight }

// Histograms returns the registry this kernel's frame-health sites record
// into. Never nil.
func (k *Kernel) Histograms() *obs.Histograms { return k.hists.Load() }

// SetHistograms swaps the kernel's histogram registry at runtime (nil
// restores obs.DefaultHistograms). A session scheduler installs a
// session-scoped registry before running a session on this kernel's stack
// and restores the previous one afterwards, so per-session frame health is
// separable. Sites that cache a histogram pointer at construction keep
// recording into the registry that was current when they were built.
func (k *Kernel) SetHistograms(hs *obs.Histograms) {
	if hs == nil {
		hs = obs.DefaultHistograms
	}
	k.hists.Store(hs)
}

// Counters returns the event-counter registry this kernel's duration-less
// health events count into. Never nil.
func (k *Kernel) Counters() *obs.Counters { return k.counters.Load() }

// RasterPool returns the bounded worker pool the kernel's graphics devices
// (software GPU tiles, SurfaceFlinger compose) render on.
func (k *Kernel) RasterPool() *gpu.Pool { return k.raster }

// SetFaultInjector installs (nil uninstalls) the fault injector the kernel's
// injection points consult. Safe to call on a running kernel.
func (k *Kernel) SetFaultInjector(inj *fault.Injector) { k.faults.Store(inj) }

// FaultInjector returns the installed injector, nil when injection is off.
func (k *Kernel) FaultInjector() *fault.Injector { return k.faults.Load() }

// SyscallCount reports the total number of syscalls dispatched; used by the
// micro-benchmark harness and tests.
func (k *Kernel) SyscallCount() int64 { return k.syscalls.Load() }

// RegisterDevice installs an ioctl device node under a path such as
// "/dev/nvhost-gr3d" or "/dev/gralloc".
func (k *Kernel) RegisterDevice(path string, d Device) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.devices[path] = d
}

// RegisterMachService installs an I/O Kit style service reachable by name.
func (k *Kernel) RegisterMachService(name string, s MachService) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.mach[name] = s
}

// RegisterBinderService installs a Binder service reachable by name.
func (k *Kernel) RegisterBinderService(name string, s BinderService) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.binder[name] = s
}

func (k *Kernel) device(path string) (Device, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	d, ok := k.devices[path]
	if !ok {
		return nil, fmt.Errorf("kernel: no device %q", path)
	}
	return d, nil
}

func (k *Kernel) machService(name string) (MachService, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	s, ok := k.mach[name]
	if !ok {
		return nil, fmt.Errorf("kernel: no mach service %q", name)
	}
	return s, nil
}

func (k *Kernel) binderService(name string) (BinderService, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	s, ok := k.binder[name]
	if !ok {
		return nil, fmt.Errorf("kernel: no binder service %q", name)
	}
	return s, nil
}

// ExitProcess reaps a finished process: the kernel forgets it, and the
// tracer its names (Tracer.ForgetProcess), so nothing the process built
// stays reachable through either. Like the rest of teardown it charges no
// virtual time and counts no syscall. Idempotent.
func (k *Kernel) ExitProcess(p *Process) {
	k.mu.Lock()
	delete(k.procs, p.pid)
	k.mu.Unlock()
	k.tracer.ForgetProcess(p.tracePID)
}

// Processes returns a snapshot of live processes.
func (k *Kernel) Processes() []*Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		out = append(out, p)
	}
	return out
}
