// Package stack assembles the simulated Android system: a kernel with the
// gralloc and framebuffer drivers and the SurfaceFlinger Binder service, and
// per-process userspace with Bionic, the vendor GLES/EGL libraries and the
// open-source EGL front registered in a DLR-capable linker.
//
// Both the stock-Android configurations and Cycada build on this package;
// Cycada adds its own libraries (libEGLbridge, libui_wrapper, the GLES
// bridge) on top.
package stack

import (
	"fmt"
	"sync"

	"cycada/internal/android/egl"
	agles "cycada/internal/android/gles"
	"cycada/internal/android/gralloc"
	"cycada/internal/android/libc"
	"cycada/internal/android/sflinger"
	"cycada/internal/linker"
	"cycada/internal/obs"
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// Default screen size: the Nexus 7 panel, scaled down 1/4 per axis to keep
// the software rasterizer tractable while preserving full-screen/partial
// work ratios.
const (
	ScreenW = 320
	ScreenH = 200
)

// System is a booted Android machine.
type System struct {
	Kernel  *kernel.Kernel
	Gralloc *gralloc.Device
	Flinger *sflinger.Flinger

	mu    sync.Mutex
	users []*Userspace
}

// Config describes the machine to boot.
type Config struct {
	Platform vclock.Platform
	Flavor   vclock.KernelFlavor // zero = platform default
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
	// RasterPool overrides RasterWorkers with a pool shared across stacks.
	RasterPool *gpu.Pool
}

// New boots an Android system: kernel, gralloc driver, SurfaceFlinger.
func New(cfg Config) *System {
	if cfg.ScreenW == 0 {
		cfg.ScreenW, cfg.ScreenH = ScreenW, ScreenH
	}
	k := kernel.New(kernel.Config{
		Platform:      cfg.Platform,
		Flavor:        cfg.Flavor,
		Clock:         cfg.Clock,
		Tracer:        cfg.Tracer,
		Flight:        cfg.Flight,
		Histograms:    cfg.Hists,
		Counters:      cfg.Counters,
		RasterWorkers: cfg.RasterWorkers,
		RasterPool:    cfg.RasterPool,
	})
	g := gralloc.NewDevice()
	k.RegisterDevice(gralloc.DevicePath, g)
	f := sflinger.New(cfg.ScreenW, cfg.ScreenH)
	k.RegisterBinderService(sflinger.ServiceName, f)
	k.RegisterDevice(sflinger.FramebufferPath, f.Framebuffer())
	return &System{Kernel: k, Gralloc: g, Flinger: f}
}

// Userspace is the per-process Android userland.
type Userspace struct {
	Proc   *kernel.Process
	Linker *linker.Linker
	Bionic *libc.Lib
	EGL    *egl.Lib

	sys *System
}

// UserConfig parameterizes process creation.
type UserConfig struct {
	Name     string
	Personas []kernel.Persona // defaults to Android-only
	EGL      egl.Config       // MultiContext=true for Cycada's modified libEGL
}

// NewUserspace creates a process with the Android graphics userland
// registered in its linker and libEGL.so loaded and initialized (apps link
// against it at startup, as on real Android).
func (s *System) NewUserspace(cfg UserConfig) (*Userspace, error) {
	personas := cfg.Personas
	if len(personas) == 0 {
		personas = []kernel.Persona{kernel.PersonaAndroid}
	}
	proc, err := s.Kernel.NewProcess(cfg.Name, personas...)
	if err != nil {
		return nil, err
	}
	l := linker.New(proc)
	bionic := libc.New(kernel.PersonaAndroid)
	l.MustRegister(bionic.Blueprint())
	l.MustRegister(gralloc.Blueprint())
	for _, bp := range agles.SupportBlueprints() {
		l.MustRegister(bp)
	}
	l.MustRegister(agles.Blueprint())
	l.MustRegister(egl.VendorBlueprint())
	l.MustRegister(egl.Blueprint(cfg.EGL))

	main := proc.Main()
	h, err := l.Dlopen(main, egl.OpenLibName)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", egl.OpenLibName, err)
	}
	eglLib := h.Instance().(*egl.Lib)
	if _, _, err := eglLib.Initialize(main); err != nil {
		return nil, fmt.Errorf("eglInitialize: %w", err)
	}
	if cfg.EGL.PipelinedPresents {
		eglLib.EnablePipelinedPresents(proc)
	}
	u := &Userspace{Proc: proc, Linker: l, Bionic: bionic, EGL: eglLib, sys: s}
	s.mu.Lock()
	s.users = append(s.users, u)
	s.mu.Unlock()
	return u, nil
}

// Close ends the process: its present pipeline is drained and its presenter
// thread exited, and the system and kernel drop it, so a stack that serves
// session after session retains nothing of the sessions it served. The
// process must be idle. Idempotent.
func (u *Userspace) Close() {
	u.EGL.DisablePipelinedPresents()
	s := u.sys
	s.mu.Lock()
	for i, x := range s.users {
		if x == u {
			s.users = append(s.users[:i], s.users[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.Kernel.ExitProcess(u.Proc)
}

// Shutdown tears the stack down for decommissioning: every userspace's
// present pipeline is drained and its presenter thread exited, and the
// compositor drops its layers and clears the screen. The stack must be
// quiescent — no session body or app thread still driving it — which is why
// the farm only calls this on a cleanly-failed device, never on one whose
// wedged session goroutine was abandoned (that stack is simply dropped).
// Idempotent.
func (s *System) Shutdown() {
	s.mu.Lock()
	users := append([]*Userspace(nil), s.users...)
	s.mu.Unlock()
	for _, u := range users {
		u.EGL.DisablePipelinedPresents()
	}
	s.Flinger.Reset()
}
