// Package egl simulates Android's EGL stack: the open-source libEGL.so
// front that apps link against, and the vendor-provided libEGL_tegra.so that
// it loads (paper §8.1). It implements window/pbuffer surfaces over gralloc
// GraphicBuffers, presentation through SurfaceFlinger, EGLImages, and the
// platform restriction at the heart of §8: a single EGL-to-GLES connection,
// with a single GLES API version, per process — "seemingly arbitrary, but
// enforced by both vendor and open source libraries".
//
// When built as Cycada's modified library, it additionally exposes the
// custom EGL_multi_context extension (Figure 4): eglReInitializeMC creates a
// replica of the vendor EGL and GLES libraries via the DLR-enabled linker,
// eglSwitchMC selects a thread's replica, and eglGetTLSMC/eglSetTLSMC
// migrate the now-thread-local connection state between threads.
package egl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	agles "cycada/internal/android/gles"
	"cycada/internal/android/gralloc"
	"cycada/internal/android/libc"
	"cycada/internal/android/sflinger"
	"cycada/internal/fault"
	"cycada/internal/gles/engine"
	"cycada/internal/linker"
	"cycada/internal/obs"
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// Library names.
const (
	OpenLibName   = "libEGL.so"
	VendorLibName = "libEGL_tegra.so"
)

// Errors.
var (
	ErrNotInitialized  = fmt.Errorf("egl: display not initialized")
	ErrVersionConflict = fmt.Errorf("egl: a GLES connection with a different API version already exists in this process")
	ErrNoMultiContext  = fmt.Errorf("egl: EGL_multi_context not available (stock library)")
	ErrUnknownReplica  = fmt.Errorf("egl: SwitchMC to unknown replica (not created by eglReInitializeMC, or already closed)")
)

// Vendor is the vendor-provided EGL implementation: it owns the single
// EGL-to-GLES connection of its library instance.
type Vendor struct {
	gles *agles.VendorLib

	mu          sync.Mutex
	connVersion int
}

// Engine returns the vendor GLES engine this EGL instance is wired to.
func (v *Vendor) Engine() *engine.Lib { return v.gles.Engine() }

// Connect establishes (or validates) the singleton GLES connection. The
// first call locks the API version; subsequent calls with another version
// fail — the restriction DLR bypasses.
func (v *Vendor) Connect(version int) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.connVersion == 0 {
		v.connVersion = version
		return nil
	}
	if v.connVersion != version {
		return fmt.Errorf("%w (have v%d, want v%d)", ErrVersionConflict, v.connVersion, version)
	}
	return nil
}

// ConnectedVersion reports the locked GLES version (0 = none yet).
func (v *Vendor) ConnectedVersion() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.connVersion
}

// Symbols implements linker.Instance.
func (v *Vendor) Symbols() map[string]linker.Fn {
	return map[string]linker.Fn{
		"eglVendorConnect": func(t *kernel.Thread, args ...any) any {
			return v.Connect(args[0].(int))
		},
	}
}

// VendorBlueprint returns the vendor EGL blueprint; it links the vendor GLES
// library, so a Dlforce of either replicates both.
func VendorBlueprint() *linker.Blueprint {
	return &linker.Blueprint{
		Name: VendorLibName,
		Deps: []string{agles.LibName},
		New: func(ctx *linker.LoadContext) (linker.Instance, error) {
			return &Vendor{gles: ctx.Dep(agles.LibName).(*agles.VendorLib)}, nil
		},
	}
}

// Surface is an EGL surface: window surfaces are double-buffered
// GraphicBuffers posted to SurfaceFlinger; pbuffers are off-screen.
type Surface struct {
	W, H int

	// Per-surface present accounting (frame-health telemetry): retries of
	// transient present faults and presents dropped after exhausting the
	// retry budget, attributable to this surface.
	retried atomic.Uint64
	dropped atomic.Uint64

	mu        sync.Mutex
	front     *gralloc.Buffer
	back      *gralloc.Buffer
	layer     int // 0 = pbuffer
	target    *gpu.Target
	boundCtx  *engine.Context
	destroyed bool
}

// PresentRetries reports transient present failures retried on this surface.
func (s *Surface) PresentRetries() uint64 { return s.retried.Load() }

// PresentsDropped reports presents of this surface abandoned after retries.
func (s *Surface) PresentsDropped() uint64 { return s.dropped.Load() }

// Target returns the raster target of the surface's back buffer.
func (s *Surface) Target() *gpu.Target {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.target
}

// FrontImage returns the image most recently presented (tests).
func (s *Surface) FrontImage() *gpu.Image {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.front.Img
}

// MCConnection is one EGL_multi_context connection: a replica of the vendor
// EGL and GLES libraries with its own isolated GLES connection (§8.1.1).
type MCConnection struct {
	Handle *linker.Handle
	Vendor *Vendor
	// Degraded reports that the replica load (Dlforce) failed and this
	// connection fell back to the shared vendor instance: the connection
	// works, but without replica isolation — it shares the process's GLES
	// connection and its locked API version, so a version mismatch surfaces
	// as ErrVersionConflict at eglCreateContext rather than an error cascade
	// here. The capability bit lets callers adapt (e.g. skip multi-version
	// tricks) instead of failing outright.
	Degraded bool
}

// Engine returns the replica's GLES engine.
func (c *MCConnection) Engine() *engine.Lib { return c.Vendor.Engine() }

// Lib is the open-source libEGL.so instance.
type Lib struct {
	vendor  *Vendor
	galloc  *gralloc.Lib
	flinger sflinger.Client
	bionic  *libc.Lib
	link    *linker.Linker

	multiContext bool
	mcKey        int // TLS slot holding the thread's MCConnection

	mu          sync.Mutex
	initialized bool
	surfaces    map[*Surface]bool // live surfaces, for introspection snapshots

	// Degradation and recovery counters (fault model, DESIGN.md §9).
	presentRetries  atomic.Uint64 // transient present failures that were retried
	presentsDropped atomic.Uint64 // presents abandoned after exhausting retries
	degradedMC      atomic.Uint64 // ReInitializeMC calls that fell back to shared

	// frameDeadline, when non-zero, is the present-latency budget in virtual
	// nanoseconds: a SwapBuffers exceeding it records a deadline-miss marker
	// and dumps the flight recorder (DESIGN.md §10). Zero disables the check.
	frameDeadline atomic.Int64
}

// PresentHistName names the eglSwapBuffers latency distribution
// (frame-health telemetry) in the owning kernel's histogram registry.
// Resolution happens per present through the thread, so a scheduler that
// swaps the kernel's registry scopes these samples to the running session.
const PresentHistName = "egl-present"

// Counter names for the duration-less present-health events, recorded into
// the owning kernel's counter registry (resolved per event through the
// thread, like PresentHistName). The telemetry plane windows these into
// retry/drop/miss rates.
const (
	CtrPresentRetried    = "egl-present-retried"
	CtrPresentDropped    = "egl-present-dropped"
	CtrFrameDeadlineMiss = "egl-frame-deadline-miss"
)

// SetFrameDeadline sets (or, with 0, clears) the present-latency budget.
func (l *Lib) SetFrameDeadline(d vclock.Duration) { l.frameDeadline.Store(int64(d)) }

// Surfaces returns a snapshot of the live surfaces (introspection).
func (l *Lib) Surfaces() []*Surface {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Surface, 0, len(l.surfaces))
	for s := range l.surfaces {
		out = append(out, s)
	}
	return out
}

func (l *Lib) trackSurface(s *Surface) *Surface {
	l.mu.Lock()
	if l.surfaces == nil {
		l.surfaces = make(map[*Surface]bool)
	}
	l.surfaces[s] = true
	l.mu.Unlock()
	return s
}

// Config parameterizes the open-source library build.
type Config struct {
	// MultiContext enables Cycada's EGL_multi_context extension — the
	// modified Android open-source EGL library of §8.1.1.
	MultiContext bool
}

// Initialize implements eglInitialize: it loads the vendor libraries (done
// by the linker when this library was loaded) and readies the display.
func (l *Lib) Initialize(t *kernel.Thread) (major, minor int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.initialized = true
	return 1, 4, nil
}

// Initialized reports whether eglInitialize has run.
func (l *Lib) Initialized() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.initialized
}

// QueryString implements eglQueryString(EGL_EXTENSIONS).
func (l *Lib) QueryString(t *kernel.Thread) string {
	s := "EGL_KHR_image_base EGL_ANDROID_image_native_buffer EGL_KHR_fence_sync"
	if l.multiContext {
		s += " EGL_multi_context"
	}
	return s
}

// Vendor returns the vendor EGL (tests and libui_wrapper).
func (l *Lib) Vendor() *Vendor { return l.vendor }

func (l *Lib) checkInit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.initialized {
		return ErrNotInitialized
	}
	return nil
}

// CreateWindowSurface implements eglCreateWindowSurface: a double-buffered
// on-screen surface at the given compositor position. A partial failure —
// the second buffer or the compositor layer — releases whatever was already
// acquired, so the error path never leaks gralloc handles.
func (l *Lib) CreateWindowSurface(t *kernel.Thread, x, y, w, h int) (*Surface, error) {
	if err := l.checkInit(); err != nil {
		return nil, err
	}
	if inj := t.Faults(); inj != nil {
		if err := inj.Fail(fault.PointEGLSurface); err != nil {
			return nil, fmt.Errorf("egl window surface: %w", err)
		}
	}
	front, err := l.galloc.Alloc(t, w, h, gpu.FormatRGBA8888)
	if err != nil {
		return nil, fmt.Errorf("egl window surface: %w", err)
	}
	back, err := l.galloc.Alloc(t, w, h, gpu.FormatRGBA8888)
	if err != nil {
		err = fmt.Errorf("egl window surface: %w", err)
		return nil, errors.Join(err, l.galloc.Free(t, front))
	}
	layer, err := l.flinger.CreateLayer(t, x, y)
	if err != nil {
		err = fmt.Errorf("egl window surface: %w", err)
		return nil, errors.Join(err, l.galloc.Free(t, front), l.galloc.Free(t, back))
	}
	return l.trackSurface(&Surface{W: w, H: h, front: front, back: back, layer: layer, target: gpu.NewTarget(back.Img)}), nil
}

// CreatePbufferSurface implements eglCreatePbufferSurface.
func (l *Lib) CreatePbufferSurface(t *kernel.Thread, w, h int) (*Surface, error) {
	if err := l.checkInit(); err != nil {
		return nil, err
	}
	if inj := t.Faults(); inj != nil {
		if err := inj.Fail(fault.PointEGLSurface); err != nil {
			return nil, fmt.Errorf("egl pbuffer: %w", err)
		}
	}
	buf, err := l.galloc.Alloc(t, w, h, gpu.FormatRGBA8888)
	if err != nil {
		return nil, fmt.Errorf("egl pbuffer: %w", err)
	}
	return l.trackSurface(&Surface{W: w, H: h, front: buf, back: buf, target: gpu.NewTarget(buf.Img)}), nil
}

// DestroySurface implements eglDestroySurface. Teardown is best-effort: a
// failing compositor transaction must not strand the gralloc buffers, so all
// three releases run and their errors are joined.
func (l *Lib) DestroySurface(t *kernel.Thread, s *Surface) error {
	s.mu.Lock()
	if s.destroyed {
		s.mu.Unlock()
		return fmt.Errorf("egl: surface already destroyed")
	}
	s.destroyed = true
	front, back, layer := s.front, s.back, s.layer
	s.mu.Unlock()
	l.mu.Lock()
	delete(l.surfaces, s)
	l.mu.Unlock()
	var layerErr error
	if layer != 0 {
		layerErr = l.flinger.DestroyLayer(t, layer)
	}
	frontErr := l.galloc.Free(t, front)
	var backErr error
	if back != front {
		backErr = l.galloc.Free(t, back)
	}
	return errors.Join(layerErr, frontErr, backErr)
}

// CreateContext implements eglCreateContext, establishing (and locking) the
// process's GLES connection version on the stock library.
func (l *Lib) CreateContext(t *kernel.Thread, version int, share *engine.ShareGroup) (*engine.Context, error) {
	if err := l.checkInit(); err != nil {
		return nil, err
	}
	if inj := t.Faults(); inj != nil {
		if err := inj.Fail(fault.PointEGLContext); err != nil {
			return nil, fmt.Errorf("eglCreateContext: %w", err)
		}
	}
	vendor := l.vendorFor(t)
	if err := vendor.Connect(version); err != nil {
		return nil, err
	}
	return vendor.Engine().CreateContext(t, version, share)
}

// DestroyContext implements eglDestroyContext.
func (l *Lib) DestroyContext(t *kernel.Thread, ctx *engine.Context) {
	ctx.Lib().DestroyContext(ctx)
}

// MakeCurrent implements eglMakeCurrent: it binds the context for the
// calling thread (enforcing the Android threading policy) and points the
// default framebuffer at the surface's back buffer.
func (l *Lib) MakeCurrent(t *kernel.Thread, draw *Surface, ctx *engine.Context) error {
	if ctx == nil {
		return l.vendorFor(t).Engine().MakeCurrent(t, nil)
	}
	if err := ctx.Lib().MakeCurrent(t, ctx); err != nil {
		return err
	}
	if draw != nil {
		draw.mu.Lock()
		draw.boundCtx = ctx
		tgt := draw.target
		draw.mu.Unlock()
		ctx.SetDefaultTarget(tgt)
	}
	return nil
}

// SwapBuffers implements eglSwapBuffers: it drains pending GL work, swaps
// the front and back buffers, re-points the default framebuffer, and posts
// the new front buffer to SurfaceFlinger.
func (l *Lib) SwapBuffers(t *kernel.Thread, s *Surface) error {
	if s == nil {
		return fmt.Errorf("egl: swap of nil surface")
	}
	start := t.VTime()
	s.mu.Lock()
	if s.destroyed {
		s.mu.Unlock()
		return fmt.Errorf("egl: swap of destroyed surface")
	}
	ctx := s.boundCtx
	s.front, s.back = s.back, s.front
	s.target = gpu.NewTarget(s.back.Img)
	front, layer := s.front, s.layer
	w, h := s.W, s.H
	tgt := s.target
	s.mu.Unlock()

	if ctx != nil {
		// Drain like glFlush: presentation is a sync point.
		ctx.Lib().Flush(t)
		ctx.SetDefaultTarget(tgt)
	}
	t.ChargeGPU(vclock.Duration(w*h) * t.Costs().PerPixelPresent)
	var err error
	if layer != 0 {
		err = l.post(t, s, layer, front)
	}
	l.observePresent(t, t.VTime()-start)
	return err
}

// observePresent feeds the frame-health layer after a present: the latency
// histogram, the flight-recorder span, and — when a deadline is configured
// and missed — the deadline-miss marker plus an automatic flight dump.
func (l *Lib) observePresent(t *kernel.Thread, dur vclock.Duration) {
	t.Histograms().Histogram(PresentHistName).Observe(t.TID(), dur)
	t.FlightRecord(obs.FlightSpan, obs.CatEGL, "egl:present", int64(dur))
	if dl := l.frameDeadline.Load(); dl > 0 && int64(dur) > dl {
		t.Counters().Counter(CtrFrameDeadlineMiss).Inc()
		t.FlightRecord(obs.FlightMark, obs.CatEGL, "frame_deadline_miss", int64(dur))
		t.FlightDump("frame_deadline_miss")
	}
}

// presentAttempts bounds the retry loop in post: one initial attempt plus
// three retries with doubling backoff.
const presentAttempts = 4

// post delivers a frame to SurfaceFlinger, retrying transient (injected)
// Binder failures with bounded, doubling backoff. A present is the one seam
// where dropping work is acceptable — the next frame repaints the screen —
// so after exhausting retries it counts the dropped frame and reports the
// final error rather than escalating.
func (l *Lib) post(t *kernel.Thread, s *Surface, layer int, front *gralloc.Buffer) error {
	backoff := t.Costs().BinderTxn
	var err error
	for attempt := 0; attempt < presentAttempts; attempt++ {
		if err = l.postOnce(t, layer, front); err == nil {
			return nil
		}
		// Retry only transient faults; an organic error (unknown layer,
		// nil buffer) will not heal by retrying.
		if !fault.Injected(err) {
			return err
		}
		t.FlightRecord(obs.FlightFault, obs.CatEGL, "egl:present_fault", int64(attempt))
		if attempt < presentAttempts-1 {
			l.presentRetries.Add(1)
			s.retried.Add(1)
			t.Counters().Counter(CtrPresentRetried).Inc()
			t.ChargeCPU(backoff)
			backoff *= 2
		}
	}
	l.presentsDropped.Add(1)
	s.dropped.Add(1)
	t.Counters().Counter(CtrPresentDropped).Inc()
	return fmt.Errorf("egl: present dropped after %d attempts: %w", presentAttempts, err)
}

func (l *Lib) postOnce(t *kernel.Thread, layer int, front *gralloc.Buffer) error {
	if inj := t.Faults(); inj != nil {
		if err := inj.Fail(fault.PointEGLPresent); err != nil {
			return err
		}
	}
	return l.flinger.Post(t, layer, front)
}

// PresentRetries reports how many transient present failures were retried.
func (l *Lib) PresentRetries() uint64 { return l.presentRetries.Load() }

// PresentsDropped reports how many presents were abandoned after retries.
func (l *Lib) PresentsDropped() uint64 { return l.presentsDropped.Load() }

// CreateImageKHR implements eglCreateImageKHR over an Android native buffer:
// the returned EGLImage shares the GraphicBuffer's memory and records the
// buffer-to-texture association that blocks CPU locks (§6.2).
func (l *Lib) CreateImageKHR(t *kernel.Thread, buf *gralloc.Buffer) (*engine.EGLImage, error) {
	if err := l.checkInit(); err != nil {
		return nil, err
	}
	if buf == nil || buf.Img == nil {
		return nil, fmt.Errorf("egl: CreateImageKHR of nil buffer")
	}
	buf.AssociateTexture()
	return engine.NewEGLImage(buf.Img), nil
}

// DestroyImageKHR implements eglDestroyImageKHR, implicitly disassociating
// the GraphicBuffer.
func (l *Lib) DestroyImageKHR(t *kernel.Thread, img *engine.EGLImage, buf *gralloc.Buffer) {
	img.Destroy()
	if buf != nil {
		buf.DisassociateTexture()
	}
}

// vendorFor resolves the vendor connection the calling thread should use:
// the thread's MC replica when one is selected, the process singleton
// otherwise.
func (l *Lib) vendorFor(t *kernel.Thread) *Vendor {
	if l.multiContext {
		if conn := l.CurrentMC(t); conn != nil {
			return conn.Vendor
		}
	}
	return l.vendor
}

// --- EGL_multi_context (Figure 4) ---

// ReInitializeMC implements eglReInitializeMC: it creates a fresh replica of
// the vendor EGL and GLES libraries (and, when replicaRoot is
// libui_wrapper.so, of everything that links against them) and selects it
// for the calling thread.
func (l *Lib) ReInitializeMC(t *kernel.Thread, replicaRoot string) (*MCConnection, error) {
	if !l.multiContext {
		return nil, ErrNoMultiContext
	}
	if err := l.checkInit(); err != nil {
		return nil, err
	}
	if replicaRoot == "" {
		replicaRoot = VendorLibName
	}
	h, err := l.link.Dlforce(t, replicaRoot)
	degraded := false
	if err != nil {
		// Graceful degradation (DESIGN.md §9): a failed replica load falls
		// back to a shared-instance connection through the global namespace
		// instead of cascading the error. The connection carries the
		// Degraded capability bit so callers can adapt.
		h, err = l.link.Dlopen(t, replicaRoot)
		if err != nil {
			return nil, fmt.Errorf("eglReInitializeMC: %w", err)
		}
		degraded = true
		l.degradedMC.Add(1)
	}
	vi, ok := l.link.InstanceIn(h, VendorLibName)
	if !ok {
		l.link.Dlclose(h)
		return nil, fmt.Errorf("eglReInitializeMC: replica of %q does not contain %q", replicaRoot, VendorLibName)
	}
	conn := &MCConnection{Handle: h, Vendor: vi.(*Vendor), Degraded: degraded}
	if err := l.SwitchMC(t, conn); err != nil {
		l.link.Dlclose(h)
		return nil, err
	}
	return conn, nil
}

// DegradedReplicas reports how many MC connections fell back to the shared
// vendor instance because their replica load failed.
func (l *Lib) DegradedReplicas() uint64 { return l.degradedMC.Load() }

// SwitchMC implements eglSwitchMC: it selects which replica — and thus which
// GLES connection — the calling thread uses, by storing the connection in
// the thread's TLS (the previously global EGLConnection moved into TLS,
// §8.1.1).
func (l *Lib) SwitchMC(t *kernel.Thread, conn *MCConnection) error {
	if !l.multiContext {
		return ErrNoMultiContext
	}
	if conn == nil {
		t.TLSDelete(kernel.PersonaAndroid, l.mcKey)
		return nil
	}
	// A connection is only switchable while its replica namespace is alive
	// and still holds the vendor library the connection was built around.
	if conn.Handle == nil || conn.Vendor == nil {
		return ErrUnknownReplica
	}
	if vi, ok := l.link.InstanceIn(conn.Handle, VendorLibName); !ok || vi != conn.Vendor {
		return ErrUnknownReplica
	}
	return t.TLSSet(kernel.PersonaAndroid, l.mcKey, conn)
}

// CurrentMC returns the calling thread's selected MC connection, nil if none.
func (l *Lib) CurrentMC(t *kernel.Thread) *MCConnection {
	if !l.multiContext {
		return nil
	}
	v, _ := t.TLSGet(kernel.PersonaAndroid, l.mcKey)
	conn, _ := v.(*MCConnection)
	return conn
}

// GetTLSMC implements eglGetTLSMC: it extracts the thread's EGL/GLES TLS
// values (the MC connection and the replica's current GLES context) so they
// can be migrated to another thread.
func (l *Lib) GetTLSMC(t *kernel.Thread) []any {
	if !l.multiContext {
		return nil
	}
	conn := l.CurrentMC(t)
	var ctx any
	if conn != nil {
		ctx, _ = t.TLSGet(kernel.PersonaAndroid, conn.Engine().TLSKey())
	}
	return []any{conn, ctx}
}

// SetTLSMC implements eglSetTLSMC: it installs TLS values captured by
// GetTLSMC into the calling thread, completing the context migration the
// "create on one thread, render on another" paradigm needs (§8.1.1).
func (l *Lib) SetTLSMC(t *kernel.Thread, vals []any) error {
	if !l.multiContext {
		return ErrNoMultiContext
	}
	if len(vals) != 2 {
		return fmt.Errorf("egl: SetTLSMC needs 2 values, got %d", len(vals))
	}
	conn, _ := vals[0].(*MCConnection)
	if err := l.SwitchMC(t, conn); err != nil {
		return err
	}
	if conn != nil && vals[1] != nil {
		return t.TLSSet(kernel.PersonaAndroid, conn.Engine().TLSKey(), vals[1])
	}
	return nil
}

// CloseMC releases a replica connection (drops the replica namespace).
func (l *Lib) CloseMC(t *kernel.Thread, conn *MCConnection) error {
	if conn == nil {
		return nil
	}
	if l.CurrentMC(t) == conn {
		l.SwitchMC(t, nil)
	}
	return l.link.Dlclose(conn.Handle)
}

// Symbols implements linker.Instance with the EGL entry points diplomats
// resolve by name.
func (l *Lib) Symbols() map[string]linker.Fn {
	return map[string]linker.Fn{
		"eglInitialize": func(t *kernel.Thread, args ...any) any {
			maj, min, err := l.Initialize(t)
			if err != nil {
				return nil
			}
			return [2]int{maj, min}
		},
		"eglQueryString": func(t *kernel.Thread, args ...any) any { return l.QueryString(t) },
		"eglSwapBuffers": func(t *kernel.Thread, args ...any) any {
			s, _ := args[0].(*Surface)
			return l.SwapBuffers(t, s)
		},
	}
}

// Blueprint returns the open-source libEGL.so blueprint.
func Blueprint(cfg Config) *linker.Blueprint {
	return &linker.Blueprint{
		Name: OpenLibName,
		Deps: []string{VendorLibName, gralloc.LibName, "libc.so"},
		New: func(ctx *linker.LoadContext) (linker.Instance, error) {
			lib := &Lib{
				vendor:       ctx.Dep(VendorLibName).(*Vendor),
				galloc:       ctx.Dep(gralloc.LibName).(*gralloc.Lib),
				bionic:       ctx.Dep("libc.so").(*libc.Lib),
				link:         ctx.Linker(),
				multiContext: cfg.MultiContext,
			}
			if cfg.MultiContext {
				lib.mcKey = lib.bionic.CreateKey("egl-mc-connection")
			}
			return lib, nil
		},
	}
}
