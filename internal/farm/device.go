package farm

import (
	"fmt"
	"time"

	"cycada/internal/android/egl"
	"cycada/internal/core/system"
	"cycada/internal/fault"
	"cycada/internal/harness"
	"cycada/internal/obs"
	"cycada/internal/replay"
)

// DeviceState is one device slot's health state. The machine is
//
//	Healthy ──(timeout, or QuarantineAfter consecutive failures)──▶ Quarantined
//	Quarantined ──(backoff + fresh boot)──▶ Healthy
//	Quarantined ──(MaxReboots exhausted, or farm closing)──▶ Retired
//
// Placement skips quarantined and retired devices; a quarantined slot comes
// back with a fresh stack, a retired one never runs again.
type DeviceState int

const (
	// DeviceHealthy runs sessions.
	DeviceHealthy DeviceState = iota
	// DeviceQuarantined is out of placement while its slot tears down the
	// old stack, waits out the crash-loop backoff, and boots a fresh one.
	DeviceQuarantined
	// DeviceRetired is the circuit-breaker terminal state: the slot rebooted
	// MaxReboots times (or the farm closed mid-quarantine) and is permanently
	// out of service.
	DeviceRetired
)

// String implements fmt.Stringer.
func (s DeviceState) String() string {
	switch s {
	case DeviceHealthy:
		return "healthy"
	case DeviceQuarantined:
		return "quarantined"
	case DeviceRetired:
		return "retired"
	}
	return "unknown"
}

// Device is one device slot: the currently booted Cycada stack plus its
// scheduler and health state. All scheduler fields (queue, counters, busy,
// state, sys) are guarded by the owning farm's mutex; the stack itself is
// touched only by the session goroutine the slot's scheduler started — one
// at a time, unless a wedged one was abandoned, in which case the slot's
// stack is replaced and the abandoned goroutine keeps the old one to itself.
type Device struct {
	// ID is the device's 0-based index in the farm.
	ID int
	// Hists is the device's base histogram registry: what the kernel scopes
	// to between sessions (boot, teardown, anything outside a session body).
	// It survives reboots — the replacement stack records into the same one.
	Hists *obs.Histograms
	// Ctrs is the device's event-counter registry (present retries/drops,
	// frame-deadline misses). Unlike histograms it is never swapped per
	// session — counters accumulate for the life of the slot — and like
	// Hists it survives reboots.
	Ctrs *obs.Counters
	// Flight is the device's flight recorder — a per-device black box, so one
	// device's crash dump is not interleaved with its siblings'. It also
	// survives reboots, so the dump taken when a watchdog fires stays
	// available after the slot recovers.
	Flight *obs.FlightRecorder

	farm *Farm
	sys  *system.Cycada

	queue    []*Session
	sessions int
	failures int
	busy     bool

	// Health state, guarded by farm.mu.
	state       DeviceState
	consecFails int  // consecutive failed sessions; reset on success
	timeouts    int  // watchdog expiries on this slot
	reboots     int  // fresh stacks booted into this slot (not counting boot 0)
	wedged      bool // current stack is owned by an abandoned goroutine
}

// bootDevice boots one device stack with device-scoped observability. When
// the farm has a shared raster pool all devices compose on it; otherwise
// each device gets its own pool sized by Config.RasterWorkers.
func bootDevice(f *Farm, id int) *Device {
	d := &Device{
		ID:     id,
		Hists:  obs.NewHistograms(),
		Ctrs:   obs.NewCounters(),
		Flight: obs.NewFlightRecorder(),
		farm:   f,
	}
	d.Hists.SetEnabled(true)
	d.Flight.SetEnabled(true)
	d.sys = d.bootStack()
	return d
}

// bootStack boots a fresh Cycada stack for this slot, reusing the device's
// histogram registry and flight recorder so telemetry spans reboots.
func (d *Device) bootStack() *system.Cycada {
	return system.New(system.Config{
		Tracer:        d.farm.cfg.Tracer,
		Flight:        d.Flight,
		Hists:         d.Hists,
		Counters:      d.Ctrs,
		RasterWorkers: d.farm.cfg.RasterWorkers,
		RasterPool:    d.farm.sharedPool,
	})
}

// System returns the device's booted stack (tests and custom session bodies
// submitted from outside). After a reboot this is the replacement stack.
func (d *Device) System() *system.Cycada {
	d.farm.mu.Lock()
	defer d.farm.mu.Unlock()
	return d.sys
}

// State returns the device's health state.
func (d *Device) State() DeviceState {
	d.farm.mu.Lock()
	defer d.farm.mu.Unlock()
	return d.state
}

// loadLocked is the placement metric: queued plus running sessions. Caller
// holds farm.mu.
func (d *Device) loadLocked() int {
	n := len(d.queue)
	if d.busy {
		n++
	}
	return n
}

// dispatch runs one session attempt under the watchdog: the session body
// executes on its own goroutine against the stack captured at dispatch time,
// and the slot's scheduler waits for whichever comes first — the result, the
// session deadline, or the farm's drain deadline. On expiry the wedged
// goroutine is abandoned (it may finish later; its result is discarded), the
// device's flight recorder is auto-dumped with the timeout marker, and the
// attempt fails with a classified *TimeoutError. abandoned reports that the
// goroutine — and with it the stack — was given up, which obligates the
// caller to quarantine and reboot the slot.
func (d *Device) dispatch(s *Session, sys *system.Cycada, attempt int) (res Result, abandoned bool) {
	resCh := make(chan Result, 1) // buffered: an abandoned body's send never blocks
	go func() {
		resCh <- d.runSession(sys, s)
	}()

	deadline := s.spec.effectiveDeadline(d.farm.cfg.SessionDeadline)
	var timeoutC <-chan time.Time
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case res = <-resCh:
		return res, false
	case <-timeoutC:
		// Prefer a result that raced the timer over abandoning the body.
		select {
		case res = <-resCh:
			return res, false
		default:
		}
		d.Flight.AutoDump(fmt.Sprintf("session-timeout: %q attempt %d wedged on device %d after %v",
			s.spec.Name, attempt, d.ID, deadline))
		return Result{
			Name:   s.spec.Name,
			Device: d.ID,
			Queued: time.Since(s.submitted),
			Err:    &TimeoutError{Name: s.spec.Name, Device: d.ID, Attempt: attempt, Deadline: deadline},
		}, true
	case <-d.farm.forceCh:
		select {
		case res = <-resCh:
			return res, false
		default:
		}
		return Result{
			Name:   s.spec.Name,
			Device: d.ID,
			Queued: time.Since(s.submitted),
			Err:    fmt.Errorf("farm: session %q abandoned at drain deadline: %w", s.spec.Name, ErrClosed),
		}, true
	}
}

// runSession executes one session attempt on the given stack: scope the
// kernel's histogram registry (and the session's injector, when it has one)
// to the session, run the body, harvest results, then recycle the stack for
// the next session. It runs on a dedicated goroutine and touches only the
// stack captured at dispatch — never d.sys, which a reboot may have swapped
// under an abandoned body.
func (d *Device) runSession(sys *system.Cycada, s *Session) Result {
	started := time.Now()
	res := Result{
		Name:   s.spec.Name,
		Device: d.ID,
		Queued: started.Sub(s.submitted),
	}

	k := sys.Android.Kernel
	reg := obs.NewHistograms()
	reg.SetEnabled(true)
	k.SetHistograms(reg)
	inj := s.inj
	if inj != nil {
		k.SetFaultInjector(inj)
	}

	// The injected wedge the watchdog exists for: park before the body, as a
	// body that hung on entry would.
	if inj != nil && inj.Should(fault.PointSessionHang) {
		d.farm.park("session_hang")
		res.Err = ErrClosed // only observable after Close releases the park
		return res
	}

	// The device's own work — booting the session's app and tearing it
	// down, then harvesting and recycling — is spanned in the kernel's
	// PID space, around and after the body's spans. Only an attempt that
	// succeeded records them: a failed attempt is retried or reported, and
	// the device time a session reports (Result.Ran) is that of the
	// attempt delivered.
	body := k.TraceBegin(obs.CatFarm, "farm:body")
	res.Err = d.runBody(sys, s, &res)
	if res.Err == nil {
		body.End(0)
	}
	recycle := k.TraceBegin(obs.CatFarm, "farm:recycle")

	// Unscope before harvesting: the injector must not outlive its session
	// (a later session on this device runs fault-free unless it asks), and
	// teardown work below records into the device registry, not the session's.
	if inj != nil {
		res.FaultStats = inj.Stats()
		k.SetFaultInjector(nil)
	}
	k.SetHistograms(d.Hists)
	// Fold the session's samples back into the device registry: per-session
	// scoping keeps Result percentiles clean, but the device registry is what
	// the telemetry plane windows, and it must see every frame the slot ran.
	d.Hists.Merge(reg)

	// The scan-out checksum of the session's last composed frame — captured
	// before the screen recycles, so a caller can compare it against a
	// single-stack run of the same workload.
	res.Checksum = sys.Android.Flinger.ScreenChecksum()
	if h, ok := reg.Lookup(egl.PresentHistName); ok {
		res.Frames = h.Count()
		res.FrameP50 = h.P50()
		res.FrameP95 = h.P95()
		res.FrameP99 = h.P99()
		res.FrameMax = h.Max()
	}

	// The injected device wedge: the body finished but the stack hangs during
	// recycle — the whole slot is wedged and must be rebooted.
	if inj != nil && inj.Should(fault.PointDeviceWedge) {
		d.farm.park("device_wedge")
		res.Err = ErrClosed
		return res
	}

	// Recycle: the session's app process is gone (each body creates and
	// closes its own), so dropping the layers, clearing the screen and
	// reclaiming the IOSurfaces it never released returns the stack to the
	// state a fresh boot would present.
	sys.Android.Flinger.Reset()
	sys.CoreSurface.Reclaim(sys.Android.Gralloc)
	if res.Err == nil {
		recycle.End(0)
	}
	res.Ran = time.Since(started)
	return res
}

// runBody dispatches to the session body selected by the spec, converting
// panics into classified *PanicError failures so a crashing body (or an
// injected diplomat_panic that escapes recovery) fails its session, not the
// farm, and verification divergence into *VerifyError.
func (d *Device) runBody(sys *system.Cycada, s *Session, res *Result) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Name: s.spec.Name, Value: r}
		}
	}()
	switch {
	case s.spec.Body != nil:
		return s.spec.Body(sys)
	case s.spec.Trace != nil:
		pres, err := replay.Play(s.spec.Trace, replay.Options{
			Verify: s.spec.Verify,
			Tracer: d.farm.cfg.Tracer,
			System: sys,
		})
		if err != nil {
			return err
		}
		res.Replay = pres
		if s.spec.Verify {
			if verr := pres.VerifyError(); verr != nil {
				return &VerifyError{Name: s.spec.Name, Err: verr}
			}
		}
		return nil
	default:
		app, err := sys.NewIOSApp(system.AppConfig{
			Name: fmt.Sprintf("farm-d%d-%s", d.ID, s.spec.Name),
		})
		if err != nil {
			return err
		}
		defer app.Close()
		return harness.RunScenarioApp(app, s.spec.Scenario)
	}
}
