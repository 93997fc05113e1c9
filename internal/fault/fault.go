// Package fault is the deterministic, seeded fault-injection framework for
// the cross-persona seams. Every technique in the paper is a narrow bridge
// between two library worlds — diplomat calls, locate_tls/propagate_tls TLS
// migration, dlforce replica loading — and this package lets tests and the
// chaos harness fail any of those bridges halfway across, reproducibly.
//
// The design follows replay/tap: the framework is always compiled in and the
// entire disabled cost of an injection site is one atomic pointer load (the
// kernel holds an atomic.Pointer[Injector]; nil means off). When an injector
// is installed, each check is an atomic counter increment plus a stateless
// hash of (seed, point, sequence number) — so a given schedule injects the
// same faults at the same call sites on every run, which is what lets the
// chaos harness assert that golden traces under a zero-fault schedule stay
// byte-identical.
//
// The package is a leaf: it imports only the standard library, because the
// kernel itself registers injection points.
package fault

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// Point identifies one registered injection point — a cross-persona seam
// where a fault can be injected.
type Point uint8

// The registered seams. Each names the operation that fails when the point
// fires, not the layer that detects it.
const (
	// PointLocateTLS fails the locate_tls syscall (impersonation TLS save).
	PointLocateTLS Point = iota
	// PointPropagateTLS fails the propagate_tls syscall (TLS migration).
	PointPropagateTLS
	// PointDlopen fails a standard linker load.
	PointDlopen
	// PointDlforce fails a DLR replica load (§8.1).
	PointDlforce
	// PointEGLContext fails eglCreateContext.
	PointEGLContext
	// PointEGLSurface fails EGL surface creation (window and pbuffer).
	PointEGLSurface
	// PointEGLPresent fails one attempt of an eglSwapBuffers post. Presents
	// retry transient failures, so a firing here is survivable by design.
	PointEGLPresent
	// PointGralloc fails a GraphicBuffer allocation in the gralloc driver.
	PointGralloc
	// PointBinder fails a Binder transaction (SurfaceFlinger composition).
	PointBinder
	// PointDiplomatPanic makes the domestic half of a diplomat panic — the
	// "vendor library crashed mid-call" fault the recovery path isolates.
	PointDiplomatPanic
	// PointBatchFlush fails opening the single impersonation window a batched
	// GLES flush runs in. The bridge absorbs it by re-dispatching the batch
	// through per-call windows, so a firing here is observably transparent.
	PointBatchFlush
	// PointSessionHang parks a farm session body forever — the fault the
	// farm's per-session watchdog deadline exists to catch. The wedged
	// goroutine is abandoned and the session fails with ErrSessionTimeout.
	PointSessionHang
	// PointDeviceWedge parks the post-session device recycle forever,
	// wedging the whole device stack: the watchdog abandons the goroutine
	// and the farm quarantines and reboots the device in its slot.
	PointDeviceWedge

	// NumPoints is the number of registered points.
	NumPoints
)

var pointNames = [NumPoints]string{
	PointLocateTLS:     "locate_tls",
	PointPropagateTLS:  "propagate_tls",
	PointDlopen:        "dlopen",
	PointDlforce:       "dlforce",
	PointEGLContext:    "egl_context",
	PointEGLSurface:    "egl_surface",
	PointEGLPresent:    "egl_present",
	PointGralloc:       "gralloc",
	PointBinder:        "binder",
	PointDiplomatPanic: "diplomat_panic",
	PointBatchFlush:    "batch_flush",
	PointSessionHang:   "session_hang",
	PointDeviceWedge:   "device_wedge",
}

// String implements fmt.Stringer.
func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return "unknown"
}

// ParsePoint resolves a point name as used in schedule specs.
func ParsePoint(s string) (Point, error) {
	for p, name := range pointNames {
		if name == s {
			return Point(p), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown injection point %q", s)
}

// ErrInjected is the sentinel every injected error wraps; recovery layers
// classify a failure as injected (and, at retryable seams, transient) with
// errors.Is or the Injected helper.
var ErrInjected = errors.New("fault injected")

// Error is one injected fault: the point that fired and the 1-based check
// sequence number at which it fired. It wraps ErrInjected.
type Error struct {
	Point Point
	N     uint64
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("injected fault at %s[%d]", e.Point, e.N)
}

// Unwrap makes errors.Is(err, ErrInjected) true.
func (e *Error) Unwrap() error { return ErrInjected }

// Injected reports whether err is (or wraps) an injected fault.
func Injected(err error) bool { return errors.Is(err, ErrInjected) }

// Schedule describes a deterministic fault schedule.
type Schedule struct {
	// Seed selects the pseudo-random decision sequence.
	Seed uint64
	// Rate is the per-check injection probability in [0, 1].
	Rate float64
	// Points restricts injection to the listed seams; empty means all.
	Points []Point
	// After skips the first After checks at every point before any can fire
	// (targeted tests: "fail the second allocation").
	After uint64
	// Times caps the number of injections per point; 0 means unlimited.
	Times uint64
}

// ParseSpec parses the CLI schedule syntax used by the -faults flags:
//
//	seed=7,rate=0.2,points=binder+egl_present,after=1,times=2
//
// Every field is optional; rate defaults to 0.1 and points to all seams.
// Point lists are '+'-separated because ',' separates fields.
func ParseSpec(spec string) (Schedule, error) {
	s := Schedule{Rate: 0.1}
	if strings.TrimSpace(spec) == "" {
		return s, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return s, fmt.Errorf("fault: bad schedule field %q (want key=value)", field)
		}
		var err error
		switch key {
		case "seed":
			s.Seed, err = strconv.ParseUint(val, 10, 64)
		case "rate":
			s.Rate, err = strconv.ParseFloat(val, 64)
			if err == nil && !(s.Rate >= 0 && s.Rate <= 1) { // NaN too
				err = fmt.Errorf("rate %v outside [0, 1]", s.Rate)
			}
		case "after":
			s.After, err = strconv.ParseUint(val, 10, 64)
		case "times":
			s.Times, err = strconv.ParseUint(val, 10, 64)
		case "points":
			for _, name := range strings.Split(val, "+") {
				p, perr := ParsePoint(strings.TrimSpace(name))
				if perr != nil {
					return s, perr
				}
				s.Points = append(s.Points, p)
			}
		default:
			err = fmt.Errorf("unknown key")
		}
		if err != nil {
			return s, fmt.Errorf("fault: bad schedule field %q: %w", field, err)
		}
	}
	return s, nil
}

// String renders the schedule in ParseSpec syntax.
func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d,rate=%g", s.Seed, s.Rate)
	if len(s.Points) > 0 {
		names := make([]string, len(s.Points))
		for i, p := range s.Points {
			names[i] = p.String()
		}
		fmt.Fprintf(&b, ",points=%s", strings.Join(names, "+"))
	}
	if s.After > 0 {
		fmt.Fprintf(&b, ",after=%d", s.After)
	}
	if s.Times > 0 {
		fmt.Fprintf(&b, ",times=%d", s.Times)
	}
	return b.String()
}

// PointStats are the counters of one injection point.
type PointStats struct {
	Checks   uint64 // times the point was evaluated
	Injected uint64 // times it fired
}

// Stats is the per-point counter snapshot of an injector.
type Stats [NumPoints]PointStats

// TotalInjected sums the fired counters across points.
func (st Stats) TotalInjected() uint64 {
	var n uint64
	for _, ps := range st {
		n += ps.Injected
	}
	return n
}

// String renders the non-zero rows, for chaos reports.
func (st Stats) String() string {
	var b strings.Builder
	for p, ps := range st {
		if ps.Checks == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d/%d", Point(p), ps.Injected, ps.Checks)
	}
	if b.Len() == 0 {
		return "no checks"
	}
	return b.String()
}

type pointState struct {
	checks atomic.Uint64
	fired  atomic.Uint64
}

// Injector evaluates a schedule. One injector belongs to one kernel (so
// concurrent replays never share decision sequences); install it with
// kernel.SetFaultInjector. All methods are safe for concurrent use.
type Injector struct {
	sched     Schedule
	mask      uint32 // bit i set = Point(i) enabled
	threshold uint64 // Rate scaled to the uint64 hash range
	armed     atomic.Bool
	state     [NumPoints]pointState
}

// NewInjector creates an armed injector for the schedule.
func NewInjector(s Schedule) *Injector {
	inj := &Injector{sched: s}
	if len(s.Points) == 0 {
		inj.mask = 1<<NumPoints - 1
	} else {
		for _, p := range s.Points {
			if p < NumPoints {
				inj.mask |= 1 << p
			}
		}
	}
	switch {
	case s.Rate >= 1:
		inj.threshold = math.MaxUint64
	case s.Rate > 0:
		inj.threshold = uint64(s.Rate * float64(1<<63) * 2)
	}
	inj.armed.Store(true)
	return inj
}

// Schedule returns the schedule the injector was built from.
func (inj *Injector) Schedule() Schedule { return inj.sched }

// Disarm stops all further injection without uninstalling the injector; the
// chaos harness disarms before tearing a faulted system down, modelling the
// organic fault that stops occurring.
func (inj *Injector) Disarm() { inj.armed.Store(false) }

// Arm re-enables injection.
func (inj *Injector) Arm() { inj.armed.Store(true) }

// Armed reports whether the injector is currently injecting (introspection).
func (inj *Injector) Armed() bool { return inj.armed.Load() }

// Should reports whether the point fires at this check. Injection sites that
// need a non-error fault (a panic) use it directly; error seams use Fail.
// Every call advances the point's deterministic sequence.
func (inj *Injector) Should(p Point) bool {
	ok, _ := inj.roll(p)
	return ok
}

// Fail returns an injected error when the point fires at this check, nil
// otherwise. The error wraps ErrInjected.
func (inj *Injector) Fail(p Point) error {
	if ok, n := inj.roll(p); ok {
		return &Error{Point: p, N: n}
	}
	return nil
}

func (inj *Injector) roll(p Point) (bool, uint64) {
	if p >= NumPoints {
		return false, 0
	}
	st := &inj.state[p]
	n := st.checks.Add(1)
	if !inj.armed.Load() || inj.mask&(1<<p) == 0 {
		return false, n
	}
	if n <= inj.sched.After {
		return false, n
	}
	if mix(inj.sched.Seed, p, n) >= inj.threshold {
		return false, n
	}
	if inj.sched.Times > 0 && st.fired.Add(1) > inj.sched.Times {
		return false, n
	}
	if inj.sched.Times == 0 {
		st.fired.Add(1)
	}
	return true, n
}

// Stats snapshots the per-point counters.
func (inj *Injector) Stats() Stats {
	var out Stats
	for p := range inj.state {
		out[p] = PointStats{
			Checks:   inj.state[p].checks.Load(),
			Injected: inj.state[p].fired.Load(),
		}
	}
	// With a Times cap the fired counter over-counts suppressed rolls; clamp.
	if inj.sched.Times > 0 {
		for p := range out {
			if out[p].Injected > inj.sched.Times {
				out[p].Injected = inj.sched.Times
			}
		}
	}
	return out
}

// mix is SplitMix64 over (seed, point, n): a stateless, well-distributed
// decision function, so concurrent checks at different points never contend
// and a schedule's decisions depend only on each point's own call sequence.
func mix(seed uint64, p Point, n uint64) uint64 {
	z := seed ^ (uint64(p)+1)*0x9e3779b97f4a7c15 ^ n*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// defaultInj is the process-wide default injector, consulted by kernel.New
// when its Config carries none. It exists for the cmd/ binaries' -faults
// flags; tests and library code install per-kernel injectors instead.
var defaultInj atomic.Pointer[Injector]

// SetDefault installs (nil clears) the process-wide default injector.
func SetDefault(inj *Injector) { defaultInj.Store(inj) }

// Default returns the process-wide default injector, nil when unset.
func Default() *Injector { return defaultInj.Load() }
