// Package obs is the observability layer of the simulation: hierarchical
// spans carrying both virtual time and wall time, and two metric primitives
// — TID-striped duration histograms (histogram.go) and event counters
// (counter.go) — kept in one kind of name-ordered registry (registry.go). It
// is always compiled in and default-off; the entire disabled cost of a span
// site is one atomic load.
//
// Spans never charge virtual time — enabling tracing cannot perturb any
// experiment, so every table and figure regenerates bit-for-bit with tracing
// on or off. The tracer records finished spans into per-thread stripes
// (striped by TID) so concurrent threads do not contend on one buffer.
//
// Exporters (export.go) render a text report, JSON, and the Chrome
// trace_event format consumed by chrome://tracing and Perfetto.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cycada/internal/sim/vclock"
)

// Span categories used across the system. Categories are free-form strings;
// these are the ones the core layers emit.
const (
	CatDiplomat      = "diplomat"
	CatSyscall       = "syscall"
	CatImpersonation = "impersonation"
	CatDLR           = "dlr"
	CatEGL           = "egl"
	CatHarness       = "harness"
	CatReplay        = "replay"
	CatFault         = "fault"
	CatBatch         = "batch"
)

// Event is one finished span.
type Event struct {
	Name string
	Cat  string
	PID  int
	TID  int
	// Seq orders events that share a start time: a parent span is always
	// begun before its children, so sorting ties by Seq keeps nesting valid.
	Seq    int64
	VStart vclock.Duration // virtual time at Begin (thread-local)
	VDur   vclock.Duration // virtual duration
	WStart time.Time       // wall clock at Begin
	WDur   time.Duration   // wall duration
}

// eventStripes must be a power of two; stripes are selected by TID.
const eventStripes = 16

// defaultEventCap bounds each stripe's event buffer: 16 stripes x 8192
// events caps a tracer at ~13MB however long a chaos soak runs. Spans past
// the cap are counted in Dropped and surfaced by the exporters.
const defaultEventCap = 8192

type eventStripe struct {
	mu     sync.Mutex
	events []Event
	_      [64]byte // keep stripes on separate cache lines
}

// Tracer collects spans. The zero value is not usable; use New. All methods
// are safe for concurrent use.
type Tracer struct {
	enabled  atomic.Bool
	seq      atomic.Int64
	pids     atomic.Int64 // PID-space allocator (AllocPIDSpace)
	eventCap atomic.Int64 // per-stripe buffer bound
	dropped  atomic.Int64 // spans discarded at the cap

	stripes [eventStripes]eventStripe

	nameMu      sync.Mutex
	procNames   map[int]string
	threadNames map[int]map[int]string // pid -> tid -> name
}

// New creates a disabled tracer.
func New() *Tracer {
	tr := &Tracer{
		procNames:   map[int]string{},
		threadNames: map[int]map[int]string{},
	}
	tr.eventCap.Store(defaultEventCap)
	return tr
}

// Default is the process-wide tracer kernels attach to unless configured with
// their own. It starts disabled.
var Default = New()

// SetEnabled turns span recording on or off. Metadata (process and thread
// names) is recorded regardless, so enabling mid-run still yields named rows.
func (tr *Tracer) SetEnabled(on bool) { tr.enabled.Store(on) }

// Enabled reports whether spans are being recorded. This is the single
// atomic load paid on every instrumented site while tracing is off.
func (tr *Tracer) Enabled() bool { return tr.enabled.Load() }

// SetEventCap bounds each of the tracer's event stripes to n events (the
// total buffer is eventStripes times that). Spans recorded past the cap are
// discarded and counted in Dropped. n <= 0 restores the default cap.
func (tr *Tracer) SetEventCap(n int) {
	if n <= 0 {
		n = defaultEventCap
	}
	tr.eventCap.Store(int64(n))
}

// Dropped reports how many spans were discarded because a stripe's event
// buffer hit its cap. A drained tracer (Reset) starts counting afresh.
func (tr *Tracer) Dropped() int64 { return tr.dropped.Load() }

// PIDSpace is the width of the PID range AllocPIDSpace reserves.
const PIDSpace = 1000

// AllocPIDSpace reserves a disjoint PID range (multiples of PIDSpace) so
// that several kernels sharing one tracer — the four harness
// configurations, say — export non-colliding process IDs.
func (tr *Tracer) AllocPIDSpace() int {
	return int(tr.pids.Add(1)-1) * PIDSpace
}

// NameProcess attaches a display name to a PID (trace metadata).
func (tr *Tracer) NameProcess(pid int, name string) {
	tr.nameMu.Lock()
	defer tr.nameMu.Unlock()
	tr.procNames[pid] = name
}

// NameThread attaches a display name to a TID within a PID (trace metadata).
func (tr *Tracer) NameThread(pid, tid int, name string) {
	tr.nameMu.Lock()
	defer tr.nameMu.Unlock()
	m, ok := tr.threadNames[pid]
	if !ok {
		m = map[int]string{}
		tr.threadNames[pid] = m
	}
	m[tid] = name
}

// ForgetProcess drops the names of an exited process pid and its threads,
// so a tracer that outlives many kernels does not keep every process they
// made. It keeps them while the tracer records or holds spans, which an
// export labels with them.
func (tr *Tracer) ForgetProcess(pid int) {
	if tr.Enabled() || tr.Len() > 0 {
		return
	}
	tr.nameMu.Lock()
	defer tr.nameMu.Unlock()
	delete(tr.procNames, pid)
	delete(tr.threadNames, pid)
}

// Span is an open span. The zero Span is inert: Active reports false and End
// is a no-op, so disabled call sites cost nothing beyond the Enabled check.
type Span struct {
	tr     *Tracer
	name   string
	cat    string
	pid    int
	tid    int
	seq    int64
	vstart vclock.Duration
	wstart time.Time
}

// Active reports whether the span will record on End.
func (s Span) Active() bool { return s.tr != nil }

// Begin opens a span. Callers pass the thread's own virtual time so the span
// measures exactly what the thread was charged. Returns the inert zero Span
// when the tracer is disabled.
func (tr *Tracer) Begin(pid, tid int, cat, name string, vnow vclock.Duration) Span {
	if !tr.enabled.Load() {
		return Span{}
	}
	return Span{
		tr:     tr,
		name:   name,
		cat:    cat,
		pid:    pid,
		tid:    tid,
		seq:    tr.seq.Add(1),
		vstart: vnow,
		wstart: time.Now(),
	}
}

// End finishes the span at the given virtual time and records it.
func (s Span) End(vnow vclock.Duration) {
	if s.tr == nil {
		return
	}
	ev := Event{
		Name:   s.name,
		Cat:    s.cat,
		PID:    s.pid,
		TID:    s.tid,
		Seq:    s.seq,
		VStart: s.vstart,
		VDur:   vnow - s.vstart,
		WStart: s.wstart,
		WDur:   time.Since(s.wstart),
	}
	s.tr.add(ev)
}

// AddEvent records a pre-built event directly, bypassing Begin/End and the
// enabled gate. Used by tests and importers that need deterministic event
// contents; instrumentation sites use spans.
func (tr *Tracer) AddEvent(ev Event) { tr.add(ev) }

// add appends to the event's stripe, honoring the buffer cap.
func (tr *Tracer) add(ev Event) {
	st := &tr.stripes[ev.TID&(eventStripes-1)]
	limit := int(tr.eventCap.Load())
	st.mu.Lock()
	if len(st.events) >= limit {
		st.mu.Unlock()
		tr.dropped.Add(1)
		return
	}
	st.events = append(st.events, ev)
	st.mu.Unlock()
}

// Len reports the number of recorded events.
func (tr *Tracer) Len() int {
	n := 0
	for i := range tr.stripes {
		st := &tr.stripes[i]
		st.mu.Lock()
		n += len(st.events)
		st.mu.Unlock()
	}
	return n
}

// Events returns all recorded spans merged across stripes, ordered by
// (PID, TID, virtual start, longest-first, begin sequence) — the order that
// keeps parent spans ahead of the children they enclose.
func (tr *Tracer) Events() []Event {
	var out []Event
	for i := range tr.stripes {
		st := &tr.stripes[i]
		st.mu.Lock()
		out = append(out, st.events...)
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if a.VStart != b.VStart {
			return a.VStart < b.VStart
		}
		if a.VDur != b.VDur {
			return a.VDur > b.VDur
		}
		return a.Seq < b.Seq
	})
	return out
}

// Reset drops all recorded events and the dropped-span count (names and the
// enabled state are kept).
func (tr *Tracer) Reset() {
	for i := range tr.stripes {
		st := &tr.stripes[i]
		st.mu.Lock()
		st.events = nil
		st.mu.Unlock()
	}
	tr.dropped.Store(0)
}

// names snapshots the metadata maps for the exporters.
func (tr *Tracer) names() (procs map[int]string, threads map[int]map[int]string) {
	tr.nameMu.Lock()
	defer tr.nameMu.Unlock()
	procs = make(map[int]string, len(tr.procNames))
	for pid, n := range tr.procNames {
		procs[pid] = n
	}
	threads = make(map[int]map[int]string, len(tr.threadNames))
	for pid, m := range tr.threadNames {
		tm := make(map[int]string, len(m))
		for tid, n := range m {
			tm[tid] = n
		}
		threads[pid] = tm
	}
	return procs, threads
}
