package kernel

import "cycada/internal/obs"

// Thread-level tracing helpers. Every layer above the kernel (diplomats,
// impersonation, the linker, libEGLbridge, the harness) emits its spans
// through these so that only the kernel needs to know which tracer is
// attached and how PIDs are namespaced. While tracing is disabled the whole
// cost of a TraceBegin site is one atomic load (plus a nil-Span TraceEnd).
//
// Spans carry the thread's own virtual time and never charge any, so
// enabling tracing cannot perturb an experiment.

// TraceEnabled reports whether spans are currently recorded. Call sites that
// must build a dynamic span name check this first to avoid allocating the
// name while tracing is off.
func (t *Thread) TraceEnabled() bool { return t.proc.k.tracer.Enabled() }

// TraceBegin opens a span of work the kernel's device does outside every
// process — readying or recycling the stack between sessions. It is filed
// under PID 0 of the kernel's current PID space, which no process takes,
// and carries no virtual time: close it with End(0). Returns the inert
// zero Span while tracing is disabled.
func (k *Kernel) TraceBegin(cat, name string) obs.Span {
	if !k.tracer.Enabled() {
		return obs.Span{}
	}
	k.mu.Lock()
	pid := k.pidBase
	k.mu.Unlock()
	return k.tracer.Begin(pid, 0, cat, name, 0)
}

// TraceBegin opens a span on this thread. Returns the inert zero Span while
// tracing is disabled.
func (t *Thread) TraceBegin(cat, name string) obs.Span {
	k := t.proc.k
	if !k.tracer.Enabled() {
		return obs.Span{}
	}
	return k.tracer.Begin(t.proc.tracePID, t.tid, cat, name, t.VTime())
}

// TraceEnd closes a span at the thread's current virtual time.
func (t *Thread) TraceEnd(sp obs.Span) {
	if sp.Active() {
		sp.End(t.VTime())
	}
}

// FlightRecord appends one event to the kernel's flight recorder — the
// always-on black box of recent span/fault/errno events. name must be a
// constant or pre-built string; recording never allocates, and while the
// recorder is disabled the whole cost is one atomic load.
func (t *Thread) FlightRecord(kind obs.FlightKind, cat, name string, code int64) {
	t.proc.k.flight.Record(t.tid, kind, cat, name, code, t.VTime())
}

// FlightDump records a trigger marker, dumps the flight recorder to its
// configured output, and returns the dump. Trigger sites (diplomat panic
// isolation, impersonation rollback, frame deadline misses) pass the marker
// they just recorded as the reason, so the dump always contains its own
// trigger event.
func (t *Thread) FlightDump(reason string) *obs.FlightDump {
	return t.proc.k.flight.AutoDump(reason)
}
