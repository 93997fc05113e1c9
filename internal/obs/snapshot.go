package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Live introspection snapshots (DESIGN.md §10). A snapshot is a point-in-time
// capture of system state — active impersonation sessions and gate depth,
// loaded DLR replicas and degraded connections, EGL contexts per thread,
// frame histograms, fault-injection schedule status — rendered as text or
// JSON. obs cannot import the layers that own that state, so each layer
// registers a SnapshotSource when it boots; Snapshot() polls every source.
//
// Source registration is gated: tests and plain runs boot many systems, and
// unconditionally registering every booted subsystem would accumulate stale
// sources (and keep dead systems reachable). Callers that want snapshots —
// cycadatop, the -snapshot flags, chaos reports — call
// SetSnapshotSourcesEnabled(true) before booting.

// Row is one key/value line of a snapshot section.
type Row struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Section is one subsystem's contribution to a snapshot.
type Section struct {
	Name string `json:"name"`
	Rows []Row  `json:"rows"`
}

// Add appends one row, formatting the value with fmt.Sprint.
func (s *Section) Add(key string, value any) {
	s.Rows = append(s.Rows, Row{Key: key, Value: fmt.Sprint(value)})
}

// Addf appends one row with a formatted value.
func (s *Section) Addf(key, format string, args ...any) {
	s.Rows = append(s.Rows, Row{Key: key, Value: fmt.Sprintf(format, args...)})
}

// SnapshotSource produces one section of live state. Sources must be safe to
// call at any time from any goroutine.
type SnapshotSource func() Section

var (
	snapMu      sync.Mutex
	snapEnabled bool
	snapSources []*snapEntry
)

type snapEntry struct {
	name string
	fn   SnapshotSource
}

// SetSnapshotSourcesEnabled turns source registration on or off. Must be on
// before the system of interest boots, or its layers will skip registering.
func SetSnapshotSourcesEnabled(on bool) {
	snapMu.Lock()
	snapEnabled = on
	snapMu.Unlock()
}

// SnapshotSourcesEnabled reports whether sources register.
func SnapshotSourcesEnabled() bool {
	snapMu.Lock()
	defer snapMu.Unlock()
	return snapEnabled
}

// RegisterSnapshotSource registers a named source and returns its
// unregister function. While registration is disabled it is a no-op (the
// returned function is still safe to call).
func RegisterSnapshotSource(name string, fn SnapshotSource) (unregister func()) {
	snapMu.Lock()
	defer snapMu.Unlock()
	if !snapEnabled {
		return func() {}
	}
	e := &snapEntry{name: name, fn: fn}
	snapSources = append(snapSources, e)
	return func() {
		snapMu.Lock()
		defer snapMu.Unlock()
		for i, cur := range snapSources {
			if cur == e {
				snapSources = append(snapSources[:i], snapSources[i+1:]...)
				return
			}
		}
	}
}

// SystemSnapshot is one captured snapshot.
type SystemSnapshot struct {
	Sections []Section `json:"sections"`
}

// Snapshot captures the current state: every registered source plus the
// built-in observability sections (frame histograms, flight-recorder and
// tracer counters).
func Snapshot() *SystemSnapshot {
	snapMu.Lock()
	entries := make([]*snapEntry, len(snapSources))
	copy(entries, snapSources)
	snapMu.Unlock()

	snap := &SystemSnapshot{}
	for _, e := range entries {
		sec := e.fn()
		if sec.Name == "" {
			sec.Name = e.name
		}
		snap.Sections = append(snap.Sections, sec)
	}
	sort.SliceStable(snap.Sections, func(i, j int) bool {
		return snap.Sections[i].Name < snap.Sections[j].Name
	})

	snap.Sections = append(snap.Sections, histogramSection(DefaultHistograms))
	snap.Sections = append(snap.Sections, flightSection(DefaultFlight))
	snap.Sections = append(snap.Sections, tracerSection(Default))
	return snap
}

// histogramSection summarizes a registry's non-empty histograms in name
// order.
func histogramSection(hs *Histograms) Section {
	sec := Section{Name: "histograms"}
	sec.Add("enabled", hs.Enabled())
	hs.Each(func(h *Histogram) {
		if h.Count() > 0 {
			sec.Addf(h.Name(), "count=%d avg=%.1fus p50=%.1fus p95=%.1fus p99=%.1fus max=%.1fus",
				h.Count(), h.Avg().Micros(), h.P50().Micros(), h.P95().Micros(), h.P99().Micros(), h.Max().Micros())
		}
	})
	return sec
}

// flightSection summarizes the flight recorder's counters.
func flightSection(f *FlightRecorder) Section {
	sec := Section{Name: "flight-recorder"}
	sec.Add("enabled", f.Enabled())
	sec.Add("events-recorded", f.Writes())
	sec.Add("events-overwritten", f.Overwritten())
	sec.Add("auto-dumps", f.Dumps())
	return sec
}

// tracerSection summarizes the span tracer's counters.
func tracerSection(tr *Tracer) Section {
	sec := Section{Name: "tracer"}
	sec.Add("enabled", tr.Enabled())
	sec.Add("spans-buffered", tr.Len())
	sec.Add("spans-dropped", tr.Dropped())
	return sec
}

// Text renders the snapshot as an indented text report.
func (s *SystemSnapshot) Text() string {
	var b strings.Builder
	for _, sec := range s.Sections {
		fmt.Fprintf(&b, "== %s\n", sec.Name)
		for _, r := range sec.Rows {
			fmt.Fprintf(&b, "  %-36s %s\n", r.Key, r.Value)
		}
	}
	return b.String()
}

// WriteJSON writes the snapshot as one JSON object.
func (s *SystemSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
