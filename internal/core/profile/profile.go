// Package profile collects the per-GLES-function timing profiles of the
// paper's Figures 7-10: for each Android GLES/EGL/aegl_bridge function
// called through the compatibility layer it records call counts and total
// virtual time, and reports the top functions by share of total time and by
// average time per call.
//
// The Profiler is a read-side view over its own always-enabled
// obs.Histograms, one histogram per function: a function's calls are its
// histogram's count and its total time the histogram's sum. Recording is a
// few atomic adds on the caller's TID stripe (no global mutex on the
// diplomat hot path), while Samples/Top/Table keep their original ordering
// and formatting so the figures regenerate bit-for-bit.
package profile

import (
	"fmt"
	"sort"
	"strings"

	"cycada/internal/obs"
	"cycada/internal/sim/vclock"
)

// Profiler accumulates per-function timing. Safe for concurrent use.
type Profiler struct {
	hs *obs.Histograms
}

// New creates an empty profiler.
func New() *Profiler {
	hs := obs.NewHistograms()
	hs.SetEnabled(true)
	return &Profiler{hs: hs}
}

// Histograms exposes the per-function histograms, one per function name. A
// histogram's pointer is stable: hot paths cache it and Observe on it
// directly with their TID as the stripe.
func (p *Profiler) Histograms() *obs.Histograms { return p.hs }

// Record adds one call of d virtual time to the named function. This is the
// convenience slow path; see Histograms for the cached hot path.
func (p *Profiler) Record(name string, d vclock.Duration) {
	p.hs.Histogram(name).Observe(0, d)
}

// Reset clears all samples. Histogram pointers cached by callers stay valid.
func (p *Profiler) Reset() { p.hs.Reset() }

// Sample is one function's aggregated profile.
type Sample struct {
	Name    string
	Calls   int
	Total   vclock.Duration
	Percent float64 // share of all recorded time
}

// Avg returns the average time per call.
func (s Sample) Avg() vclock.Duration {
	if s.Calls == 0 {
		return 0
	}
	return s.Total / vclock.Duration(s.Calls)
}

// Samples returns all samples ordered by descending total time — the order
// Figures 7-10 use. Functions with zero recorded calls (registered but never
// invoked, or cleared by Reset) are omitted.
func (p *Profiler) Samples() []Sample {
	var out []Sample
	var grand vclock.Duration
	p.hs.Each(func(h *obs.Histogram) {
		calls := h.Count()
		if calls == 0 {
			return
		}
		total := h.Sum()
		grand += total
		out = append(out, Sample{Name: h.Name(), Calls: int(calls), Total: total})
	})
	for i := range out {
		if grand > 0 {
			out[i].Percent = 100 * float64(out[i].Total) / float64(grand)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Top returns the n largest samples by total time (the figures show 14).
func (p *Profiler) Top(n int) []Sample {
	s := p.Samples()
	if len(s) > n {
		s = s[:n]
	}
	return s
}

// Calls reports the call count of one function.
func (p *Profiler) Calls(name string) int {
	if h, ok := p.hs.Lookup(name); ok {
		return int(h.Count())
	}
	return 0
}

// Table renders the top-n profile as the two figure series: percent of total
// time and average µs per call.
func (p *Profiler) Table(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %8s %8s %12s\n", "function", "calls", "%time", "avg-us/call")
	for _, s := range p.Top(n) {
		fmt.Fprintf(&b, "%-34s %8d %7.2f%% %12.1f\n", s.Name, s.Calls, s.Percent, s.Avg().Micros())
	}
	return b.String()
}
