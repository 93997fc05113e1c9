package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"

	"cycada/internal/sim/vclock"
)

// Log-bucketed duration histograms (frame-health telemetry, DESIGN.md §10).
// Histogram is the one timing primitive: its count and sum are what the
// per-function profiles of Figures 7-10 read (calls and total time), and its
// buckets and max give the tails — P50/P95/P99 — at the EGL present path,
// SurfaceFlinger compose, diplomat calls and impersonation sessions.
//
// Buckets are powers of two of virtual nanoseconds: bucket i holds durations
// whose bit length is i, i.e. [2^(i-1), 2^i). Observing is a handful of
// atomic adds on the caller's TID stripe; while the owning registry is
// disabled the whole cost of an Observe site is one atomic load.

// histBuckets covers durations up to ~2^47 ns of virtual time (~39 hours),
// far beyond any simulated frame; longer observations clamp into the last
// bucket.
const histBuckets = 48

// histStripes must be a power of two; callers stripe by TID. Four keep the
// few threads that share one histogram (an app's threads, a device's
// kernel) off each other's counters, and keep a histogram at about 1.6 KB:
// an app's profiler holds one for every function it calls.
const histStripes = 4

type histStripe struct {
	count   atomic.Int64
	sum     atomic.Int64 // vclock nanoseconds
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Histogram is one named log-bucketed duration distribution. The pointer
// returned by Histograms.Histogram is stable; hot paths cache it and call
// Observe directly with their TID as the stripe.
type Histogram struct {
	name    string
	enabled *atomic.Bool // owning registry's gate; nil means always on
	stripes [histStripes]histStripe
}

// NewHistogram creates a standalone, always-enabled histogram (tests and
// tools; instrumentation sites should use a registry so they can be gated).
func NewHistogram(name string) *Histogram { return &Histogram{name: name} }

// Name returns the histogram name.
func (h *Histogram) Name() string { return h.name }

// bucketOf maps a duration to its bucket index.
func bucketOf(d vclock.Duration) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one duration. stripe is any per-thread value (the TID);
// it is masked onto the stripe array. While the owning registry is disabled
// this is a single atomic load.
func (h *Histogram) Observe(stripe int, d vclock.Duration) {
	if h.enabled != nil && !h.enabled.Load() {
		return
	}
	s := &h.stripes[stripe&(histStripes-1)]
	s.count.Add(1)
	s.sum.Add(int64(d))
	s.buckets[bucketOf(d)].Add(1)
	for {
		cur := s.max.Load()
		if int64(d) <= cur || s.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count sums the observation count across stripes.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.stripes {
		n += h.stripes[i].count.Load()
	}
	return n
}

// Sum sums the observed virtual time across stripes.
func (h *Histogram) Sum() vclock.Duration {
	var n int64
	for i := range h.stripes {
		n += h.stripes[i].sum.Load()
	}
	return vclock.Duration(n)
}

// Max returns the largest observed duration.
func (h *Histogram) Max() vclock.Duration {
	var m int64
	for i := range h.stripes {
		if v := h.stripes[i].max.Load(); v > m {
			m = v
		}
	}
	return vclock.Duration(m)
}

// Avg returns the mean observed duration.
func (h *Histogram) Avg() vclock.Duration {
	c := h.Count()
	if c == 0 {
		return 0
	}
	return h.Sum() / vclock.Duration(c)
}

// Buckets calls fn for every log2 bucket in ascending order with the
// bucket's inclusive upper edge in virtual nanoseconds and the observation
// count it holds. The telemetry exposition layer renders these as cumulative
// Prometheus buckets; the sum of all counts equals Count().
func (h *Histogram) Buckets(fn func(upper vclock.Duration, count int64)) {
	bkt, _ := h.merged()
	for b, n := range bkt {
		fn(bucketUpperEdge(b), n)
	}
}

// merged collapses the stripes into one bucket array.
func (h *Histogram) merged() (bkt [histBuckets]int64, total int64) {
	for i := range h.stripes {
		for b := range bkt {
			bkt[b] += h.stripes[i].buckets[b].Load()
		}
	}
	for _, n := range bkt {
		total += n
	}
	return bkt, total
}

// Quantile returns an upper bound of the q-quantile (0 < q <= 1): the upper
// edge of the bucket the quantile falls in, clamped to the observed max.
// Log buckets make this at worst a 2x overestimate — the right bias for an
// alerting tail statistic.
func (h *Histogram) Quantile(q float64) vclock.Duration {
	bkt, total := h.merged()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var seen int64
	for b, n := range bkt {
		seen += n
		if seen >= target {
			var hi vclock.Duration
			if b == 0 {
				hi = 0
			} else {
				hi = vclock.Duration(1)<<uint(b) - 1
			}
			if m := h.Max(); hi > m {
				hi = m
			}
			return hi
		}
	}
	return h.Max()
}

// P50 returns the median upper bound.
func (h *Histogram) P50() vclock.Duration { return h.Quantile(0.50) }

// P95 returns the 95th-percentile upper bound.
func (h *Histogram) P95() vclock.Duration { return h.Quantile(0.95) }

// P99 returns the 99th-percentile upper bound.
func (h *Histogram) P99() vclock.Duration { return h.Quantile(0.99) }

// histSample is one cumulative capture of a histogram's totals, used by the
// rolling-window layer (window.go) to form per-interval deltas. The stripes
// are read without stopping writers, so a sample is not an atomic cut across
// fields — windows tolerate the skew (at most a handful of in-flight
// observations) in exchange for never pausing the hot path.
type histSample struct {
	count   int64
	sum     int64
	buckets [histBuckets]int64
}

// sample captures the histogram's cumulative totals.
func (h *Histogram) sample() histSample {
	var s histSample
	for i := range h.stripes {
		st := &h.stripes[i]
		s.count += st.count.Load()
		s.sum += st.sum.Load()
		for b := range s.buckets {
			s.buckets[b] += st.buckets[b].Load()
		}
	}
	return s
}

// plus sums two samples (multi-registry aggregation, window merges).
func (s histSample) plus(o histSample) histSample {
	s.count += o.count
	s.sum += o.sum
	for b := range s.buckets {
		s.buckets[b] += o.buckets[b]
	}
	return s
}

// minus forms the delta against an earlier sample.
func (s histSample) minus(o histSample) histSample {
	s.count -= o.count
	s.sum -= o.sum
	for b := range s.buckets {
		s.buckets[b] -= o.buckets[b]
	}
	return s
}

// Merge folds another histogram's observations into h. It is an aggregation
// operation, not an observation site: it bypasses the enabled gate (merging
// harvested per-session registries into a device registry must work however
// the gates are set) and lands everything on stripe 0 — counts, sums, and
// buckets add exactly; the merged max is exact too.
func (h *Histogram) Merge(from *Histogram) {
	s := from.sample()
	if s.count == 0 {
		return
	}
	dst := &h.stripes[0]
	dst.count.Add(s.count)
	dst.sum.Add(s.sum)
	for b, n := range s.buckets {
		if n != 0 {
			dst.buckets[b].Add(n)
		}
	}
	m := int64(from.Max())
	for {
		cur := dst.max.Load()
		if m <= cur || dst.max.CompareAndSwap(cur, m) {
			return
		}
	}
}

// Reset zeroes the histogram in place; cached *Histogram pointers stay valid.
func (h *Histogram) Reset() {
	for i := range h.stripes {
		s := &h.stripes[i]
		s.count.Store(0)
		s.sum.Store(0)
		s.max.Store(0)
		for b := range s.buckets {
			s.buckets[b].Store(0)
		}
	}
}

// Histograms is a registry of named histograms with one shared enable gate:
// every histogram created from a registry observes only while the registry
// is enabled, so the disabled cost of every site is one atomic load. Lookup,
// Each (in name order) and Reset come from the shared registry.
type Histograms struct {
	registry[*Histogram]
	enabled atomic.Bool
}

// NewHistograms creates an empty, disabled registry.
func NewHistograms() *Histograms { return &Histograms{} }

// DefaultHistograms is the process-wide registry the instrumentation sites
// (EGL present, SurfaceFlinger compose, diplomat calls, impersonation
// sessions, harness frames) record into. Disabled until something — the
// experiment runner, a -snapshot flag, cycadatop — enables it.
var DefaultHistograms = NewHistograms()

// SetEnabled turns observation on or off for every histogram in the registry.
func (hs *Histograms) SetEnabled(on bool) { hs.enabled.Store(on) }

// Enabled reports whether observations are being recorded.
func (hs *Histograms) Enabled() bool { return hs.enabled.Load() }

// Histogram returns the named histogram, creating it on first use. The
// returned pointer is stable for the lifetime of the registry.
func (hs *Histograms) Histogram(name string) *Histogram {
	return hs.get(name, func() *Histogram { return &Histogram{name: name, enabled: &hs.enabled} })
}

// Merge folds every histogram of from into the same-named histogram of hs
// (creating it when absent). The device farm uses this to roll harvested
// per-session registries up into the device registry, so device-level
// telemetry — and the rolling windows scraping it — see every session's
// frames, not just boot and teardown.
func (hs *Histograms) Merge(from *Histograms) {
	from.Each(func(h *Histogram) {
		hs.Histogram(h.Name()).Merge(h)
	})
}

// TextReport renders all non-empty histograms, largest total first.
func (hs *Histograms) TextReport() string {
	var b strings.Builder
	hs.WriteText(&b)
	return b.String()
}

// WriteText writes the text report to w.
func (hs *Histograms) WriteText(w io.Writer) {
	type row struct {
		name  string
		count int64
		sum   vclock.Duration
		h     *Histogram
	}
	var rows []row
	hs.Each(func(h *Histogram) {
		if c := h.Count(); c > 0 {
			rows = append(rows, row{h.Name(), c, h.Sum(), h})
		}
	})
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].sum != rows[j].sum {
			return rows[i].sum > rows[j].sum
		}
		return rows[i].name < rows[j].name
	})
	fmt.Fprintf(w, "%-28s %10s %12s %12s %12s %12s %12s\n",
		"histogram", "count", "avg-vt-us", "p50-vt-us", "p95-vt-us", "p99-vt-us", "max-vt-us")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %10d %12.1f %12.1f %12.1f %12.1f %12.1f\n",
			r.name, r.count, r.h.Avg().Micros(),
			r.h.P50().Micros(), r.h.P95().Micros(), r.h.P99().Micros(), r.h.Max().Micros())
	}
}
