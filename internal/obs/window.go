package obs

import (
	"math"
	"sort"
	"sync"
	"time"

	"cycada/internal/sim/vclock"
)

// Rolling-window aggregation (DESIGN.md §15). The histograms and counters
// are cumulative since boot, which is the right shape for a one-shot report
// but useless for watching a live farm: after an hour of traffic the
// since-boot P99 barely moves when the current minute regresses. A Windows
// tracks registries and, on every rotation, captures the delta of each
// series against the previous rotation into a fixed ring of per-interval
// slots. Queries merge the most recent slots covering a span (last 10s,
// last 60s) and answer with *current* percentiles and rates.
//
// Rotation is the only writer of window state and takes the Windows mutex;
// the tracked hot paths are never touched — a rotation reads the same atomic
// stripe totals a report would, so windowing adds zero cost to Observe/Inc.
// Samples are not an atomic cut across stripes (writers keep writing); the
// skew is at most the handful of observations in flight during a rotation
// and moves a sample into a neighboring interval at worst.

// WindowStats is the merged delta of one histogram over a query span.
// The zero value is a well-defined empty window: Count 0, every statistic 0,
// Rate 0 — idle intervals must never divide by zero or report garbage.
type WindowStats struct {
	// Count and Sum are the observations and total virtual time that landed
	// in the window.
	Count int64
	Sum   vclock.Duration
	// Span is the wall-clock width the window actually covers: query-span
	// rounded up to whole intervals, clamped to the rotations that exist.
	// Zero before the first rotation.
	Span time.Duration

	buckets [histBuckets]int64
}

// Avg returns the mean observed duration in the window (0 when empty).
func (s *WindowStats) Avg() vclock.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / vclock.Duration(s.Count)
}

// Rate returns observations per wall-clock second over the window (0 when
// the window is empty or covers no time yet).
func (s *WindowStats) Rate() float64 {
	if s.Count == 0 || s.Span <= 0 {
		return 0
	}
	return float64(s.Count) / s.Span.Seconds()
}

// Quantile returns an upper bound of the q-quantile of the window's
// observations, with the same log-bucket 2x bias as Histogram.Quantile.
// Deltas carry no exact max, so the bound clamps to the upper edge of the
// highest non-empty bucket. Returns 0 on an empty window.
func (s *WindowStats) Quantile(q float64) vclock.Duration {
	if s.Count == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var seen int64
	for b, n := range s.buckets {
		seen += n
		if seen >= target {
			return bucketUpperEdge(b)
		}
	}
	return s.Max()
}

// P50 returns the median upper bound of the window.
func (s *WindowStats) P50() vclock.Duration { return s.Quantile(0.50) }

// P95 returns the 95th-percentile upper bound of the window.
func (s *WindowStats) P95() vclock.Duration { return s.Quantile(0.95) }

// P99 returns the 99th-percentile upper bound of the window.
func (s *WindowStats) P99() vclock.Duration { return s.Quantile(0.99) }

// Max returns the upper edge of the highest non-empty bucket — the same
// at-worst-2x overestimate the quantiles carry (an exact max cannot be
// recovered from deltas of a cumulative max). Returns 0 on an empty window.
func (s *WindowStats) Max() vclock.Duration {
	for b := histBuckets - 1; b >= 0; b-- {
		if s.buckets[b] > 0 {
			return bucketUpperEdge(b)
		}
	}
	return 0
}

// bucketUpperEdge is the largest duration bucket b holds (see bucketOf).
func bucketUpperEdge(b int) vclock.Duration {
	if b <= 0 {
		return 0
	}
	return vclock.Duration(1)<<uint(b) - 1
}

// CounterWindow is the delta of one counter over a query span.
type CounterWindow struct {
	Delta int64
	Span  time.Duration
}

// Rate returns increments per wall-clock second over the window.
func (c *CounterWindow) Rate() float64 {
	if c.Delta == 0 || c.Span <= 0 {
		return 0
	}
	return float64(c.Delta) / c.Span.Seconds()
}

// tally is a cumulative total a window can difference and merge: a
// histogram's histSample or a counter's count.
type tally[S any] interface {
	plus(S) S
	minus(S) S
}

// count is a counter's cumulative value as a tally.
type count int64

func (c count) plus(o count) count  { return c + o }
func (c count) minus(o count) count { return c - o }

// sample captures the counter's cumulative value.
func (c *Counter) sample() count { return count(c.Load()) }

// windowed is a registry metric whose cumulative totals a window samples.
type windowed[S any] interface {
	metric
	sample() S
}

// series is one named window: the cumulative total at the last rotation
// plus the ring of per-interval deltas.
type series[S tally[S]] struct {
	prev S
	ring []S // indexed by rotation % slots
}

// seriesSet windows every metric of its tracked registries, one series per
// name: same-named metrics across registries sum into one series. Histograms
// and counters share it; they differ only in what a sample is.
type seriesSet[T windowed[S], S tally[S]] struct {
	regs   []*registry[T]
	series map[string]*series[S]
}

func (ss *seriesSet[T, S]) get(name string, slots int) *series[S] {
	sr := ss.series[name]
	if sr == nil {
		if ss.series == nil {
			ss.series = map[string]*series[S]{}
		}
		sr = &series[S]{ring: make([]S, slots)}
		ss.series[name] = sr
	}
	return sr
}

// track adds a registry. Metrics already carrying counts are primed — their
// cumulative totals become the baseline — so history from before tracking
// never floods the first interval as a rate spike.
func (ss *seriesSet[T, S]) track(r *registry[T], slots int) {
	ss.regs = append(ss.regs, r)
	r.Each(func(m T) {
		sr := ss.get(m.Name(), slots)
		sr.prev = sr.prev.plus(m.sample())
	})
}

// rotate writes every series' delta against the previous rotation into slot.
func (ss *seriesSet[T, S]) rotate(slot, slots int) {
	cum := map[string]S{}
	for _, r := range ss.regs {
		r.Each(func(m T) { cum[m.Name()] = cum[m.Name()].plus(m.sample()) })
	}
	for name, cur := range cum {
		sr := ss.get(name, slots)
		sr.ring[slot] = cur.minus(sr.prev)
		sr.prev = cur
	}
	// Series that vanished (a tracked registry was reset) still age out:
	// write zero deltas and reset their baseline.
	var zero S
	for name, sr := range ss.series {
		if _, ok := cum[name]; !ok {
			sr.prev, sr.ring[slot] = zero, zero
		}
	}
}

// merged sums the n most recent slots of a series, the newest written at
// rotation rotations-1.
func (sr *series[S]) merged(n int, rotations uint64) S {
	var sum S
	slots := len(sr.ring)
	for i := 0; i < n; i++ {
		sum = sum.plus(sr.ring[(int(rotations)-1-i+slots)%slots])
	}
	return sum
}

// window returns the named series merged over n slots.
func (ss *seriesSet[T, S]) window(name string, n int, rotations uint64) (S, bool) {
	sr, ok := ss.series[name]
	if !ok {
		var zero S
		return zero, false
	}
	return sr.merged(n, rotations), true
}

// windows returns every series merged over n slots, in name order.
func (ss *seriesSet[T, S]) windows(n int, rotations uint64) ([]string, []S) {
	names := make([]string, 0, len(ss.series))
	for name := range ss.series {
		names = append(names, name)
	}
	sort.Strings(names)
	sums := make([]S, len(names))
	for i, name := range names {
		sums[i] = ss.series[name].merged(n, rotations)
	}
	return names, sums
}

// Windows turns cumulative registries into rolling per-interval deltas.
// Track any number of Histograms and Counters registries; same-named series
// across registries are summed (the farm's per-device registries roll up
// into one farm-wide series). All methods are safe for concurrent use.
type Windows struct {
	interval time.Duration
	slots    int

	mu        sync.Mutex
	hists     seriesSet[*Histogram, histSample]
	ctrs      seriesSet[*Counter, count]
	rotations uint64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewWindows creates a window set rotating every interval with slots
// intervals of history (interval <= 0 defaults to 1s, slots <= 0 to 60 —
// one minute of 1s deltas, covering the 10s and 60s query spans the
// telemetry server serves).
func NewWindows(interval time.Duration, slots int) *Windows {
	if interval <= 0 {
		interval = time.Second
	}
	if slots <= 0 {
		slots = 60
	}
	return &Windows{
		interval: interval,
		slots:    slots,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Interval returns the rotation interval.
func (w *Windows) Interval() time.Duration { return w.interval }

// Slots returns the ring depth (intervals of history kept).
func (w *Windows) Slots() int { return w.slots }

// Rotations returns how many rotations have happened.
func (w *Windows) Rotations() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rotations
}

// Track adds a histogram registry, priming the series it already holds.
func (w *Windows) Track(hs *Histograms) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.hists.track(&hs.registry, w.slots)
}

// TrackCounters adds a counter registry, priming existing counts like Track.
func (w *Windows) TrackCounters(cs *Counters) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ctrs.track(&cs.registry, w.slots)
}

// Rotate captures one interval: for every tracked series, the delta of its
// cumulative totals (summed across registries) against the previous rotation
// is pushed into the ring. Called by the Start goroutine on the interval;
// tests and single-shot reporters may call it directly.
func (w *Windows) Rotate() {
	w.mu.Lock()
	defer w.mu.Unlock()
	slot := int(w.rotations % uint64(w.slots))
	w.hists.rotate(slot, w.slots)
	w.ctrs.rotate(slot, w.slots)
	w.rotations++
}

// spanSlotsLocked converts a query span to a slot count: span rounded up to
// whole intervals, clamped to [1, min(slots, rotations)]. Returns 0 before
// the first rotation.
func (w *Windows) spanSlotsLocked(span time.Duration) int {
	if w.rotations == 0 {
		return 0
	}
	n := int(math.Ceil(float64(span) / float64(w.interval)))
	if n < 1 {
		n = 1
	}
	if n > w.slots {
		n = w.slots
	}
	if uint64(n) > w.rotations {
		n = int(w.rotations)
	}
	return n
}

// histStats turns a merged histogram delta into its window statistics.
func histStats(s histSample, span time.Duration) WindowStats {
	return WindowStats{Count: s.count, Sum: vclock.Duration(s.sum), Span: span, buckets: s.buckets}
}

// Hist returns the merged window of the named histogram over the last span
// of wall-clock time. ok is false when the series is unknown; an idle known
// series returns the zero-valued (safe) WindowStats.
func (w *Windows) Hist(name string, span time.Duration) (WindowStats, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.spanSlotsLocked(span)
	s, ok := w.hists.window(name, n, w.rotations)
	if !ok {
		return WindowStats{}, false
	}
	return histStats(s, time.Duration(n)*w.interval), true
}

// Counter returns the delta window of the named counter over the last span.
func (w *Windows) Counter(name string, span time.Duration) (CounterWindow, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.spanSlotsLocked(span)
	c, ok := w.ctrs.window(name, n, w.rotations)
	if !ok {
		return CounterWindow{}, false
	}
	return CounterWindow{Delta: int64(c), Span: time.Duration(n) * w.interval}, true
}

// EachHist calls fn with every known histogram series' window over span, in
// name order.
func (w *Windows) EachHist(span time.Duration, fn func(name string, ws WindowStats)) {
	w.mu.Lock()
	n := w.spanSlotsLocked(span)
	names, sums := w.hists.windows(n, w.rotations)
	w.mu.Unlock()
	for i, name := range names {
		fn(name, histStats(sums[i], time.Duration(n)*w.interval))
	}
}

// EachCounter calls fn with every known counter series' window over span, in
// name order.
func (w *Windows) EachCounter(span time.Duration, fn func(name string, cw CounterWindow)) {
	w.mu.Lock()
	n := w.spanSlotsLocked(span)
	names, sums := w.ctrs.windows(n, w.rotations)
	w.mu.Unlock()
	for i, name := range names {
		fn(name, CounterWindow{Delta: int64(sums[i]), Span: time.Duration(n) * w.interval})
	}
}

// Start begins rotating on the interval in a background goroutine.
// Idempotent; Stop ends it.
func (w *Windows) Start() {
	w.startOnce.Do(func() {
		go func() {
			defer close(w.done)
			tick := time.NewTicker(w.interval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					w.Rotate()
				case <-w.stop:
					return
				}
			}
		}()
	})
}

// Stop ends the rotation goroutine (if Start ran) and waits for it to exit.
// Idempotent; the window contents remain queryable after Stop.
func (w *Windows) Stop() {
	w.stopOnce.Do(func() {
		close(w.stop)
	})
	select {
	case <-w.done:
	default:
		// Start never ran; nothing to wait for.
		w.startOnce.Do(func() { close(w.done) })
		<-w.done
	}
}
