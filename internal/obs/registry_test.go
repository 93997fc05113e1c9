package obs

import (
	"slices"
	"sync"
	"testing"

	"cycada/internal/sim/vclock"
)

// A registry histogram striped by TID sums exactly across 8 threads: the
// per-function profiles of Figures 7-10 read these count and sum totals.
func TestHistogramStripesSum(t *testing.T) {
	hs := NewHistograms()
	hs.SetEnabled(true)
	h := hs.Histogram("glDrawArrays")
	var wg sync.WaitGroup
	const threads, per = 8, 1000
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(tid, 2)
			}
		}(tid)
	}
	wg.Wait()
	if h.Count() != threads*per {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != vclock.Duration(2*threads*per) {
		t.Fatalf("sum = %d", h.Sum())
	}
}

// Reset zeroes every metric of a registry in place: pointers cached before
// the reset stay the registry's and keep recording.
func TestRegistryResetKeepsPointers(t *testing.T) {
	hs := NewHistograms()
	hs.SetEnabled(true)
	h := hs.Histogram("x")
	h.Observe(0, 5)
	cs := NewCounters()
	c := cs.Counter("x")
	c.Add(5)
	hs.Reset()
	cs.Reset()
	if h.Count() != 0 || h.Sum() != 0 || c.Load() != 0 {
		t.Fatal("reset did not zero")
	}
	if hs.Histogram("x") != h || cs.Counter("x") != c {
		t.Fatal("reset invalidated the cached pointer")
	}
	h.Observe(1, 7)
	c.Inc()
	if h.Count() != 1 || h.Sum() != 7 || c.Load() != 1 {
		t.Fatal("metric unusable after reset")
	}
}

// Concurrent first use of one name yields one metric, and every
// observation made through the returned pointers lands on it.
func TestRegistryConcurrentCreateSamePointer(t *testing.T) {
	hs := NewHistograms()
	hs.SetEnabled(true)
	cs := NewCounters()
	const n = 16
	type pair struct {
		h *Histogram
		c *Counter
	}
	got := make(chan pair, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := hs.Histogram("shared")
			h.Observe(i, 10)
			c := cs.Counter("shared")
			c.Inc()
			got <- pair{h, c}
		}(i)
	}
	wg.Wait()
	close(got)
	first := <-got
	for p := range got {
		if p != first {
			t.Fatal("concurrent creation returned distinct metrics for one name")
		}
	}
	if first.h.Count() != n || first.h.Sum() != n*10 || first.c.Load() != n {
		t.Fatalf("count=%d sum=%v counter=%d", first.h.Count(), first.h.Sum(), first.c.Load())
	}
}

// Each visits a registry's metrics in name order whatever the creation
// order, and Lookup finds exactly the created names.
func TestRegistryEachNameOrder(t *testing.T) {
	names := []string{"m", "b", "zz", "a", "q", "c0", "c", "egl-present", "B"}
	hs := NewHistograms()
	cs := NewCounters()
	for _, name := range names {
		hs.Histogram(name)
		cs.Counter(name)
	}
	want := slices.Sorted(slices.Values(names))
	var gotH, gotC []string
	hs.Each(func(h *Histogram) { gotH = append(gotH, h.Name()) })
	cs.Each(func(c *Counter) { gotC = append(gotC, c.Name()) })
	if !slices.Equal(gotH, want) || !slices.Equal(gotC, want) {
		t.Fatalf("Each order: histograms %v, counters %v, want %v", gotH, gotC, want)
	}
	for _, name := range names {
		if h, ok := hs.Lookup(name); !ok || h.Name() != name {
			t.Errorf("Lookup(%q) = %v, %v", name, h, ok)
		}
	}
	for _, name := range []string{"", "a0", "zzz", "A"} {
		if _, ok := hs.Lookup(name); ok {
			t.Errorf("Lookup(%q) found a histogram never created", name)
		}
		if _, ok := cs.Lookup(name); ok {
			t.Errorf("Lookup(%q) found a counter never created", name)
		}
	}
}
