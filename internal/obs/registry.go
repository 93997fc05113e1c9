package obs

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is what a registry holds: a Histogram or a Counter, with a stable
// name and zeroed in place.
type metric interface {
	Name() string
	Reset()
}

// registry is the name → metric map behind Histograms and Counters. It keeps
// every metric in one name-ordered slice that creation replaces whole, so a
// lookup is an atomic load and a binary search (no lock on the paths that
// look a metric up per present or session) and Each walks a stable snapshot
// in name order. Creation is rare and serialized by mu.
type registry[T metric] struct {
	mu     sync.Mutex
	sorted atomic.Pointer[[]T]
}

// find returns the metric slice and the index name has, or would be
// inserted at, in it.
func (r *registry[T]) find(name string) ([]T, int, bool) {
	var all []T
	if p := r.sorted.Load(); p != nil {
		all = *p
	}
	i, ok := slices.BinarySearchFunc(all, name, func(m T, name string) int {
		return strings.Compare(m.Name(), name)
	})
	return all, i, ok
}

// get returns the named metric, calling create on first use. The returned
// value is stable for the lifetime of the registry; hot paths cache it.
func (r *registry[T]) get(name string, create func() T) T {
	if all, i, ok := r.find(name); ok {
		return all[i]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	all, i, ok := r.find(name)
	if ok {
		return all[i]
	}
	m := create()
	next := slices.Insert(slices.Clip(all), i, m)
	r.sorted.Store(&next)
	return m
}

// Lookup returns the named metric without creating it.
func (r *registry[T]) Lookup(name string) (T, bool) {
	all, i, ok := r.find(name)
	if !ok {
		var zero T
		return zero, false
	}
	return all[i], true
}

// Each calls fn for every metric in name order. Metrics created while Each
// runs are not visited.
func (r *registry[T]) Each(fn func(T)) {
	if p := r.sorted.Load(); p != nil {
		for _, m := range *p {
			fn(m)
		}
	}
}

// Reset zeroes every metric in place; cached pointers stay valid.
func (r *registry[T]) Reset() {
	r.Each(func(m T) { m.Reset() })
}
