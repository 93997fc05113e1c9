package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Counter is a monotonic event counter, the Histogram's duration-less
// sibling: it exists for events that have no duration — retries,
// quarantines, reboots, abandoned goroutines — where a histogram's buckets
// would be noise. All methods are safe for concurrent use.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registry name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset zeroes the counter in place.
func (c *Counter) Reset() { c.v.Store(0) }

// Counters is a named-counter registry, one per owning subsystem (the farm
// keeps its own, like a device keeps its own Histograms), so concurrent
// owners never share hot cache lines through a global map. Lookup, Each (in
// name order) and Reset come from the shared registry.
type Counters struct {
	registry[*Counter]
}

// NewCounters creates an empty registry.
func NewCounters() *Counters { return &Counters{} }

// DefaultCounters is the process-wide registry kernels attach to unless
// configured with their own (the farm gives each device stack its own, like
// it does for histograms). Event sites that have no duration — present
// retries and drops, frame-deadline misses — count here so the telemetry
// plane can export and window them.
var DefaultCounters = NewCounters()

// Counter returns the named counter, creating it on first use.
func (cs *Counters) Counter(name string) *Counter {
	return cs.get(name, func() *Counter { return &Counter{name: name} })
}

// String renders "name=count" pairs in name order, for snapshot sections.
func (cs *Counters) String() string {
	var b strings.Builder
	cs.Each(func(c *Counter) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", c.Name(), c.Load())
	})
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// Section renders the registry as a snapshot section, one row per counter.
func (cs *Counters) Section() Section {
	var sec Section
	cs.Each(func(c *Counter) {
		sec.Addf(c.Name(), "%d", c.Load())
	})
	return sec
}
