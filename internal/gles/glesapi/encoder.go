package glesapi

import (
	"cmp"
	"sync"
	"sync/atomic"

	"cycada/internal/core/callconv"
	"cycada/internal/gles/registry"
	"cycada/internal/sim/kernel"
)

// FlushReason classifies why the command encoder flushed a batch — the
// counters behind the flush-reason telemetry and the batch-size sweep.
type FlushReason int

// The flush triggers.
const (
	// FlushObserving: a non-batchable call arrived (return value, query,
	// sync point); the pending run must reach the bridge before it.
	FlushObserving FlushReason = iota
	// FlushCap: the batch hit its call-count cap.
	FlushCap
	// FlushBytes: the batch hit its encoded-byte cap.
	FlushBytes
	// FlushThreadSwitch: a different thread started encoding; batches never
	// mix thread identities (a batch decodes on its owner's identity).
	FlushThreadSwitch
	// FlushExplicit: eglSwapBuffers, context switch, or batching being
	// turned off forced the pending run out.
	FlushExplicit

	// NumFlushReasons is the number of flush triggers.
	NumFlushReasons
)

var flushReasonNames = [NumFlushReasons]string{
	FlushObserving:    "observing",
	FlushCap:          "cap",
	FlushBytes:        "bytes",
	FlushThreadSwitch: "thread_switch",
	FlushExplicit:     "explicit",
}

// String implements fmt.Stringer.
func (r FlushReason) String() string {
	if r >= 0 && r < NumFlushReasons {
		return flushReasonNames[r]
	}
	return "unknown"
}

// maxBatchBytes caps a batch's encoded payload (client arrays, shader
// sources): a texture-heavy run must not pin unbounded caller memory across
// the deferred flush.
const maxBatchBytes = 64 << 10

// batchableIDs is the FuncID-indexed batchability bitmap, built once from the
// registry's classification. Indexing by interned ID keeps the per-call check
// to two loads, no map hash.
var (
	batchableOnce sync.Once
	batchableIDs  []bool
)

// batchable reports whether the entry point with the given interned ID may
// be appended to a command-encoder batch.
func batchable(id callconv.FuncID) bool {
	batchableOnce.Do(func() {
		max := callconv.FuncID(0)
		ids := make([]callconv.FuncID, 0, 64)
		for _, name := range registry.BridgeBatchable() {
			fid := callconv.Intern(name)
			ids = append(ids, fid)
			if fid > max {
				max = fid
			}
		}
		bm := make([]bool, max+1)
		for _, fid := range ids {
			bm[fid] = true
		}
		batchableIDs = bm
	})
	return int(id) < len(batchableIDs) && batchableIDs[id]
}

// Encoder is the command encoder: it accumulates batchable calls into a
// pooled callconv batch and flushes the batch through a BatchDispatcher in
// one crossing — before a call it does not batch, when another thread
// starts encoding, at its call-count cap or payload cap, and whenever its
// owner asks. The facade holds one for its app (GL.EnableBatching), and the
// replay player one per batched replay. It is safe for concurrent use.
type Encoder struct {
	mu      sync.Mutex
	disp    callconv.BatchDispatcher
	cap     int
	pending *callconv.Batch
	flushes [NumFlushReasons]atomic.Uint64
}

// NewEncoder returns an encoder that flushes through disp once a batch holds
// cap calls (values < 1 are clamped to 1).
func NewEncoder(disp callconv.BatchDispatcher, cap int) *Encoder {
	e := new(Encoder)
	e.configure(disp, cap)
	return e
}

func (e *Encoder) configure(disp callconv.BatchDispatcher, cap int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.disp = disp
	e.cap = max(cap, 1)
}

// Encode appends the frame to the pending batch, flushing first when a
// trigger fires, and reports true: the batch owns the frame. It reports
// false, without taking the frame, when the call must dispatch serially (it
// is not batchable); the pending run is flushed ahead of it. The error is
// the dispatch error of the first flush the call triggered that failed.
func (e *Encoder) Encode(t *kernel.Thread, fr *callconv.Frame) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !batchable(fr.ID()) {
		// The observing call itself runs serially, after everything queued
		// ahead of it — order is what makes the deferral invisible.
		return false, e.flushLocked(FlushObserving)
	}
	var err error
	if e.pending != nil && e.pending.Owner() != t {
		err = e.flushLocked(FlushThreadSwitch)
	}
	if e.pending == nil {
		e.pending = callconv.AcquireBatch()
		e.pending.SetOwner(t)
	}
	e.pending.Append(fr)
	if e.pending.Len() >= e.cap {
		err = cmp.Or(err, e.flushLocked(FlushCap))
	} else if e.pending.Bytes() >= maxBatchBytes {
		err = cmp.Or(err, e.flushLocked(FlushBytes))
	}
	return true, err
}

// Flush dispatches the pending run, if any, on its owner thread, counting
// it under reason, and returns the dispatch error.
func (e *Encoder) Flush(reason FlushReason) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flushLocked(reason)
}

// Drop releases the pending run without dispatching it: the abort path of
// a caller that stops mid-stream.
func (e *Encoder) Drop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if b := e.pending; b != nil {
		e.pending = nil
		b.Release()
	}
}

// FlushCounts snapshots the per-reason flush counters, indexed by
// FlushReason.
func (e *Encoder) FlushCounts() [NumFlushReasons]uint64 {
	var out [NumFlushReasons]uint64
	for i := range out {
		out[i] = e.flushes[i].Load()
	}
	return out
}

func (e *Encoder) flushLocked(reason FlushReason) error {
	b := e.pending
	if b == nil {
		return nil
	}
	e.pending = nil
	e.flushes[reason].Add(1)
	err := e.disp.CallBatch(b.Owner(), b)
	b.Release()
	return err
}

// defaultBatchCap is the process-wide default batch cap consumed when an app
// facade is constructed (system.NewIOSApp): 0 means batching off. It exists
// for the cmd/ binaries' -batch flags, which have no handle on the facades
// the harness builds internally.
var defaultBatchCap atomic.Int64

// SetDefaultBatchCap sets (n > 0) or clears (n <= 0) the process-wide default
// batch cap applied to newly constructed iOS app facades.
func SetDefaultBatchCap(n int) {
	if n < 0 {
		n = 0
	}
	defaultBatchCap.Store(int64(n))
}

// DefaultBatchCap returns the process-wide default batch cap; 0 means off.
func DefaultBatchCap() int { return int(defaultBatchCap.Load()) }

// EnableBatching turns the facade's command encoder on with the given
// call-count cap (values < 1 are clamped to 1). It reports false — leaving
// the facade on the serial path — when the bound library cannot dispatch
// batches (the Apple and Tegra vendor libraries; only the diplomatic bridge
// implements callconv.BatchDispatcher, which is fine: native processes have
// no persona crossing to amortize).
func (g *GL) EnableBatching(cap int) bool {
	disp, ok := g.h.Instance().(callconv.BatchDispatcher)
	if !ok {
		return false
	}
	g.enc.configure(disp, cap)
	g.batching.Store(true)
	return true
}

// DisableBatching flushes any pending run and returns the facade to the
// serial path.
func (g *GL) DisableBatching(t *kernel.Thread) {
	if g.batching.Swap(false) {
		g.enc.Flush(FlushExplicit)
	}
}

// BatchingEnabled reports whether the command encoder is on.
func (g *GL) BatchingEnabled() bool { return g.batching.Load() }

// FlushBatch forces the pending run across the boundary. The EAGL layer
// calls it at every present, context switch, and context teardown — the
// flush triggers that bound how long a call can stay deferred. Dispatch
// errors are discarded: every batchable call is void, and the serial path
// discards the same errors at the same wrappers.
func (g *GL) FlushBatch(t *kernel.Thread) {
	if g.batching.Load() {
		g.enc.Flush(FlushExplicit)
	}
}

// BatchFlushCounts snapshots the facade encoder's per-reason flush
// counters, indexed by FlushReason.
func (g *GL) BatchFlushCounts() [NumFlushReasons]uint64 { return g.enc.FlushCounts() }
