package diplomat

import (
	"fmt"

	"cycada/internal/core/callconv"
	"cycada/internal/fault"
	"cycada/internal/obs"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// Batcher dispatches a whole callconv batch through one impersonation window:
// one prelude, one persona switch in, N domestic invocations in append order,
// one persona switch out, one errno conversion, one postlude. This is the §3
// call sequence with steps 2-5 and 7-10 amortized across the run — the
// per-call cost collapses to the symbol dereference and the function itself.
//
// A Batcher is built from the same Config as the library's diplomats, so the
// personas, hooks, and poison policy are identical to the serial path.
type Batcher struct{ boundary }

// NewBatcher creates a batch dispatcher for one diplomatic library.
func NewBatcher(cfg Config) *Batcher { return &Batcher{newBoundary(cfg)} }

// Dispatch runs every frame of the batch inside a single impersonation
// window on t (the batch's owner thread). lookup maps a frame's FuncID to
// its diplomat; after, when non-nil, is invoked in the foreign-visible call
// order for every frame that completed without an isolated panic — the tap
// seam that keeps the logical call stream identical to serial execution.
//
// Dispatch returns dispatched=false without having run any frame when the
// window itself could not be opened (an injected batch_flush fault); the
// caller then degrades to per-call windows. With dispatched=true, every
// frame ran exactly once; err carries the first isolated panic, if any, with
// its CallIndex set to the faulting frame's position.
//
// Determinism: frames decode strictly in append order on the owner thread's
// identity. A frame that panics poisons the context and reports ENOMEM
// exactly as a serial call would, and the frames after it still execute —
// the same observable history as N serial calls where one crashed.
func (b *Batcher) Dispatch(t *kernel.Thread, batch *callconv.Batch, lookup func(callconv.FuncID) *Diplomat, after func(i int, fr *callconv.Frame, ret any)) (dispatched bool, err error) {
	sp := t.TraceBegin(obs.CatBatch, "batch:dispatch")
	start := t.VTime()

	// Step 2, once: prelude in the foreign persona.
	b.runHooks(t, true)

	// The window-open seam: an injected batch_flush fault means the single
	// shared window could not be established. Nothing has crossed yet, so the
	// postlude rebalances the prelude and the caller re-dispatches serially.
	if inj := t.Faults(); inj != nil {
		if ferr := inj.Fail(fault.PointBatchFlush); ferr != nil {
			b.runHooks(t, false)
			t.TraceEnd(sp)
			return false, ferr
		}
	}

	// Steps 3-5, once: the encoded run is stored across the boundary, the
	// persona switches, and the run is restored bridge-side.
	if perr := b.enter(t); perr != nil {
		b.runHooks(t, false)
		t.TraceEnd(sp)
		return false, perr
	}

	var poisoned bool
	for i := 0; i < batch.Len(); i++ {
		fr := batch.Frame(i)
		ret := b.dispatchFrame(t, i, fr, lookup, &poisoned, &err)
		if after != nil {
			if _, isPanic := ret.(*PanicError); !isPanic {
				after(i, fr, ret)
			}
		}
	}

	// Steps 7-9, once: return values saved, the persona switches back, and
	// the domestic TLS values are converted into foreign TLS.
	if perr := b.leave(t, t.Errno()); perr != nil {
		t.TraceEnd(sp)
		return true, perr
	}

	// Step 10, once: postlude in the foreign persona.
	b.runHooks(t, false)
	// Step 11, once: control returns to the encoder.
	t.ChargeCPU(t.Costs().RetSaveRestore / 2)
	t.FlightRecord(obs.FlightSpan, obs.CatBatch, "batch:dispatch", int64(t.VTime()-start))
	t.TraceEnd(sp)
	return true, err
}

// dispatchFrame decodes and invokes one frame inside the open window, with
// per-frame panic isolation: a crash in domestic code degrades this one call
// (ENOMEM, context poisoned, flight-recorder dump) and the window continues
// with the next frame, matching the serial path where later calls still run
// on the poisoned context. The first panic is recorded into *firstErr with
// the faulting call index.
func (b *Batcher) dispatchFrame(t *kernel.Thread, i int, fr *callconv.Frame, lookup func(callconv.FuncID) *Diplomat, poisoned *bool, firstErr *error) (ret any) {
	d := lookup(fr.ID())
	if d == nil {
		return fmt.Errorf("batch: no diplomat for %s", callconv.Name(fr.ID()))
	}
	start := t.VTime()

	defer func() {
		if r := recover(); r != nil {
			ret = b.frameRecovered(t, d, i, r, start, poisoned, firstErr)
		}
	}()

	// The per-call crash seam stays per-call: a fault schedule that crashes
	// the domestic half of one call inside a batch must hit exactly that
	// call, not the whole run.
	if inj := t.Faults(); inj != nil {
		if ferr := inj.Fail(fault.PointDiplomatPanic); ferr != nil {
			panic(ferr)
		}
	}

	sym, err := d.resolve(t, d.funcID())
	if err != nil {
		return err
	}
	// Step 6: direct invocation through the cached symbol, already in the
	// domestic persona.
	ret = sym.CallFrame(t, fr)
	d.finish(t, start)
	return ret
}

// frameRecovered is the mid-batch analogue of Diplomat.recovered. The window
// stays open — the thread is re-pinned to the domestic persona so the
// remaining frames decode on the right identity — and the foreign-visible
// effects (ENOMEM errno, poisoned context, flight-recorder dump) are staged
// through the domestic TLS slot so the window-close conversion propagates
// them exactly as a serial call's step 9 would.
func (b *Batcher) frameRecovered(t *kernel.Thread, d *Diplomat, i int, r any, start vclock.Duration, poisoned *bool, firstErr *error) error {
	safely := func(f func()) {
		defer func() { recover() }()
		f()
	}
	safely(func() { t.SetPersona(b.domestic) })
	safely(func() { t.SetErrnoIn(b.domestic, int(kernel.ENOMEM)) })
	if b.poison != nil && !*poisoned {
		*poisoned = true
		safely(func() { b.poison(t) })
	}
	d.finish(t, start)
	if t.TraceEnabled() {
		t.TraceEnd(t.TraceBegin(obs.CatFault, d.panicName))
	}
	t.FlightRecord(obs.FlightMark, obs.CatFault, d.panicName, 0)
	t.FlightDump(d.panicName)
	perr := &PanicError{Diplomat: d.Name, Reason: r, CallIndex: i}
	if *firstErr == nil {
		*firstErr = perr
	}
	return perr
}
