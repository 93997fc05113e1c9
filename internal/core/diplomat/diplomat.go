// Package diplomat implements Cycada's extended diplomatic functions — the
// paper's first contribution. A diplomat temporarily switches the persona of
// a calling thread to execute domestic (Android) code from within a foreign
// (iOS) app, following the eleven-step call sequence of §3, extended with
// prelude and postlude operations that run in the foreign persona.
//
// The four diplomat usage patterns of §4.1 are expressed through the Kind
// classification and the optional foreign-side Wrapper:
//
//   - direct: no wrapper; the domestic function is invoked directly.
//   - indirect: a small foreign-side wrapper re-directs to a similar
//     domestic API with a different name or re-arranges inputs.
//   - data-dependent: the wrapper performs input-dependent logic and may
//     not invoke the domestic function at all.
//   - multi: several coalesced diplomats — one persona switch around a
//     domestic helper that calls many domestic functions (libEGLbridge).
package diplomat

import (
	"fmt"
	"sync/atomic"

	"cycada/internal/core/callconv"
	"cycada/internal/core/profile"
	"cycada/internal/fault"
	"cycada/internal/linker"
	"cycada/internal/obs"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// Kind is a diplomat usage pattern (Table 2).
type Kind int

// The four patterns plus the unimplemented bucket.
const (
	Direct Kind = iota + 1
	Indirect
	DataDependent
	Multi
	Unimplemented
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Direct:
		return "direct"
	case Indirect:
		return "indirect"
	case DataDependent:
		return "data-dependent"
	case Multi:
		return "multi"
	case Unimplemented:
		return "unimplemented"
	default:
		return "unknown"
	}
}

// Hooks are the library-wide prelude and postlude operations executed in the
// foreign persona before and after domestic library usage — Cycada's
// extension to the basic diplomat construction (§3). They are "common to all
// diplomats and specified at compile time" (i.e., per diplomatic library).
type Hooks struct {
	// Prelude runs in the foreign persona before the persona switch (step 2).
	Prelude func(t *kernel.Thread)
	// Postlude runs in the foreign persona after the switch back (step 10).
	Postlude func(t *kernel.Thread)
	// Cost selects what the hook dispatch charges: zero-value hooks charge
	// the empty-prelude cost; GL hooks charge the measured GL pre/post cost
	// (Table 3 rows 3 and 4).
	GL bool
}

// Wrapper is the foreign-side logic of indirect and data-dependent
// diplomats. It receives the calling thread, the original arguments, and
// `domestic`, which performs the persona-switched domestic invocation (steps
// 3-9) with whatever name/arguments the wrapper chooses; the wrapper may
// call it zero, one, or several times.
type Wrapper func(t *kernel.Thread, domestic func(name string, args ...any) any, args []any) any

// Diplomat is one diplomatic function of a Library.
type Diplomat struct {
	Name string
	Kind Kind

	lib *Library
	// handle, when set, is the domestic library this diplomat resolves
	// against instead of its library's (AddMulti).
	handle *linker.Handle
	// fid is the interned ID of the domestic entry point: Name, or the
	// coalesced helper of a multi diplomat. Interning it when the diplomat
	// is added is step 1's "locates the required entry point … for
	// efficient reuse"; the symbol itself is cached per library instance in
	// the linker's flat DlsymID cache, so replica-routed diplomats keep one
	// cached pointer per replica without a per-diplomat mutex or map.
	fid     callconv.FuncID
	wrapper Wrapper
	// fn is the per-function profile histogram, created on the first
	// recorded call — an app builds some 330 diplomats, most never called,
	// and Figures 7-10 show only functions that were — so every later
	// record is an atomic load and a few atomic adds on the caller's stripe
	// (no global mutex, no lookup).
	fn       atomic.Pointer[obs.Histogram]
	spanName string // "diplomat:<name>", precomputed for the call span
	// panicName is "diplomat_panic:<name>", precomputed so the panic
	// isolation path records its flight-recorder marker without allocating.
	panicName string
}

// CallHistName names the diplomat-call latency histogram in the kernel's
// histogram registry.
const CallHistName = "diplomat-call"

// Config describes one diplomatic library.
type Config struct {
	Foreign  kernel.Persona // the app's persona (iOS)
	Domestic kernel.Persona // the library's persona (Android)
	Linker   *linker.Linker
	Library  *linker.Handle // the domestic library diplomats resolve against
	Hooks    *Hooks
	Profiler *profile.Profiler // optional; records per-call foreign-visible time
	// LibraryFor, when set, selects the domestic library per call — the
	// routing DLR needs: a thread bound to an EGL_multi_context replica must
	// resolve against that replica's libraries, not the global instances.
	LibraryFor func(t *kernel.Thread) *linker.Handle
	// Poison, when set, is invoked (best-effort, in the foreign persona)
	// after a panic was isolated inside a diplomat: the hook marks the
	// thread's current GL context as lost so subsequent calls report a
	// persona-safe GL_OUT_OF_MEMORY-style error instead of silently
	// continuing on corrupt state.
	Poison func(t *kernel.Thread)
}

// Library is one diplomatic library: what every crossing into it shares —
// the two personas, the library-wide hooks and the poison policy — and its
// diplomats, by name and by interned FuncID, with the per-kind census of
// Table 2. Its diplomats run serial calls; Dispatch runs a whole batch.
// Diplomats are added while the library is built; it is read-only after.
type Library struct {
	foreign  kernel.Persona
	domestic kernel.Persona
	hooks    *Hooks
	poison   func(t *kernel.Thread)
	link     *linker.Linker
	lib      *linker.Handle
	libFor   func(t *kernel.Thread) *linker.Handle
	prof     *profile.Profiler
	// hist is the diplomat-call latency histogram (frame-health
	// telemetry): where a diplomat's fn records its own calls, hist records
	// the tail distribution across all of them. Gated by its registry, so
	// the disabled cost per call is one atomic load.
	hist *obs.Histogram

	byName map[string]*Diplomat
	byID   []*Diplomat // by the interned FuncID of the diplomat's name
}

// NewLibrary creates an empty diplomatic library.
func NewLibrary(cfg Config) (*Library, error) {
	if cfg.Linker == nil || (cfg.Library == nil && cfg.LibraryFor == nil) {
		return nil, fmt.Errorf("diplomat: missing domestic library")
	}
	return &Library{
		foreign:  cfg.Foreign,
		domestic: cfg.Domestic,
		hooks:    cfg.Hooks,
		poison:   cfg.Poison,
		link:     cfg.Linker,
		lib:      cfg.Library,
		libFor:   cfg.LibraryFor,
		prof:     cfg.Profiler,
		// Resolved once from the registry current at construction: libraries
		// are built per app process, so a scheduler that scopes the kernel's
		// registry to a session gets per-session diplomat-call samples while
		// the hot path keeps its cached pointer (no per-call lookup).
		hist:   cfg.Linker.Proc().Kernel().Histograms().Histogram(CallHistName),
		byName: map[string]*Diplomat{},
	}, nil
}

// New creates a diplomat alone in a library of its own.
func New(cfg Config, name string, kind Kind, wrapper Wrapper) (*Diplomat, error) {
	l, err := NewLibrary(cfg)
	if err != nil {
		return nil, err
	}
	return l.Add(name, kind, wrapper)
}

// Add adds a diplomat that reaches the domestic function of the same name.
// wrapper must be nil for Direct, Multi and Unimplemented kinds and non-nil
// for Indirect and DataDependent kinds.
func (l *Library) Add(name string, kind Kind, wrapper Wrapper) (*Diplomat, error) {
	return l.add(name, kind, wrapper, name, nil)
}

// AddMulti adds a multi diplomat named after a foreign function that
// coalesces into helper, a domestic function of h (nil: the library's own
// domestic library) — the GLES bridge's two multi diplomats reach
// libEGLbridge this way.
func (l *Library) AddMulti(name, helper string, h *linker.Handle) (*Diplomat, error) {
	return l.add(name, Multi, nil, helper, h)
}

func (l *Library) add(name string, kind Kind, wrapper Wrapper, entry string, h *linker.Handle) (*Diplomat, error) {
	switch kind {
	case Direct, Multi, Unimplemented:
		if wrapper != nil {
			return nil, fmt.Errorf("diplomat %s: %v diplomats take no wrapper", name, kind)
		}
	case Indirect, DataDependent:
		if wrapper == nil {
			return nil, fmt.Errorf("diplomat %s: %v diplomats need a wrapper", name, kind)
		}
	default:
		return nil, fmt.Errorf("diplomat %s: unknown kind %d", name, kind)
	}
	if _, dup := l.byName[name]; dup {
		return nil, fmt.Errorf("diplomat %s: already registered", name)
	}
	d := &Diplomat{
		Name:      name,
		Kind:      kind,
		lib:       l,
		handle:    h,
		fid:       callconv.Intern(entry),
		wrapper:   wrapper,
		spanName:  "diplomat:" + name,
		panicName: "diplomat_panic:" + name,
	}
	l.byName[name] = d
	id := int(callconv.Intern(name))
	if id >= len(l.byID) {
		l.byID = append(l.byID, make([]*Diplomat, id+1-len(l.byID))...)
	}
	l.byID[id] = d
	return d, nil
}

// Get looks up a diplomat by name.
func (l *Library) Get(name string) (*Diplomat, bool) {
	d, ok := l.byName[name]
	return d, ok
}

// ByID looks up the diplomat of the foreign function with the given interned
// ID, nil when the library has none. It is the one FuncID → diplomat map.
func (l *Library) ByID(id callconv.FuncID) *Diplomat {
	if int(id) < len(l.byID) {
		return l.byID[id]
	}
	return nil
}

// Kind reports how a function is bridged (Table 2).
func (l *Library) Kind(name string) (Kind, bool) {
	d, ok := l.byName[name]
	if !ok {
		return 0, false
	}
	return d.Kind, true
}

// Len reports the number of diplomats.
func (l *Library) Len() int { return len(l.byName) }

// Census returns the per-kind counts — the rows of Table 2.
func (l *Library) Census() map[Kind]int {
	out := map[Kind]int{}
	for _, d := range l.byName {
		out[d.Kind]++
	}
	return out
}

// ErrUnimplemented is returned when an unimplemented diplomat is called (the
// ten never-called iOS GLES functions of Table 2).
var ErrUnimplemented = fmt.Errorf("diplomat: function not implemented in the prototype (never called)")

// PanicError is returned when a panic inside a diplomat call — domestic
// library code crashing mid-call — was isolated instead of unwinding into
// (and killing) the foreign app. The thread is restored to the foreign
// persona with errno ENOMEM, the postlude has run (impersonation gates stay
// balanced), and the configured Poison hook has marked the GL context lost.
type PanicError struct {
	Diplomat string
	Reason   any
	// CallIndex is the 0-based position of the faulting call inside a batch
	// window, or -1 for a serial call. A mid-batch crash must be
	// attributable to one logical GLES call even though the whole run
	// shared a single impersonation window.
	CallIndex int
}

// Error implements error.
func (e *PanicError) Error() string {
	if e.CallIndex >= 0 {
		return fmt.Sprintf("diplomat %s: isolated panic at batch call %d: %v", e.Diplomat, e.CallIndex, e.Reason)
	}
	return fmt.Sprintf("diplomat %s: isolated panic: %v", e.Diplomat, e.Reason)
}

// Unwrap exposes the panic value when it was an error, so injected panics
// classify as fault.Injected through the PanicError.
func (e *PanicError) Unwrap() error {
	err, _ := e.Reason.(error)
	return err
}

// Call invokes the diplomat from foreign code, running the complete §3
// sequence. For Direct and Multi kinds the domestic entry point has the same
// name as the diplomat; Indirect and DataDependent kinds route through their
// wrapper.
func (d *Diplomat) Call(t *kernel.Thread, args ...any) any {
	return d.call(t, args, nil)
}

// CallFrame is Call for the typed calling convention: same §3 sequence, same
// vclock costs, zero heap allocations on the direct path. Direct and Multi
// diplomats hand the frame straight to the domestic symbol; wrapper kinds
// read the frame's []any view and run their foreign-side wrapper logic.
func (d *Diplomat) CallFrame(t *kernel.Thread, fr *callconv.Frame) any {
	if d.wrapper != nil {
		return d.call(t, fr.Args(), nil)
	}
	return d.call(t, nil, fr)
}

// call runs one serial diplomat call: the span, steps 2, 10 and 11 around
// the domestic invocation, the crash seam, and panic isolation. fr, when
// set, is the typed frame of a wrapper-less call; otherwise args is the
// boxed argument list.
func (d *Diplomat) call(t *kernel.Thread, args []any, fr *callconv.Frame) (ret any) {
	// Unimplemented diplomats return before any profiling: the ten
	// never-called Table 2 functions must not appear in the Figure 7-10
	// profiles.
	if d.Kind == Unimplemented {
		return ErrUnimplemented
	}
	sp := t.TraceBegin(obs.CatDiplomat, d.spanName)
	start := t.VTime()

	// Panic isolation: a crash in domestic code must degrade this one call,
	// never kill the foreign app. Open-coded defer — no allocation on the
	// non-panicking path (the 0-alloc benchmarks gate this).
	defer func() {
		if r := recover(); r != nil {
			ret = d.isolate(t, r, sp, start, -1)
		}
	}()

	// Step 2: prelude in the foreign persona.
	d.lib.runHooks(t, true)
	if inj := t.Faults(); inj != nil {
		if err := inj.Fail(fault.PointDiplomatPanic); err != nil {
			panic(err)
		}
	}

	if d.wrapper != nil {
		ret = d.wrapper(t, func(name string, inner ...any) any {
			return d.invoke(t, callconv.Intern(name), inner, nil)
		}, args)
	} else {
		ret = d.invoke(t, d.fid, args, fr)
	}

	// Step 10: postlude in the foreign persona.
	d.lib.runHooks(t, false)

	// Step 11: return value restored from the stack, control returns.
	t.ChargeCPU(t.Costs().RetSaveRestore / 2)
	d.finish(t, start)
	t.TraceEnd(sp)
	return ret
}

// finish closes the per-call accounting: the function's profile histogram
// (calls and total time), the shared latency histogram (tails), and a
// flight-recorder span event. Every component but the profile is
// individually gated at one atomic load when off.
func (d *Diplomat) finish(t *kernel.Thread, start vclock.Duration) {
	dur := t.VTime() - start
	if prof := d.lib.prof; prof != nil {
		h := d.fn.Load()
		if h == nil {
			// Simultaneous first calls both get the profiler's one
			// histogram for the name, so either store is the same pointer.
			h = prof.Histograms().Histogram(d.Name)
			d.fn.Store(h)
		}
		h.Observe(t.TID(), dur)
	}
	d.lib.hist.Observe(t.TID(), dur)
	t.FlightRecord(obs.FlightSpan, obs.CatDiplomat, d.spanName, int64(dur))
}

// isolate is the panic-isolation tail of a serial call (index -1) and of a
// frame inside an open batch window (its index). The thread may have died
// anywhere in the §3 sequence — possibly still in the domestic persona,
// with the prelude's gate held. A serial call restores the foreign persona
// and runs the postlude, so impersonation gates stay balanced; a window
// stays open, so its frame re-pins the domestic persona and stages the
// errno there for the window's close to convert, as a serial call's step 9
// would. Either way the thread reports a persona-safe errno (ENOMEM, the
// closest POSIX analogue of GL_OUT_OF_MEMORY), the poison hook marks the GL
// context lost, the metric and span the call opened close, and the flight
// recorder marks the panic and dumps the calls that led to it. Each step is
// itself guarded: recovery must never re-panic.
func (d *Diplomat) isolate(t *kernel.Thread, r any, sp obs.Span, start vclock.Duration, index int) error {
	safely := func(f func()) {
		defer func() { recover() }()
		f()
	}
	l := d.lib
	p := l.foreign
	if index >= 0 {
		p = l.domestic
	}
	safely(func() { t.SetPersona(p) })
	safely(func() { t.SetErrnoIn(p, int(kernel.ENOMEM)) })
	if index < 0 {
		safely(func() { l.runHooks(t, false) })
	}
	if l.poison != nil {
		safely(func() { l.poison(t) })
	}
	d.finish(t, start)
	if t.TraceEnabled() {
		t.TraceEnd(t.TraceBegin(obs.CatFault, d.panicName))
	}
	t.TraceEnd(sp)
	t.FlightRecord(obs.FlightMark, obs.CatFault, d.panicName, 0)
	t.FlightDump(d.panicName)
	return &PanicError{Diplomat: d.Name, Reason: r, CallIndex: index}
}

// runHooks dispatches the library's prelude (step 2) or postlude (step 10)
// with its configured cost.
func (l *Library) runHooks(t *kernel.Thread, prelude bool) {
	h := l.hooks
	if h == nil {
		// No prelude/postlude configured: the basic Cycada diplomat (the
		// Table 3 "Diplomat" row).
		return
	}
	c := t.Costs()
	if h.GL {
		if prelude {
			t.ChargeCPU(c.GLPrelude)
		} else {
			t.ChargeCPU(c.GLPostlude)
		}
	} else {
		t.ChargeCPU(c.PreludeEmpty)
	}
	fn := h.Postlude
	if prelude {
		fn = h.Prelude
	}
	if fn != nil {
		fn(t)
	}
}

// enter performs steps 3-5: arguments stored on the stack, set_persona to
// the domestic persona, arguments restored.
func (l *Library) enter(t *kernel.Thread) error {
	c := t.Costs()
	t.ChargeCPU(c.ArgSave)
	if err := t.SetPersona(l.domestic); err != nil {
		return err
	}
	t.ChargeCPU(c.ArgRestore)
	return nil
}

// leave performs steps 7-9: return value saved, set_persona back to the
// foreign persona, and the domestic errno converted into foreign TLS.
func (l *Library) leave(t *kernel.Thread, domesticErrno int) error {
	c := t.Costs()
	t.ChargeCPU(c.RetSaveRestore / 2)
	if err := t.SetPersona(l.foreign); err != nil {
		return err
	}
	t.ChargeCPU(c.ErrnoConvert)
	t.SetErrnoIn(l.foreign, domesticErrno)
	return nil
}

// invoke performs steps 1 and 3-9 for one domestic entry point: resolve
// (cached), enter the domestic persona, invoke the symbol — with the typed
// frame when fr is set, the boxed args otherwise — and leave.
func (d *Diplomat) invoke(t *kernel.Thread, id callconv.FuncID, args []any, fr *callconv.Frame) any {
	sym, err := d.resolve(t, id)
	if err != nil {
		// Resolution failure is a bridge bug surfaced to the caller.
		return err
	}
	var sp obs.Span
	if t.TraceEnabled() { // guarded: the span name concatenation allocates
		sp = t.TraceBegin(obs.CatDiplomat, "domestic:"+callconv.Name(id))
	}
	if err := d.lib.enter(t); err != nil {
		t.TraceEnd(sp)
		return err
	}
	// Step 6: direct invocation through the cached symbol.
	var ret any
	if fr != nil {
		ret = sym.CallFrame(t, fr)
	} else {
		ret = sym.Call(t, args...)
	}
	if err := d.lib.leave(t, t.Errno()); err != nil {
		ret = err
	}
	t.TraceEnd(sp)
	return ret
}

// resolve implements step 1: "Upon first invocation, a diplomat loads the
// appropriate domestic library and locates the required entry point, storing
// a pointer to the function … for efficient reuse." Resolutions are cached
// per library instance in the linker's flat FuncID-indexed snapshot, so
// replica-routed diplomats keep one cached pointer per replica and the
// per-call cost is one atomic load plus a slice index — no mutex, no map.
func (d *Diplomat) resolve(t *kernel.Thread, id callconv.FuncID) (linker.Symbol, error) {
	l := d.lib
	h := d.handle
	if h == nil {
		h = l.lib
		if l.libFor != nil {
			if dyn := l.libFor(t); dyn != nil {
				h = dyn
			}
		}
	}
	if h == nil {
		return linker.Symbol{}, fmt.Errorf("diplomat %s: no domestic library for this thread", d.Name)
	}
	s, err := l.link.DlsymID(h, id)
	if err != nil {
		return linker.Symbol{}, fmt.Errorf("diplomat %s: %w", d.Name, err)
	}
	return s, nil
}

// Dispatch runs every frame of batch in append order on t, the batch's
// owner thread, through one impersonation window: one prelude, one persona
// switch in, the frames, one switch out, one errno conversion, one
// postlude. This is the §3 sequence with steps 2-5 and 7-10 amortized
// across the run; per frame only the symbol dereference and the function
// itself remain. When the window cannot open (an injected batch_flush
// fault, or a failed switch in), nothing has crossed yet: the postlude
// rebalances the prelude and each frame runs as its own serial call.
// windowed reports which of the two happened.
//
// Either way the frames go through one loop with the serial path's rules:
// each frame runs exactly once; tap, when set, sees each frame that
// returned no error, in order (the record/replay seam that keeps the
// logical call stream identical to serial execution); err is the first
// error in append order. A frame that panics is isolated to its call —
// ENOMEM, context poisoned, flight-recorder dump, and inside a window its
// CallIndex — and the frames after it still run: the history of N serial
// calls where one crashed.
func (l *Library) Dispatch(t *kernel.Thread, batch *callconv.Batch, tap func(fr *callconv.Frame, ret any)) (windowed bool, err error) {
	sp := t.TraceBegin(obs.CatBatch, "batch:dispatch")
	start := t.VTime()

	// Step 2, once: prelude in the foreign persona. Steps 3-5, once: the
	// encoded run is stored across the boundary, the persona switches, and
	// the run is restored bridge-side.
	l.runHooks(t, true)
	var flush error
	if inj := t.Faults(); inj != nil {
		flush = inj.Fail(fault.PointBatchFlush)
	}
	if flush != nil || l.enter(t) != nil {
		l.runHooks(t, false)
		t.TraceEnd(sp)
		return false, l.frames(t, batch, false, tap)
	}
	err = l.frames(t, batch, true, tap)

	// Steps 7-9, once: return values saved, the persona switches back, and
	// the domestic TLS values are converted into foreign TLS.
	if perr := l.leave(t, t.Errno()); perr != nil {
		t.TraceEnd(sp)
		return true, perr
	}
	// Step 10, once: postlude in the foreign persona. Step 11, once:
	// control returns to the encoder.
	l.runHooks(t, false)
	t.ChargeCPU(t.Costs().RetSaveRestore / 2)
	t.FlightRecord(obs.FlightSpan, obs.CatBatch, "batch:dispatch", int64(t.VTime()-start))
	t.TraceEnd(sp)
	return true, err
}

// frames is Dispatch's one frame loop, inside the open window or, when it
// could not open, through serial calls.
func (l *Library) frames(t *kernel.Thread, batch *callconv.Batch, windowed bool, tap func(fr *callconv.Frame, ret any)) (first error) {
	for i := 0; i < batch.Len(); i++ {
		fr := batch.Frame(i)
		var ret any
		switch d := l.ByID(fr.ID()); {
		case d == nil:
			ret = fmt.Errorf("diplomat: %s is not in this library", callconv.Name(fr.ID()))
		case windowed:
			ret = d.windowed(t, i, fr)
		default:
			ret = d.CallFrame(t, fr)
		}
		if err, failed := ret.(error); failed && err != nil {
			if first == nil {
				first = err
			}
		} else if tap != nil {
			tap(fr, ret)
		}
	}
	return first
}

// windowed runs frame i inside the open window, already in the domestic
// persona: the per-call crash seam, step 1's cached resolve and step 6. A
// crash isolates to this frame and the window goes on with the next, as
// later serial calls still run on the poisoned context. Only wrapper-less
// diplomats ride in a window; the command encoder batches only direct ones.
func (d *Diplomat) windowed(t *kernel.Thread, i int, fr *callconv.Frame) (ret any) {
	if d.wrapper != nil || d.Kind == Unimplemented {
		return fmt.Errorf("diplomat %s: %v diplomats do not run in a batch window", d.Name, d.Kind)
	}
	start := t.VTime()
	defer func() {
		if r := recover(); r != nil {
			ret = d.isolate(t, r, obs.Span{}, start, i)
		}
	}()
	// The crash seam stays per call: a fault schedule that crashes the
	// domestic half of one call inside a batch must hit exactly that call.
	if inj := t.Faults(); inj != nil {
		if err := inj.Fail(fault.PointDiplomatPanic); err != nil {
			panic(err)
		}
	}
	sym, err := d.resolve(t, d.fid)
	if err != nil {
		return err
	}
	ret = sym.CallFrame(t, fr)
	d.finish(t, start)
	return ret
}
