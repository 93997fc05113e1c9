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
	"sync"
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

// Diplomat is one diplomatic function.
type Diplomat struct {
	Name string
	Kind Kind
	// Target overrides the domestic entry point name for wrapper-less
	// diplomats; multi diplomats named after a GLES function use it to reach
	// their coalesced aegl_bridge_* helper.
	Target string

	boundary

	link   *linker.Linker
	lib    *linker.Handle
	libFor func(t *kernel.Thread) *linker.Handle

	wrapper Wrapper
	// met is the diplomat's profile metric, resolved once at construction so
	// the per-call record is two atomic adds on the caller's stripe (no
	// global mutex, no map lookup). Nil when no profiler is configured or the
	// diplomat is Unimplemented.
	met      *obs.Metric
	spanName string // "diplomat:<name>", precomputed for the call span
	// hist is the diplomat-call latency histogram (frame-health
	// telemetry): where met records count+total per function, hist records
	// the tail distribution across all diplomat calls. Gated by its registry,
	// so the disabled cost per call is one atomic load.
	hist *obs.Histogram
	// panicName is "diplomat_panic:<name>", precomputed so the panic
	// isolation path records its flight-recorder marker without allocating.
	panicName string

	// fid is the interned ID of the domestic entry point (Name, or Target
	// when set). It implements step 1's "locates the required entry point …
	// for efficient reuse": resolved lazily on first call — Target is
	// assigned after New — then every call is one atomic load. The symbol
	// itself is cached per library instance in the linker's flat DlsymID
	// cache, so replica-routed diplomats keep one cached pointer per replica
	// without a per-diplomat mutex or map.
	fid atomic.Uint32
}

// CallHistName names the diplomat-call latency histogram in the kernel's
// histogram registry.
const CallHistName = "diplomat-call"

// Config creates diplomats for one diplomatic library.
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

// New creates a diplomat. wrapper must be nil for Direct and Multi kinds and
// non-nil for Indirect and DataDependent kinds.
func New(cfg Config, name string, kind Kind, wrapper Wrapper) (*Diplomat, error) {
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
	if cfg.Linker == nil || (cfg.Library == nil && cfg.LibraryFor == nil) {
		return nil, fmt.Errorf("diplomat %s: missing domestic library", name)
	}
	d := &Diplomat{
		Name:      name,
		Kind:      kind,
		boundary:  newBoundary(cfg),
		link:      cfg.Linker,
		lib:       cfg.Library,
		libFor:    cfg.LibraryFor,
		wrapper:   wrapper,
		spanName:  "diplomat:" + name,
		panicName: "diplomat_panic:" + name,
		// Resolved once from the registry current at construction: diplomats
		// are built per app process, so a scheduler that scopes the kernel's
		// registry to a session gets per-session diplomat-call samples while
		// the hot path keeps its cached pointer (no per-call lookup).
		hist: cfg.Linker.Proc().Kernel().Histograms().Histogram(CallHistName),
	}
	// Unimplemented diplomats never execute, so they get no metric: the
	// paper's figures must not show functions that are never called.
	if cfg.Profiler != nil && kind != Unimplemented {
		d.met = cfg.Profiler.Metric(name)
	}
	return d, nil
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
	// CallIndex is the 0-based position of the faulting call inside a batched
	// flush, or -1 for a serial call. A mid-batch crash must be attributable
	// to one logical GLES call even though the whole run shared a single
	// impersonation window.
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
// materialize the boxed []any view and run through the legacy wrapper path.
func (d *Diplomat) CallFrame(t *kernel.Thread, fr *callconv.Frame) any {
	if d.wrapper != nil {
		return d.call(t, fr.Args(), nil)
	}
	return d.call(t, nil, fr)
}

// call runs one diplomat call: the span, steps 2, 10 and 11 around the
// domestic invocation, the crash seam, and panic isolation. fr, when set,
// is the typed frame of a wrapper-less call; otherwise args is the boxed
// argument list.
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
			ret = d.recovered(t, r, sp, start)
		}
	}()

	// Step 2: prelude in the foreign persona.
	d.runHooks(t, true)
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
		ret = d.invoke(t, d.funcID(), args, fr)
	}

	// Step 10: postlude in the foreign persona.
	d.runHooks(t, false)

	// Step 11: return value restored from the stack, control returns.
	t.ChargeCPU(t.Costs().RetSaveRestore / 2)
	d.finish(t, start)
	t.TraceEnd(sp)
	return ret
}

// finish closes the per-call accounting: the profile metric (count+total),
// the shared latency histogram (tails), and a flight-recorder span event.
// Every component is individually gated at one atomic load when off.
func (d *Diplomat) finish(t *kernel.Thread, start vclock.Duration) {
	dur := t.VTime() - start
	if d.met != nil {
		d.met.Record(t.TID(), dur)
	}
	d.hist.Observe(t.TID(), dur)
	t.FlightRecord(obs.FlightSpan, obs.CatDiplomat, d.spanName, int64(dur))
}

// recovered is the panic-isolation path of every serial call. The
// thread may have died anywhere in the §3 sequence — possibly still in the
// domestic persona, with the prelude's gate held — so recovery restores the
// foreign persona, reports a persona-safe errno (ENOMEM, the closest POSIX
// analogue of GL_OUT_OF_MEMORY), runs the postlude so impersonation gates
// stay balanced, poisons the GL context via the configured hook, and closes
// the metric and span the call opened. Each step is itself guarded: recovery
// must never re-panic.
func (d *Diplomat) recovered(t *kernel.Thread, r any, sp obs.Span, start vclock.Duration) error {
	safely := func(f func()) {
		defer func() { recover() }()
		f()
	}
	safely(func() { t.SetPersona(d.foreign) })
	safely(func() { t.SetErrnoIn(d.foreign, int(kernel.ENOMEM)) })
	safely(func() { d.runHooks(t, false) })
	if d.poison != nil {
		safely(func() { d.poison(t) })
	}
	d.finish(t, start)
	if t.TraceEnabled() {
		t.TraceEnd(t.TraceBegin(obs.CatFault, d.panicName))
	}
	t.TraceEnd(sp)
	// The black box: mark the isolated panic in the flight recorder and dump
	// it, so the report carries the recent event tail (the calls that led
	// here) along with the trigger itself.
	t.FlightRecord(obs.FlightMark, obs.CatFault, d.panicName, 0)
	t.FlightDump(d.panicName)
	return &PanicError{Diplomat: d.Name, Reason: r, CallIndex: -1}
}

// boundary is what every crossing into one diplomatic library shares: the
// two personas, the library-wide hooks, and the poison policy. Diplomat and
// Batcher both embed it, so the serial and the batched path run the same
// implementation of each §3 step.
type boundary struct {
	foreign  kernel.Persona
	domestic kernel.Persona
	hooks    *Hooks
	poison   func(t *kernel.Thread)
}

func newBoundary(cfg Config) boundary {
	return boundary{foreign: cfg.Foreign, domestic: cfg.Domestic, hooks: cfg.Hooks, poison: cfg.Poison}
}

// runHooks dispatches the library's prelude (step 2) or postlude (step 10)
// with its configured cost.
func (b *boundary) runHooks(t *kernel.Thread, prelude bool) {
	h := b.hooks
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
func (b *boundary) enter(t *kernel.Thread) error {
	c := t.Costs()
	t.ChargeCPU(c.ArgSave)
	if err := t.SetPersona(b.domestic); err != nil {
		return err
	}
	t.ChargeCPU(c.ArgRestore)
	return nil
}

// leave performs steps 7-9: return value saved, set_persona back to the
// foreign persona, and the domestic errno converted into foreign TLS.
func (b *boundary) leave(t *kernel.Thread, domesticErrno int) error {
	c := t.Costs()
	t.ChargeCPU(c.RetSaveRestore / 2)
	if err := t.SetPersona(b.foreign); err != nil {
		return err
	}
	t.ChargeCPU(c.ErrnoConvert)
	t.SetErrnoIn(b.foreign, domesticErrno)
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
	if err := d.enter(t); err != nil {
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
	if err := d.leave(t, t.Errno()); err != nil {
		ret = err
	}
	t.TraceEnd(sp)
	return ret
}

// funcID returns the interned ID of the diplomat's domestic entry point,
// resolving Name/Target lazily on first use (Target is assigned after New).
func (d *Diplomat) funcID() callconv.FuncID {
	if id := callconv.FuncID(d.fid.Load()); id != callconv.NoFunc {
		return id
	}
	name := d.Name
	if d.Target != "" {
		name = d.Target
	}
	id := callconv.Intern(name)
	d.fid.Store(uint32(id))
	return id
}

// resolve implements step 1: "Upon first invocation, a diplomat loads the
// appropriate domestic library and locates the required entry point, storing
// a pointer to the function … for efficient reuse." Resolutions are cached
// per library instance in the linker's flat FuncID-indexed snapshot, so
// replica-routed diplomats keep one cached pointer per replica and the
// per-call cost is one atomic load plus a slice index — no mutex, no map.
func (d *Diplomat) resolve(t *kernel.Thread, id callconv.FuncID) (linker.Symbol, error) {
	h := d.lib
	if d.libFor != nil {
		if dyn := d.libFor(t); dyn != nil {
			h = dyn
		}
	}
	if h == nil {
		return linker.Symbol{}, fmt.Errorf("diplomat %s: no domestic library for this thread", d.Name)
	}
	s, err := d.link.DlsymID(h, id)
	if err != nil {
		return linker.Symbol{}, fmt.Errorf("diplomat %s: %w", d.Name, err)
	}
	return s, nil
}

// Registry is a named set of diplomats forming one diplomatic library, with
// the per-kind census of Table 2.
type Registry struct {
	cfg Config

	mu   sync.Mutex
	dips map[string]*Diplomat
}

// NewRegistry creates an empty registry for one diplomatic library.
func NewRegistry(cfg Config) *Registry {
	return &Registry{cfg: cfg, dips: map[string]*Diplomat{}}
}

// Add registers a diplomat.
func (r *Registry) Add(name string, kind Kind, wrapper Wrapper) (*Diplomat, error) {
	d, err := New(r.cfg, name, kind, wrapper)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.dips[name]; dup {
		return nil, fmt.Errorf("diplomat %s: already registered", name)
	}
	r.dips[name] = d
	return d, nil
}

// Get looks up a diplomat by name.
func (r *Registry) Get(name string) (*Diplomat, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.dips[name]
	return d, ok
}

// Len reports the number of registered diplomats.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.dips)
}

// Census returns the per-kind counts — the rows of Table 2.
func (r *Registry) Census() map[Kind]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[Kind]int{}
	for _, d := range r.dips {
		out[d.Kind]++
	}
	return out
}
