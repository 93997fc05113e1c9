// Package linker simulates a dynamic linker with Dynamic Library Replication
// (DLR), the third OS compatibility technique of the paper (§8.1).
//
// Libraries are registered as blueprints (name, dependencies, constructor).
// Dlopen behaves like a normal linker: a library already loaded is shared and
// its handle returned. Dlforce — the paper's new linker entry point — loads a
// fresh replica of a library and its whole dependency tree "as if they were
// never loaded before": each replica gets unique virtual addresses for every
// symbol, and every constructor runs again. A replica is a library namespace;
// dlsym against a replica handle resolves only within that namespace, so
// "library code within a replica, or its dependencies, [can] use the dynamic
// loader normally, creating isolated trees of libraries."
//
// libc is never replicated (paper footnote 1): blueprints marked Shared are
// always resolved from the global namespace.
package linker

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cycada/internal/core/callconv"
	"cycada/internal/fault"
	"cycada/internal/obs"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/mem"
)

// Fn is the boxed simulated C ABI: a symbol callable with a calling thread
// and opaque arguments. libc, EGL, gralloc and the other non-GLES libraries
// export their symbols in this form.
type Fn func(t *kernel.Thread, args ...any) any

// Instance is one loaded copy of a library: its private global state plus
// its exported symbols, published through BoxedInstance, FrameInstance, or
// both; a name exported both ways resolves to its frame implementation.
type Instance any

// BoxedInstance is implemented by instances that export boxed Fn symbols.
type BoxedInstance interface {
	Symbols() map[string]Fn
}

// FrameInstance is implemented by instances that export typed frame
// implementations (the callconv calling convention). The three GLES
// libraries export every entry point this way and only this way; boxed
// callers reach them through Symbol.Call's adapter.
type FrameInstance interface {
	FrameSymbols() map[string]callconv.FrameFn
}

// Finalizer is implemented by instances that need teardown on Dlclose.
type Finalizer interface {
	Finalize()
}

// LoadContext is passed to a blueprint's constructor. It resolves the
// library's declared dependencies *within the namespace being constructed*,
// which is what gives a replica its private dependency tree.
type LoadContext struct {
	linker *Linker
	ns     *namespace
	thread *kernel.Thread
	deps   map[string]*loadedLib
}

// Dep returns the instance of a declared dependency, resolved in the loading
// namespace. It panics on undeclared dependencies: that is a programming
// error in a blueprint, not a runtime condition.
func (c *LoadContext) Dep(name string) Instance {
	l, ok := c.deps[name]
	if !ok {
		panic(fmt.Sprintf("linker: dependency %q not declared by the loading blueprint", name))
	}
	return l.inst
}

// Thread returns the thread performing the load.
func (c *LoadContext) Thread() *kernel.Thread { return c.thread }

// Process returns the process the library is being loaded into.
func (c *LoadContext) Process() *kernel.Process { return c.linker.proc }

// Linker returns the loading linker (rarely needed; libui_wrapper uses it to
// perform nested loads).
func (c *LoadContext) Linker() *Linker { return c.linker }

// Blueprint describes a dynamic library known to the linker.
type Blueprint struct {
	Name   string
	Deps   []string
	Shared bool   // never replicated by Dlforce (libc)
	Size   uint64 // simulated image size; defaults to 64 KiB
	New    func(ctx *LoadContext) (Instance, error)
}

// Symbol is a resolved symbol: a unique simulated virtual address plus the
// one implementation its library exports — Frame for typed frame symbols,
// Fn for boxed ones.
type Symbol struct {
	Name  string
	Addr  uint64
	Fn    Fn
	Frame callconv.FrameFn
	id    callconv.FuncID // interned Name, for the boxed-to-frame adapter
}

// Call invokes the symbol with a boxed argument list, charging the
// through-pointer call cost. A frame symbol is reached through the one
// boxed adapter: the list is framed once by callconv.FrameArgs and dispatched
// through CallFrame. A list no frame can carry sets errno EINVAL and returns
// the error; there is no second, boxed implementation to fall back to.
func (s Symbol) Call(t *kernel.Thread, args ...any) any {
	if s.Frame == nil {
		t.ChargeCPU(t.Costs().SymbolDeref)
		return s.Fn(t, args...)
	}
	fr, err := callconv.FrameArgs(t, s.id, args)
	if err != nil {
		return fmt.Errorf("linker: %s: %w", s.Name, err)
	}
	ret := s.CallFrame(t, fr)
	fr.Release()
	return ret
}

// CallFrame invokes the symbol with a typed frame, charging the same
// through-pointer cost as Call. Boxed symbols receive the frame's []any view.
func (s Symbol) CallFrame(t *kernel.Thread, fr *callconv.Frame) any {
	t.ChargeCPU(t.Costs().SymbolDeref)
	if s.Frame != nil {
		return s.Frame(t, fr)
	}
	return s.Fn(t, fr.Args()...)
}

type loadedLib struct {
	bp      *Blueprint
	inst    Instance
	ns      *namespace
	mapping *mem.Mapping
	exports *exportImage
	symbols []Symbol // by export index
	refs    int
	closed  bool // its replica namespace was torn down (guarded by Linker.mu)
	// resolved caches full Dlsym resolutions (own symbols, namespace peers,
	// shared globals) by callconv.FuncID: one atomic pointer per interned
	// name, allocated once, at the library's first DlsymID. A hit is an
	// atomic load; a miss resolves through Dlsym and publishes its entry
	// alone. Names interned after the table was made resolve uncached.
	resolveOnce sync.Once
	resolved    []atomic.Pointer[Symbol]
}

// exportImage is what every load of a library that exports the same names
// shares: the names, sorted (a symbol's index fixes its address), each
// one's index, and each one's interned FuncID. It is immutable.
type exportImage struct {
	names []string
	index map[string]int
	ids   []callconv.FuncID
}

// exportImages holds the export image of the latest load of each library,
// by name. A load whose exports differ from it builds and stores its own.
// It is process-wide, like the FuncIDs it holds, so that every linker's
// loads share it: each app boot builds a linker of its own.
var exportImages sync.Map // string -> *exportImage

// exportsOf returns the export image of a library named name that exports
// syms and frames (a name in both counted once).
func exportsOf(name string, syms map[string]Fn, frames map[string]callconv.FrameFn) *exportImage {
	if v, ok := exportImages.Load(name); ok {
		if img := v.(*exportImage); img.matches(syms, frames) {
			return img
		}
	}
	names := make([]string, 0, len(syms)+len(frames))
	for n := range syms {
		names = append(names, n)
	}
	for n := range frames {
		if _, dup := syms[n]; !dup {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	img := &exportImage{names: names, index: make(map[string]int, len(names)), ids: make([]callconv.FuncID, len(names))}
	for i, n := range names {
		// Interning every export keeps FuncIDs independent of call order, so
		// the per-library resolution caches stay dense.
		img.index[n], img.ids[i] = i, callconv.Intern(n)
	}
	exportImages.Store(name, img)
	return img
}

// matches reports whether syms and frames export exactly img's names.
func (img *exportImage) matches(syms map[string]Fn, frames map[string]callconv.FrameFn) bool {
	n := len(frames)
	for s := range syms {
		if _, dup := frames[s]; !dup {
			n++
		}
	}
	if n != len(img.names) {
		return false
	}
	for _, s := range img.names {
		if _, ok := frames[s]; !ok {
			if _, ok := syms[s]; !ok {
				return false
			}
		}
	}
	return true
}

// symbol returns the library's own export named name.
func (lib *loadedLib) symbol(name string) (Symbol, bool) {
	i, ok := lib.exports.index[name]
	if !ok {
		return Symbol{}, false
	}
	return lib.symbols[i], true
}

type namespace struct {
	id   int
	libs map[string]*loadedLib
}

// Handle identifies one loaded library within one namespace, as returned by
// Dlopen and Dlforce.
type Handle struct {
	lib *loadedLib
}

// Lib returns the library name the handle refers to.
func (h *Handle) Lib() string { return h.lib.bp.Name }

// NamespaceID returns the namespace the handle resolves in (0 = global).
func (h *Handle) NamespaceID() int { return h.lib.ns.id }

// Instance returns the loaded instance behind the handle.
func (h *Handle) Instance() Instance { return h.lib.inst }

// BaseAddr returns the simulated base address of this library image.
func (h *Handle) BaseAddr() uint64 { return h.lib.mapping.Base }

// Linker is a per-process dynamic linker.
type Linker struct {
	proc *kernel.Process

	mu       sync.Mutex
	registry map[string]*Blueprint
	global   *namespace
	replicas map[int]*namespace // live replica namespaces, by id (introspection)
	nextNS   int
	ctorRuns map[string]int // per-blueprint constructor count (tests, §8.1)
}

// Proc returns the process this linker links for.
func (l *Linker) Proc() *kernel.Process { return l.proc }

// New creates a linker for a process.
func New(proc *kernel.Process) *Linker {
	return &Linker{
		proc:     proc,
		registry: make(map[string]*Blueprint),
		global:   &namespace{id: 0, libs: make(map[string]*loadedLib)},
		replicas: make(map[int]*namespace),
		ctorRuns: make(map[string]int),
	}
}

// Register makes a blueprint loadable. Registering two blueprints with the
// same name is an error.
func (l *Linker) Register(bp *Blueprint) error {
	if bp.Name == "" || bp.New == nil {
		return fmt.Errorf("linker: blueprint needs a name and a constructor")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.registry[bp.Name]; dup {
		return fmt.Errorf("linker: blueprint %q already registered", bp.Name)
	}
	l.registry[bp.Name] = bp
	return nil
}

// MustRegister is Register for system assembly code where a failure is a bug.
func (l *Linker) MustRegister(bp *Blueprint) {
	if err := l.Register(bp); err != nil {
		panic(err)
	}
}

// Registered reports whether a blueprint with the given name exists.
func (l *Linker) Registered(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.registry[name]
	return ok
}

// ConstructorRuns reports how many times a blueprint's constructor has run;
// Dlforce must increment this once per replica (paper §8.1).
func (l *Linker) ConstructorRuns(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ctorRuns[name]
}

// Dlopen loads a library (and its dependencies) into the global namespace,
// returning the existing instance if it is already loaded — the standard
// linker behaviour Dlforce bypasses.
func (l *Linker) Dlopen(t *kernel.Thread, name string) (*Handle, error) {
	var sp obs.Span
	if t.TraceEnabled() {
		sp = t.TraceBegin(obs.CatDLR, "dlopen:"+name)
	}
	defer t.TraceEnd(sp)
	if inj := t.Faults(); inj != nil {
		if err := inj.Fail(fault.PointDlopen); err != nil {
			return nil, fmt.Errorf("dlopen %q: %w", name, err)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	lib, err := l.loadLocked(t, name, l.global, false, make(map[string]bool))
	if err != nil {
		return nil, fmt.Errorf("dlopen %q: %w", name, err)
	}
	lib.refs++
	return &Handle{lib: lib}, nil
}

// Dlforce opens a library and all its (non-shared) dependencies "as if they
// were never loaded before", in a fresh namespace with fresh constructor runs
// and unique addresses. This is the DLR mechanism of §8.1.
func (l *Linker) Dlforce(t *kernel.Thread, name string) (*Handle, error) {
	var sp obs.Span
	if t.TraceEnabled() {
		sp = t.TraceBegin(obs.CatDLR, "dlforce:"+name)
	}
	defer t.TraceEnd(sp)
	if inj := t.Faults(); inj != nil {
		if err := inj.Fail(fault.PointDlforce); err != nil {
			return nil, fmt.Errorf("dlforce %q: %w", name, err)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextNS++
	ns := &namespace{id: l.nextNS, libs: make(map[string]*loadedLib)}
	lib, err := l.loadLocked(t, name, ns, true, make(map[string]bool))
	if err != nil {
		return nil, fmt.Errorf("dlforce %q: %w", name, err)
	}
	lib.refs++
	// A shared library lands in the global namespace and leaves the fresh
	// one empty and unregistered; its ID is spent either way.
	if lib.ns == ns {
		l.replicas[ns.id] = ns
	}
	return &Handle{lib: lib}, nil
}

// loadLocked loads name into ns. replica selects DLR semantics. visiting
// detects dependency cycles.
func (l *Linker) loadLocked(t *kernel.Thread, name string, ns *namespace, replica bool, visiting map[string]bool) (*loadedLib, error) {
	bp, ok := l.registry[name]
	if !ok {
		return nil, fmt.Errorf("no such library")
	}
	// Shared libraries (libc) always resolve from the global namespace.
	if bp.Shared && ns != l.global {
		return l.loadLocked(t, name, l.global, false, visiting)
	}
	if lib, loaded := ns.libs[name]; loaded {
		return lib, nil
	}
	if visiting[name] {
		return nil, fmt.Errorf("dependency cycle through %q", name)
	}
	visiting[name] = true
	defer delete(visiting, name)

	deps := make(map[string]*loadedLib, len(bp.Deps))
	for _, dep := range bp.Deps {
		dl, err := l.loadLocked(t, dep, ns, replica, visiting)
		if err != nil {
			return nil, fmt.Errorf("dependency %q: %w", dep, err)
		}
		deps[dep] = dl
	}

	size := bp.Size
	if size == 0 {
		size = 64 << 10
	}
	mapName := fmt.Sprintf("lib:%s#%d", bp.Name, ns.id)
	mapping, err := l.proc.Mem().Map(size, mem.ProtRead|mem.ProtExec, mapName)
	if err != nil {
		return nil, fmt.Errorf("mapping image: %w", err)
	}

	costs := t.Costs()
	if replica {
		t.ChargeCPU(costs.DlforcePerLib)
	} else {
		t.ChargeCPU(costs.DlopenBase)
	}

	lib := &loadedLib{bp: bp, ns: ns, mapping: mapping}
	ns.libs[name] = lib // registered before ctor so self-referential dlsym works

	ctx := &LoadContext{linker: l, ns: ns, thread: t, deps: deps}
	// Per-replica constructor runs get their own child span: Dlforce traces
	// show exactly which constructors re-ran for each replica (§8.1).
	var ctorSp obs.Span
	if t.TraceEnabled() {
		ctorSp = t.TraceBegin(obs.CatDLR, "ctor:"+bp.Name)
	}
	t.ChargeCPU(costs.LibConstructor)
	l.ctorRuns[name]++
	inst, err := bp.New(ctx)
	t.TraceEnd(ctorSp)
	if err != nil {
		delete(ns.libs, name)
		l.proc.Mem().Unmap(mapping)
		return nil, fmt.Errorf("constructor: %w", err)
	}
	lib.inst = inst

	// Assign each exported symbol a deterministic, unique address inside the
	// replica's image: base + 16*index over the sorted symbol names.
	var syms map[string]Fn
	if bi, ok := inst.(BoxedInstance); ok {
		syms = bi.Symbols()
	}
	var frames map[string]callconv.FrameFn
	if fi, ok := inst.(FrameInstance); ok {
		frames = fi.FrameSymbols()
	}
	lib.exports = exportsOf(bp.Name, syms, frames)
	lib.symbols = make([]Symbol, len(lib.exports.names))
	for i, n := range lib.exports.names {
		s := Symbol{Name: n, Addr: mapping.Base + uint64(16*(i+1)), id: lib.exports.ids[i]}
		if fn, ok := frames[n]; ok {
			s.Frame = fn
		} else {
			s.Fn = syms[n]
		}
		lib.symbols[i] = s
	}
	return lib, nil
}

// ErrNoSymbol is wrapped by Dlsym failures.
var ErrNoSymbol = fmt.Errorf("linker: symbol not found")

// Dlsym resolves a symbol against a handle: first in the handle's library,
// then in the other libraries of the same namespace (paper: dlsym "search[es]
// only those libraries loaded from the given dlforce handle").
func (l *Linker) Dlsym(h *Handle, sym string) (Symbol, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dlsymLocked(h, sym)
}

func (l *Linker) dlsymLocked(h *Handle, sym string) (Symbol, error) {
	if h.lib.closed {
		return Symbol{}, fmt.Errorf("dlsym %q in closed %s (ns %d): %w", sym, h.lib.bp.Name, h.lib.ns.id, ErrNoSymbol)
	}
	if s, ok := h.lib.symbol(sym); ok {
		return s, nil
	}
	// Deterministic search order over namespace peers.
	names := make([]string, 0, len(h.lib.ns.libs))
	for n := range h.lib.ns.libs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if s, ok := h.lib.ns.libs[n].symbol(sym); ok {
			return s, nil
		}
	}
	// Shared (global) libraries are visible from every namespace.
	if h.lib.ns != l.global {
		for _, n := range sortedKeys(l.global.libs) {
			lib := l.global.libs[n]
			if !lib.bp.Shared {
				continue
			}
			if s, ok := lib.symbol(sym); ok {
				return s, nil
			}
		}
	}
	return Symbol{}, fmt.Errorf("dlsym %q in %s (ns %d): %w", sym, h.lib.bp.Name, h.lib.ns.id, ErrNoSymbol)
}

// DlsymID resolves an interned function against a handle with the same
// search semantics as Dlsym, but keyed by FuncID and served from a lock-free
// per-library cache: the hot path is an atomic load and a bounds check. A
// miss resolves through Dlsym and publishes that one entry under the
// linker's lock, so Dlclose, which empties the caches of the libraries it
// tears down, never races a late entry in.
func (l *Linker) DlsymID(h *Handle, id callconv.FuncID) (Symbol, error) {
	lib := h.lib
	lib.resolveOnce.Do(func() { lib.resolved = make([]atomic.Pointer[Symbol], callconv.Count()) })
	if int(id) < len(lib.resolved) {
		if s := lib.resolved[id].Load(); s != nil {
			return *s, nil
		}
	}
	name := callconv.Name(id)
	if name == "" {
		return Symbol{}, fmt.Errorf("dlsym id %d in %s: unknown function id: %w", id, lib.bp.Name, ErrNoSymbol)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s, err := l.dlsymLocked(h, name)
	if err == nil && int(id) < len(lib.resolved) {
		lib.resolved[id].Store(&s)
	}
	return s, err
}

// MustSym is Dlsym for assembly code where absence is a bug.
func (l *Linker) MustSym(h *Handle, sym string) Symbol {
	s, err := l.Dlsym(h, sym)
	if err != nil {
		panic(err)
	}
	return s
}

// Dlclose drops a reference. When the last reference to a replica-namespace
// library goes away its image is unmapped and its finalizer runs; global
// instances stay resident like a real linker keeps RTLD_NODELETE libraries.
func (l *Linker) Dlclose(h *Handle) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	lib := h.lib
	if lib.refs == 0 {
		return fmt.Errorf("dlclose %q: not open", lib.bp.Name)
	}
	lib.refs--
	if lib.refs > 0 || lib.ns == l.global {
		return nil
	}
	// Tear down the whole replica namespace once its root is closed. A
	// handle kept past this resolves nothing: not through Dlsym, and not
	// through a DlsymID entry cached before.
	for name, peer := range lib.ns.libs {
		if fin, ok := peer.inst.(Finalizer); ok {
			fin.Finalize()
		}
		l.proc.Mem().Unmap(peer.mapping)
		delete(lib.ns.libs, name)
		peer.closed = true
		peer.resolveOnce.Do(func() {})
		for i := range peer.resolved {
			peer.resolved[i].Store(nil)
		}
	}
	delete(l.replicas, lib.ns.id)
	return nil
}

// NamespaceInfo describes one live library namespace (introspection).
type NamespaceInfo struct {
	ID   int      // 0 = global
	Libs []string // sorted library names loaded in the namespace
}

// Namespaces reports the global namespace plus every live replica namespace
// and what is loaded in each — the DLR state an introspection snapshot shows.
func (l *Linker) Namespaces() []NamespaceInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := []NamespaceInfo{{ID: 0, Libs: sortedKeys(l.global.libs)}}
	ids := make([]int, 0, len(l.replicas))
	for id := range l.replicas {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		out = append(out, NamespaceInfo{ID: id, Libs: sortedKeys(l.replicas[id].libs)})
	}
	return out
}

// InstanceIn returns the loaded instance of a named library within the
// namespace of h, if present. The EGL_multi_context extension uses it to
// reach the vendor libraries inside a replica it just dlforce'd.
func (l *Linker) InstanceIn(h *Handle, name string) (Instance, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lib, ok := h.lib.ns.libs[name]; ok {
		return lib.inst, true
	}
	return nil, false
}

// LoadedIn reports the libraries currently loaded in the namespace of h.
func (l *Linker) LoadedIn(h *Handle) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sortedKeys(h.lib.ns.libs)
}

func sortedKeys(m map[string]*loadedLib) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
