// Package callconv defines the cross-layer calling convention used on the
// graphics hot path: interned function IDs and pooled typed call frames.
//
// Every GLES call crosses four layers — glesapi facade → linker.Symbol →
// diplomat → engine. Before this package each layer re-boxed arguments into a
// fresh []any and resolved the callee through a mutex-guarded map[string]
// lookup. The paper's measurements (§3, Table 3) require the diplomat hot
// path to cost barely more than a native call, so the convention here
// replaces both:
//
//   - FuncID: every function name is interned once into a process-global
//     table; hot paths carry the small integer and index flat slices instead
//     of hashing strings. The table is a copy-on-write atomic snapshot, so
//     readers never take a lock.
//   - Frame: a pooled struct with fixed typed slots (ints, uint32s, float32s,
//     one []byte, one []float32, one string, one opaque handle). Callers push
//     arguments into typed slots — no interface boxing — and the boxed []any
//     view is materialized lazily, only when an observer (replay tap, trace
//     span, diplomat wrapper) actually needs it.
package callconv

import (
	"sync"
	"sync/atomic"
)

// FuncID identifies an interned function name. The zero value is reserved
// and never assigned, so it can be used as an "unresolved" sentinel.
type FuncID uint32

// NoFunc is the invalid FuncID sentinel.
const NoFunc FuncID = 0

// internTable is an immutable snapshot of the intern state. Writers build a
// new table and swap the pointer; readers do one atomic load.
type internTable struct {
	byName map[string]FuncID
	names  []string // index = FuncID; names[0] is the reserved empty slot
}

var (
	internMu sync.Mutex
	interned atomic.Pointer[internTable]
)

func init() {
	interned.Store(&internTable{
		byName: map[string]FuncID{},
		names:  []string{""},
	})
}

// Intern returns the FuncID for name, assigning a fresh one on first use.
// IDs are dense and stable for the life of the process, which is what lets
// every layer cache resolutions in flat slices indexed by FuncID.
func Intern(name string) FuncID {
	if id, ok := LookupID(name); ok {
		return id
	}
	internMu.Lock()
	defer internMu.Unlock()
	tab := interned.Load()
	if id, ok := tab.byName[name]; ok {
		return id
	}
	next := &internTable{
		byName: make(map[string]FuncID, len(tab.byName)+1),
		names:  make([]string, len(tab.names), len(tab.names)+1),
	}
	for k, v := range tab.byName {
		next.byName[k] = v
	}
	copy(next.names, tab.names)
	id := FuncID(len(next.names))
	next.names = append(next.names, name)
	next.byName[name] = id
	interned.Store(next)
	return id
}

// LookupID returns the FuncID for name if it has been interned. It is a
// single atomic load plus one map read — no lock.
func LookupID(name string) (FuncID, bool) {
	id, ok := interned.Load().byName[name]
	return id, ok
}

// Name returns the interned name for id, or "" for NoFunc and unknown IDs.
func Name(id FuncID) string {
	tab := interned.Load()
	if int(id) >= len(tab.names) {
		return ""
	}
	return tab.names[id]
}

// Count returns the number of interned names plus the reserved zero slot —
// i.e. the smallest slice length that can be indexed by every assigned
// FuncID.
func Count() int {
	return len(interned.Load().names)
}
