package linker

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cycada/internal/core/callconv"
	"cycada/internal/sim/kernel"
)

// dlrInst is one loaded copy of a model library. Every symbol it exports
// returns its serial, the order in which constructors ran, so a resolution
// names the instance that answered it. Odd serials of libvendor.so also
// export "extra", so loads of one library disagree on their export set.
type dlrInst struct {
	lib    string
	serial int
}

func (d *dlrInst) Symbols() map[string]Fn {
	me := func(*kernel.Thread, ...any) any { return d.serial }
	syms := map[string]Fn{"common": me, "whoami": me, "only_" + d.lib: me}
	if d.exportsExtra() {
		syms["extra"] = me
	}
	return syms
}

func (d *dlrInst) exportsExtra() bool { return d.lib == "libvendor.so" && d.serial%2 == 1 }

// dlrBlueprints is the model's library graph: libc is shared; the vendor
// library pulls in libnvrm and libc; libapp stands alone.
var dlrBlueprints = []struct {
	name   string
	deps   []string
	shared bool
}{
	{"libc.so", nil, true},
	{"libnvrm.so", []string{"libc.so"}, false},
	{"libvendor.so", []string{"libnvrm.so", "libc.so"}, false},
	{"libapp.so", nil, false},
}

// dlrModel is the map model of DLR: namespaces of library name -> serial,
// handle reference counts, and constructor runs per library.
type dlrModel struct {
	serial  int
	nextNS  int
	ns      map[int]map[string]int // live namespaces; 0 is the global one
	refs    map[[2]string]int      // {ns, lib} of a handle -> references
	ctorRun map[string]int
}

func (m *dlrModel) load(name string, ns int) {
	for _, bp := range dlrBlueprints {
		if bp.name != name {
			continue
		}
		if bp.shared && ns != 0 {
			m.load(name, 0)
			return
		}
		if _, ok := m.ns[ns][name]; ok {
			return
		}
		for _, dep := range bp.deps {
			m.load(dep, ns)
		}
		m.serial++
		m.ns[ns][name] = m.serial
		m.ctorRun[name]++
	}
}

// resolve is Dlsym's search: the handle's library, its namespace's other
// libraries in name order, then (from a replica) the shared globals.
func (m *dlrModel) resolve(ns int, lib, sym string) (string, int, bool) {
	exports := func(lib string, serial int) bool {
		inst := dlrInst{lib: lib, serial: serial}
		_, ok := inst.Symbols()[sym]
		return ok
	}
	if s := m.ns[ns][lib]; exports(lib, s) {
		return lib, s, true
	}
	for _, peer := range sortedNames(m.ns[ns]) {
		if exports(peer, m.ns[ns][peer]) {
			return peer, m.ns[ns][peer], true
		}
	}
	if ns != 0 {
		if s, ok := m.ns[0]["libc.so"]; ok && exports("libc.so", s) {
			return "libc.so", s, true
		}
	}
	return "", 0, false
}

func sortedNames(libs map[string]int) []string {
	out := make([]string, 0, len(libs))
	for n := range libs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestDLRMatchesModel drives Dlopen, Dlforce, Dlsym, DlsymID and Dlclose in
// seeded random order against the map model. After every operation the
// live library images are pairwise disjoint and are exactly the model's,
// every library's constructor has run once per copy, and every lookup —
// through Dlsym, a first DlsymID and a cached one — returns the model's
// instance at an address inside that instance's own image, or fails when
// the model has no such symbol or the handle's library was closed.
func TestDLRMatchesModel(t *testing.T) {
	syms := []string{"common", "whoami", "extra", "only_libc.so", "only_libnvrm.so", "only_libvendor.so", "only_libapp.so", "absent"}
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			th, l := testEnv(t)
			serial := 0
			for _, bp := range dlrBlueprints {
				l.MustRegister(&Blueprint{Name: bp.name, Deps: bp.deps, Shared: bp.shared,
					New: func(ctx *LoadContext) (Instance, error) {
						serial++
						return &dlrInst{lib: bp.name, serial: serial}, nil
					}})
			}
			m := &dlrModel{ns: map[int]map[string]int{0: {}}, refs: map[[2]string]int{}, ctorRun: map[string]int{}}
			type handle struct {
				h   *Handle
				ns  int
				lib string
			}
			var hs []handle
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 200; step++ {
				name := dlrBlueprints[rng.Intn(len(dlrBlueprints))].name
				var what string
				switch op := rng.Intn(10); {
				case op < 2: // dlopen
					what = "dlopen " + name
					h, err := l.Dlopen(th, name)
					if err != nil {
						t.Fatalf("step %d: %s: %v", step, what, err)
					}
					m.load(name, 0)
					m.refs[[2]string{"0", name}]++
					hs = append(hs, handle{h, 0, name})
				case op < 4: // dlforce
					what = "dlforce " + name
					h, err := l.Dlforce(th, name)
					if err != nil {
						t.Fatalf("step %d: %s: %v", step, what, err)
					}
					m.nextNS++
					ns := m.nextNS
					if name == "libc.so" { // shared: the global copy
						ns = 0
					} else {
						m.ns[ns] = map[string]int{}
					}
					m.load(name, ns)
					m.refs[[2]string{fmt.Sprint(ns), name}]++
					hs = append(hs, handle{h, ns, name})
					if h.NamespaceID() != ns {
						t.Fatalf("step %d: %s: namespace %d, want %d", step, what, h.NamespaceID(), ns)
					}
				case op < 5 && len(hs) > 0: // dlclose
					hd := hs[rng.Intn(len(hs))]
					what = fmt.Sprintf("dlclose %s (ns %d)", hd.lib, hd.ns)
					key := [2]string{fmt.Sprint(hd.ns), hd.lib}
					_, live := m.ns[hd.ns]
					err := l.Dlclose(hd.h)
					if !live || m.refs[key] == 0 {
						if err == nil {
							t.Fatalf("step %d: %s succeeded on a closed handle", step, what)
						}
						break
					}
					if err != nil {
						t.Fatalf("step %d: %s: %v", step, what, err)
					}
					if m.refs[key]--; m.refs[key] == 0 && hd.ns != 0 {
						delete(m.ns, hd.ns)
					}
				case len(hs) > 0: // dlsym, dlsym_id twice
					hd := hs[rng.Intn(len(hs))]
					sym := syms[rng.Intn(len(syms))]
					what = fmt.Sprintf("dlsym %s in %s (ns %d)", sym, hd.lib, hd.ns)
					lib, want, ok := "", 0, false
					if _, live := m.ns[hd.ns]; live {
						lib, want, ok = m.resolve(hd.ns, hd.lib, sym)
					}
					byName, err := l.Dlsym(hd.h, sym)
					results := []Symbol{byName}
					errs := []error{err}
					for i := 0; i < 2; i++ {
						s, err := l.DlsymID(hd.h, callconv.Intern(sym))
						results, errs = append(results, s), append(errs, err)
					}
					for i, s := range results {
						if !ok {
							if !errors.Is(errs[i], ErrNoSymbol) {
								t.Fatalf("step %d: %s (lookup %d) = %+v, %v; want ErrNoSymbol", step, what, i, s, errs[i])
							}
							continue
						}
						if errs[i] != nil {
							t.Fatalf("step %d: %s (lookup %d): %v", step, what, i, errs[i])
						}
						ns := hd.ns
						if lib == "libc.so" {
							ns = 0
						}
						mp, mapped := th.Process().Mem().Resolve(s.Addr)
						if wantMap := fmt.Sprintf("lib:%s#%d", lib, ns); !mapped || mp.Name != wantMap {
							t.Fatalf("step %d: %s (lookup %d) at %#x, outside %s", step, what, i, s.Addr, wantMap)
						}
						if got := s.Call(th); got != want {
							t.Fatalf("step %d: %s (lookup %d) answered by copy %v, want %d", step, what, i, got, want)
						}
					}
				default:
					continue
				}

				var live []string
				for ns, libs := range m.ns {
					for lib := range libs {
						live = append(live, fmt.Sprintf("lib:%s#%d", lib, ns))
					}
				}
				sort.Strings(live)
				var mapped []string
				var end uint64
				for _, mp := range th.Process().Mem().Mappings() {
					if !strings.HasPrefix(mp.Name, "lib:") {
						continue
					}
					if mp.Base < end {
						t.Fatalf("step %d: %s: image %s overlaps the one before it", step, what, mp.Name)
					}
					end = mp.End()
					mapped = append(mapped, mp.Name)
				}
				sort.Strings(mapped)
				if fmt.Sprint(mapped) != fmt.Sprint(live) {
					t.Fatalf("step %d: %s: images %v, want %v", step, what, mapped, live)
				}
				for _, bp := range dlrBlueprints {
					if got := l.ConstructorRuns(bp.name); got != m.ctorRun[bp.name] {
						t.Fatalf("step %d: %s: %s constructed %d times, want %d", step, what, bp.name, got, m.ctorRun[bp.name])
					}
				}
			}
		})
	}
}
