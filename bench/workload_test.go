package main

import (
	"testing"
	"time"
)

// TestFarmRunnerReplacesFarmAndRetries runs the farm-mix loop on a farm
// that has served its sessions, from a session that carries an injected
// panic: the farm must be replaced, every session must verify and match its
// warm-up, each injected panic must cost exactly one retry, and the kernel
// totals must keep growing across the replaced farm.
func TestFarmRunnerReplacesFarmAndRetries(t *testing.T) {
	w, err := findWorkload("farm-mix")
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := setup("..", w, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	fr := r.(*farmRunner)
	old := fr.f
	fr.next.Store(uint64(stackSessions * old.Devices())) // a faulted index
	vt0, sc0 := r.kernelTotals()
	sessions := r.run(time.Second)
	vt1, sc1 := r.kernelTotals()
	if fr.f == old {
		t.Error("the farm was not replaced")
	}
	retries, faults := 0, 0
	for _, s := range sessions {
		if s.err != nil {
			t.Errorf("%s: %v", s.trace, s.err)
		}
		retries += s.attempts - 1
		if s.faulted {
			faults++
		}
	}
	if faults == 0 || retries != faults {
		t.Errorf("%d retries for %d injected panics", retries, faults)
	}
	if vt1 <= vt0 || sc1 <= sc0 {
		t.Errorf("kernel totals went from %v/%d to %v/%d", vt0, sc0, vt1, sc1)
	}
}

// TestStackRunnerReplacesStack checks that a replaced stack keeps sessions
// identical and the kernel totals cumulative.
func TestStackRunnerReplacesStack(t *testing.T) {
	w, err := findWorkload("replay-tiles")
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := setup("..", w, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	sr := r.(*stackRunner)
	old := sr.sys
	vt0, sc0 := r.kernelTotals()
	sr.served = stackSessions
	s := sr.one()
	if s.err != nil {
		t.Fatalf("session on the replacement stack: %v", s.err)
	}
	if sr.sys == old {
		t.Fatal("the stack was not replaced")
	}
	vt1, sc1 := r.kernelTotals()
	if int64(vt1-vt0) != s.fp.VTNS || sc1-sc0 != s.fp.Syscalls {
		t.Errorf("kernel totals moved by %v/%d across the replacement, the session cost %d/%d",
			vt1-vt0, sc1-sc0, s.fp.VTNS, s.fp.Syscalls)
	}
}
