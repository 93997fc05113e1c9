package main

import (
	"testing"

	"cycada/internal/obs"
)

// TestVirtualTimePinned pins what one verified session of each golden trace
// costs on the calibrated virtual clock, to the nanosecond, with its counts.
// The virtual clock is what reproduces the paper, so a change that moves any
// of these numbers changes the reproduction and must update them knowingly.
// Each trace is replayed untraced and traced: tracing must not perturb it.
func TestVirtualTimePinned(t *testing.T) {
	pinned := map[string]fingerprint{
		"replay-2d": {VTNS: 11725896, Syscalls: 252, Crossings: 92, Presents: 4,
			PresentVTNS: 3456272, ComposeVTNS: 20000, BlitVTNS: 3096880},
		"replay-3d": {VTNS: 14047931, Syscalls: 1262, Crossings: 597, Presents: 4,
			PresentVTNS: 2325800, ComposeVTNS: 20000, BlitVTNS: 1548440},
		"replay-tiles": {VTNS: 4245882, Syscalls: 147, Crossings: 21, Presents: 1,
			PresentVTNS: 1287495, ComposeVTNS: 5000, BlitVTNS: 1363320},
	}
	for _, w := range workloads[:3] {
		t.Run(w.name, func(t *testing.T) {
			tracer := obs.New()
			tracer.SetEventCap(traceEventCap)
			r, _, err := setup("..", w, 1, tracer)
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			sr := r.(*stackRunner)
			if sr.ref != pinned[w.name] {
				t.Errorf("untraced session = %+v, want %+v", sr.ref, pinned[w.name])
			}
			tracer.SetEnabled(true)
			s := sr.one()
			if s.err != nil {
				t.Fatal(s.err)
			}
			if s.fp != pinned[w.name] {
				t.Errorf("traced session = %+v, want %+v", s.fp, pinned[w.name])
			}
		})
	}
}

func TestFarmMixIsSeededAndProportioned(t *testing.T) {
	const n = 400
	a, b := farmMix{seed: 7}, farmMix{seed: 8}
	counts := map[string]int{}
	faults, differ := 0, 0
	for i := uint64(0); i < n; i++ {
		label, faulted := a.session(i)
		again, againFaulted := a.session(i)
		if label != again || faulted != againFaulted {
			t.Fatalf("session %d is not a function of (seed, index)", i)
		}
		if other, _ := b.session(i); other != label {
			differ++
		}
		counts[label]++
		if faulted {
			faults++
		}
	}
	if counts["passmark-2d"] != n/4 || counts["passmark-3d"] != n/4 || counts["webkit-tiles"] != n/2 {
		t.Errorf("mix = %v, want 1:1:2", counts)
	}
	if faults != n/20 {
		t.Errorf("%d faulted sessions of %d, want 1 in 20", faults, n)
	}
	if differ == 0 {
		t.Error("the seed does not change the session order")
	}
}
