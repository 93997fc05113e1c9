// Batched-replay tests: the command encoder must be invisible in the logical
// call stream — every golden trace verifies byte-identically at every batch
// cap — while collapsing persona-boundary crossings.
package replay_test

import (
	"path/filepath"
	"testing"

	"cycada/internal/replay"
)

var batchCaps = []int{1, 16, 64, 256}

// TestBatchedReplayByteIdentity replays every golden trace with batching on
// at each cap and requires the full differential check (per-present checksums
// and the final frame) to pass, exactly as the serial path does.
func TestBatchedReplayByteIdentity(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.cytr"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("golden traces: %v (%d found)", err, len(goldens))
	}
	for _, path := range goldens {
		tr, err := replay.ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", path, err)
		}
		for _, cap := range batchCaps {
			res, err := replay.Play(tr, replay.Options{Verify: true, BatchCap: cap})
			if err != nil {
				t.Errorf("%s cap=%d: %v", filepath.Base(path), cap, err)
				continue
			}
			if verr := res.VerifyError(); verr != nil || !res.FinalChecked {
				t.Errorf("%s cap=%d: not byte-identical (final checked=%v): %v",
					filepath.Base(path), cap, res.FinalChecked, verr)
			}
			if res.BatchedCalls == 0 {
				t.Errorf("%s cap=%d: batch path never exercised", filepath.Base(path), cap)
			}
		}
	}
}

// TestBatchedReplayCrossingsReduction is the tentpole perf gate in test form:
// at cap 64 the persona-boundary crossing count must drop at least 5x on the
// draw-call-heavy golden (passmark-3d). The surface-upload goldens have short
// batchable runs by construction — observing calls and IOSurface events force
// flushes — so for them batching only has to never cost a crossing. The exact
// count of every golden at every cap is pinned too, so that a change to when
// the encoder flushes (its triggers, a byte cap, the order of a flush and a
// thread switch) cannot move one unnoticed.
func TestBatchedReplayCrossingsReduction(t *testing.T) {
	pinned := map[string][]uint64{ // crossings at batchCaps
		"passmark-2d":  {92, 52, 52, 52},
		"passmark-3d":  {597, 72, 46, 40},
		"webkit-tiles": {21, 20, 20, 20},
	}
	for _, name := range []string{"passmark-2d", "passmark-3d", "webkit-tiles"} {
		tr := readGolden(t, name)
		serial, err := replay.Play(tr, replay.Options{})
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		batched, err := replay.Play(tr, replay.Options{BatchCap: 64})
		if err != nil {
			t.Fatalf("%s batched: %v", name, err)
		}
		if serial.Crossings == 0 || batched.Crossings == 0 {
			t.Fatalf("%s: zero crossings (serial %d, batched %d)", name, serial.Crossings, batched.Crossings)
		}
		if batched.Crossings > serial.Crossings {
			t.Errorf("%s: batching raised crossings %d -> %d", name, serial.Crossings, batched.Crossings)
		}
		if name == "passmark-3d" && batched.Crossings*5 > serial.Crossings {
			t.Errorf("%s: crossings %d -> %d at cap 64; want >=5x reduction",
				name, serial.Crossings, batched.Crossings)
		}
		t.Logf("%s: crossings %d -> %d (%.1fx), %d/%d calls batched",
			name, serial.Crossings, batched.Crossings,
			float64(serial.Crossings)/float64(batched.Crossings),
			batched.BatchedCalls, serial.Crossings)
		for i, cap := range batchCaps {
			res, err := replay.Play(tr, replay.Options{BatchCap: cap})
			if err != nil {
				t.Fatalf("%s cap=%d: %v", name, cap, err)
			}
			if want := pinned[name][i]; res.Crossings != want {
				t.Errorf("%s cap=%d: %d crossings, want %d", name, cap, res.Crossings, want)
			}
		}
	}
}

// Serial and batched replays of the same trace must agree on the batched-path
// accounting invariant: with batching off, nothing reports as batched.
func TestSerialReplayReportsNoBatching(t *testing.T) {
	tr := readGolden(t, "passmark-2d")
	res, err := replay.Play(tr, replay.Options{Verify: true})
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	if res.BatchedCalls != 0 {
		t.Fatalf("serial replay reported %d batched calls", res.BatchedCalls)
	}
	if verr := res.VerifyError(); verr != nil {
		t.Fatalf("serial verify: %v", verr)
	}
}
