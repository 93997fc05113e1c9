// Integration tests: record a scenario, replay it against a fresh Android
// stack, and check the differential frame verification end to end; plus the
// golden-trace regression gate and the replayer's import-isolation invariant.
// External test package because harness (which records scenarios) imports
// replay.
package replay_test

import (
	"bytes"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cycada/internal/core/callconv"
	"cycada/internal/harness"
	"cycada/internal/replay"
)

func TestRecordReplayVerify(t *testing.T) {
	for _, name := range []string{"webkit-tiles", "passmark-2d"} {
		t.Run(name, func(t *testing.T) {
			tr, err := harness.RecordScenario(name)
			if err != nil {
				t.Fatalf("RecordScenario: %v", err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if tr.Presents() == 0 {
				t.Fatalf("recorded no presents")
			}
			if tr.Final == nil {
				t.Fatalf("recorded no final frame")
			}
			res, err := replay.Verify(tr)
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if !res.VerifyOK() {
				t.Fatalf("VerifyOK = false: %+v", res)
			}
			if res.Presents != tr.Presents() {
				t.Fatalf("replayed %d presents, recorded %d", res.Presents, tr.Presents())
			}

			st := replay.Stat(tr)
			if st.Events != len(tr.Events) || st.Presents != tr.Presents() {
				t.Fatalf("Stat disagrees with trace: %+v", st)
			}
			var buf bytes.Buffer
			st.Write(&buf, 5)
			if buf.Len() == 0 {
				t.Fatalf("Stats.Write produced no output")
			}
		})
	}
}

// Recording is deterministic: the same scenario on a fresh boot must produce
// byte-identical traces (the property that makes golden traces stable).
func TestRecordingDeterministic(t *testing.T) {
	a, err := harness.RecordScenario("webkit-tiles")
	if err != nil {
		t.Fatalf("first RecordScenario: %v", err)
	}
	b, err := harness.RecordScenario("webkit-tiles")
	if err != nil {
		t.Fatalf("second RecordScenario: %v", err)
	}
	ea, err := replay.Encode(a)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	eb, err := replay.Encode(b)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("two recordings of the same scenario differ (%d vs %d bytes)", len(ea), len(eb))
	}
}

// The differential check must actually detect drift: a tampered present
// checksum or final frame fails verification.
func TestTamperingDetected(t *testing.T) {
	tr, err := harness.RecordScenario("webkit-tiles")
	if err != nil {
		t.Fatalf("RecordScenario: %v", err)
	}

	t.Run("present checksum", func(t *testing.T) {
		tampered := *tr
		tampered.Events = append([]replay.Event(nil), tr.Events...)
		found := false
		for i := range tampered.Events {
			if tampered.Events[i].HasSum {
				tampered.Events[i].Sum ^= 0xdeadbeef
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no present event to tamper with")
		}
		res, err := replay.Verify(&tampered)
		if err == nil {
			t.Fatalf("Verify of tampered checksum: err = nil, want divergence")
		}
		if res == nil || len(res.Mismatches) == 0 {
			t.Fatalf("expected a recorded mismatch, got %+v", res)
		}
	})

	t.Run("final frame", func(t *testing.T) {
		tampered := *tr
		tampered.Final = tr.Final.Clone()
		tampered.Final.Pix[0] ^= 0xff
		res, err := replay.Verify(&tampered)
		if err == nil {
			t.Fatalf("Verify of tampered final frame: err = nil, want divergence")
		}
		if res == nil || !res.FinalChecked || res.FinalOK {
			t.Fatalf("expected final-frame check failure, got %+v", res)
		}
	})
}

// TestGoldenTraces is the tier-1 regression gate: every checked-in golden
// trace must replay to byte-identical frames. A failure here means the
// bridge, engine, or rasterizer changed observable behavior.
func TestGoldenTraces(t *testing.T) {
	goldens, err := filepath.Glob("testdata/*.cytr")
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(goldens) == 0 {
		t.Fatalf("no golden traces in testdata/ — regenerate with: go run ./cmd/cycadareplay record")
	}
	for _, path := range goldens {
		t.Run(filepath.Base(path), func(t *testing.T) {
			tr, err := replay.ReadFile(path)
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			res, err := replay.Verify(tr)
			if err != nil {
				t.Fatalf("golden trace diverged: %v", err)
			}
			if !res.VerifyOK() || !res.FinalChecked {
				t.Fatalf("golden trace incompletely verified: %+v", res)
			}
		})
	}
}

// TestGoldenGLESEventsFrame checks that every recorded GLES call fits a
// typed frame. Replay dispatches GLES events only through frames — the
// libraries export no boxed twin — so an unframeable event would replay as
// an EINVAL error instead of the recorded call.
func TestGoldenGLESEventsFrame(t *testing.T) {
	goldens, err := filepath.Glob("testdata/*.cytr")
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(goldens) != 3 {
		t.Fatalf("golden traces = %d, want 3", len(goldens))
	}
	for _, path := range goldens {
		tr, err := replay.ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile %s: %v", path, err)
		}
		n := 0
		for i, ev := range tr.Events {
			if ev.Kind != replay.KGLES {
				continue
			}
			n++
			fr, framed, err := callconv.BuildFrame(callconv.Intern(ev.Name), ev.Args)
			if !framed || err != nil {
				t.Errorf("%s event %d %s%v: BuildFrame = (framed=%v, err=%v), want (true, nil)",
					filepath.Base(path), i, ev.Name, ev.Args, framed, err)
				continue
			}
			fr.Release()
		}
		if n == 0 {
			t.Errorf("%s: no GLES events", filepath.Base(path))
		}
	}
}

// Concurrent batched replays of one shared decoded trace, each on its own
// stack; meaningful under -race.
func TestParallelReplay(t *testing.T) {
	tr, err := replay.ReadFile(filepath.Join("testdata", "webkit-tiles.cytr"))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2 && errs[w] == nil; i++ {
				var res *replay.Result
				if res, errs[w] = replay.Play(tr, replay.Options{Verify: true, BatchCap: 16}); errs[w] == nil {
					errs[w] = res.VerifyError()
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}

// The replayer must work with no iOS app code present: its import closure may
// reach the bridge layers and the Android stack, but never workloads, WebKit,
// the JS VM, CPU 2D drawing, or the harness. This keeps replay honest — a
// trace is re-driven purely from recorded events.
func TestReplayImportIsolation(t *testing.T) {
	forbidden := []string{
		"cycada/internal/workloads",
		"cycada/internal/webkit",
		"cycada/internal/jsvm",
		"cycada/internal/graphics2d",
		"cycada/internal/harness",
		"cycada/cmd",
	}
	seen := map[string]bool{}
	queue := []string{"cycada/internal/replay"}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if seen[pkg] {
			continue
		}
		seen[pkg] = true
		for _, bad := range forbidden {
			if pkg == bad || strings.HasPrefix(pkg, bad+"/") {
				t.Errorf("replayer import closure reaches %s", pkg)
			}
		}
		dir := filepath.Join("..", "..", strings.TrimPrefix(pkg, "cycada/"))
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parse %s: %v", dir, err)
		}
		for _, p := range pkgs {
			for _, f := range p.Files {
				for _, imp := range f.Imports {
					path := strings.Trim(imp.Path.Value, `"`)
					if strings.HasPrefix(path, "cycada/") && !seen[path] {
						queue = append(queue, path)
					}
				}
			}
		}
	}
	if len(seen) < 2 {
		t.Fatalf("import walk found only %d packages — walker broken?", len(seen))
	}
}
