package replay_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"cycada/internal/core/system"
	"cycada/internal/replay"
)

// A stack that replays session after session must not keep the sessions'
// app processes: the kernel's process table returns to its pre-replay size,
// and the heap retained per session stays far below one app's footprint
// (about 1 MB when processes leaked).
func TestReplaysReapTheirProcesses(t *testing.T) {
	const sessions = 40
	const maxRetainedPerSession = 0.35 * (1 << 20)

	tr, err := replay.ReadFile(filepath.Join("testdata", "webkit-tiles.cytr"))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	sys := system.New(system.Config{ScreenW: tr.ScreenW, ScreenH: tr.ScreenH})
	defer sys.Close()
	k := sys.Android.Kernel
	procs := len(k.Processes())

	play := func() {
		t.Helper()
		res, err := replay.Play(tr, replay.Options{System: sys, Verify: true})
		if err == nil {
			err = res.VerifyError()
		}
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		sys.Android.Flinger.Reset()
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	play() // warm process-wide caches before the baseline
	before := heap()
	for i := 1; i < sessions; i++ {
		play()
	}
	after := heap()

	if got := len(k.Processes()); got != procs {
		t.Errorf("kernel holds %d processes after %d replays, want %d", got, sessions, procs)
	}
	perSession := (float64(after) - float64(before)) / float64(sessions-1)
	t.Logf("retained heap: %.3f MB per session", perSession/(1<<20))
	if perSession > maxRetainedPerSession {
		t.Errorf("retained %.3f MB per session, want <= %.2f MB", perSession/(1<<20), maxRetainedPerSession/(1<<20))
	}
}
