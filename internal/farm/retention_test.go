package farm_test

import (
	"fmt"
	"runtime"
	"testing"

	"cycada/internal/farm"
)

// TestFarmRecyclesRetainNothing replays webkit-tiles session after session
// on a one-device farm, so every session goes through the device's recycle.
// The live heap after a collection may grow by at most 0.05 MB per session,
// measured between the 10th session (process-wide caches are warm by then)
// and the last, and the device kernel's process table returns to its size
// before the first. The recycle retains about 0.001 MB per session; without
// its IOSurface reclaim, a session retains about 0.25 MB.
func TestFarmRecyclesRetainNothing(t *testing.T) {
	const sessions = 40
	const warm = 10
	const maxRetainedPerSession = 0.05 * (1 << 20)

	tr := golden(t, "webkit-tiles")
	f := farm.New(farm.Config{Devices: 1})
	defer f.Close()
	k := f.Device(0).System().Android.Kernel
	procs := len(k.Processes())

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var warmHeap uint64
	for i := 1; i <= sessions; i++ {
		s, err := f.Submit(farm.SessionSpec{Name: fmt.Sprintf("tiles-%02d", i), Trace: tr, Verify: true})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		<-s.Done()
		if err := s.Result().Err; err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if i == warm {
			warmHeap = heap()
		}
	}
	lastHeap := heap()

	if got := len(k.Processes()); got != procs {
		t.Errorf("device kernel holds %d processes after %d sessions, want %d", got, sessions, procs)
	}
	perSession := (float64(lastHeap) - float64(warmHeap)) / float64(sessions-warm)
	t.Logf("live heap %.2f MB after session %d, %.2f MB after session %d: %.3f MB per session",
		float64(warmHeap)/(1<<20), warm, float64(lastHeap)/(1<<20), sessions, perSession/(1<<20))
	if perSession > maxRetainedPerSession {
		t.Errorf("retained %.3f MB per session across recycles, want <= %.2f MB",
			perSession/(1<<20), maxRetainedPerSession/(1<<20))
	}
}
