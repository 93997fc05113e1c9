// Tier-1 farm tests: multi-session smoke over the golden traces with
// per-session checksum identity against single-stack runs, admission
// control (saturation, graceful drain, close), placement, and fault
// isolation across devices.
package farm_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"cycada/internal/core/system"
	"cycada/internal/farm"
	"cycada/internal/fault"
	"cycada/internal/harness"
	"cycada/internal/replay"
)

func golden(t *testing.T, name string) *replay.Trace {
	t.Helper()
	tr, err := replay.ReadFile(filepath.Join("..", "replay", "testdata", name+".cytr"))
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", name, err)
	}
	return tr
}

// TestFarmMultiSessionSmoke is the tier-1 gate: 2 devices x 4 sessions over
// the golden traces, every replay differentially verified, and every
// session's final scan-out checksum equal to the one the single-stack
// recording captured — the farm renders byte-identically to one device.
func TestFarmMultiSessionSmoke(t *testing.T) {
	traces := []*replay.Trace{
		golden(t, "passmark-2d"),
		golden(t, "webkit-tiles"),
		golden(t, "passmark-3d"),
		golden(t, "webkit-tiles"),
	}
	f := farm.New(farm.Config{Devices: 2})
	defer f.Close()
	var sessions []*farm.Session
	for i, tr := range traces {
		s, err := f.Submit(farm.SessionSpec{
			Name:   fmt.Sprintf("smoke-%d-%s", i, tr.Label),
			Trace:  tr,
			Verify: true,
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		sessions = append(sessions, s)
	}
	f.Wait()
	devices := map[int]int{}
	for i, s := range sessions {
		res := s.Result()
		if res.Err != nil {
			t.Fatalf("session %d (%s): %v", i, res.Name, res.Err)
		}
		if want := traces[i].Final.Checksum(); res.Checksum != want {
			t.Errorf("session %d (%s): farm checksum %08x, single-stack recording %08x",
				i, res.Name, res.Checksum, want)
		}
		if res.Replay == nil || !res.Replay.VerifyOK() {
			t.Errorf("session %d (%s): differential verification incomplete: %+v", i, res.Name, res.Replay)
		}
		if res.Frames == 0 {
			t.Errorf("session %d (%s): session-scoped registry saw no presents", i, res.Name)
		}
		devices[res.Device]++
	}
	if len(devices) != 2 {
		t.Errorf("least-loaded placement used %d of 2 devices: %v", len(devices), devices)
	}
	st := f.Stats()
	if st.Completed != 4 || st.Failed != 0 || st.Rejected != 0 {
		t.Errorf("stats = %+v, want 4 completed, 0 failed, 0 rejected", st)
	}
}

// A farm scenario session ends with the same screen as a dedicated
// single-stack run of that scenario — including sessions that reuse a stack
// another session (of a different scenario) just ran on.
func TestFarmScenarioChecksumIdentity(t *testing.T) {
	single := func(name string) uint32 {
		sys := system.New(system.Config{})
		app, err := sys.NewIOSApp(system.AppConfig{Name: "single-" + name})
		if err != nil {
			t.Fatalf("NewIOSApp: %v", err)
		}
		defer app.Close()
		if err := harness.RunScenarioApp(app, name); err != nil {
			t.Fatalf("single-stack %s: %v", name, err)
		}
		return sys.Android.Flinger.ScreenChecksum()
	}
	want := map[string]uint32{
		"passmark-2d":  single("passmark-2d"),
		"webkit-tiles": single("webkit-tiles"),
	}

	f := farm.New(farm.Config{Devices: 1, MaxQueue: 8})
	defer f.Close()
	order := []string{"passmark-2d", "webkit-tiles", "passmark-2d"}
	var sessions []*farm.Session
	for i, name := range order {
		s, err := f.Submit(farm.SessionSpec{Name: fmt.Sprintf("id-%d", i), Scenario: name})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		sessions = append(sessions, s)
	}
	for i, s := range sessions {
		res := s.Result()
		if res.Err != nil {
			t.Fatalf("session %d (%s): %v", i, order[i], res.Err)
		}
		if res.Checksum != want[order[i]] {
			t.Errorf("session %d (%s) on recycled stack: checksum %08x, single-stack %08x",
				i, order[i], res.Checksum, want[order[i]])
		}
	}
}

// blockingSession returns a Body spec that parks until release is closed —
// the tool for holding the farm busy in admission tests.
func blockingSession(name string, release <-chan struct{}) farm.SessionSpec {
	return farm.SessionSpec{
		Name: name,
		Body: func(*system.Cycada) error { <-release; return nil },
	}
}

// Admission control: at MaxQueue pending sessions, Submit rejects with
// ErrSaturated (counted), and admits again once the backlog drains.
func TestFarmAdmissionSaturation(t *testing.T) {
	release := make(chan struct{})
	f := farm.New(farm.Config{Devices: 1, MaxQueue: 2})
	defer f.Close()

	// First session occupies the device; two more fill the pending queue.
	running, err := f.Submit(blockingSession("running", release))
	if err != nil {
		t.Fatalf("Submit running: %v", err)
	}
	waitBusy(t, f)
	for i := 0; i < 2; i++ {
		if _, err := f.Submit(blockingSession(fmt.Sprintf("queued-%d", i), release)); err != nil {
			t.Fatalf("Submit queued-%d: %v", i, err)
		}
	}
	if _, err := f.Submit(blockingSession("overflow", release)); !errors.Is(err, farm.ErrSaturated) {
		t.Fatalf("Submit at capacity: err = %v, want ErrSaturated", err)
	}
	if st := f.Stats(); st.Rejected != 1 || st.QueueDepth != 2 {
		t.Fatalf("stats = %+v, want rejected=1 queue_depth=2", st)
	}

	close(release)
	<-running.Done()
	f.Wait()
	// Backlog drained: admission works again.
	done, err := f.Submit(farm.SessionSpec{Name: "after", Body: func(*system.Cycada) error { return nil }})
	if err != nil {
		t.Fatalf("Submit after drain: %v", err)
	}
	if res := done.Result(); res.Err != nil {
		t.Fatalf("after-drain session: %v", res.Err)
	}
	if st := f.Stats(); st.QueueHighWater != 2 {
		t.Errorf("queue high-water = %d, want 2", st.QueueHighWater)
	}
}

// waitBusy blocks until some device has picked up a session, so admission
// tests can count on the first submission occupying the device rather than
// the queue.
func waitBusy(t *testing.T, f *farm.Farm) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, d := range f.Stats().Devices {
			if d.Busy {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no device picked up the session")
}

// Close drains gracefully: every admitted session completes, then new
// submissions fail with ErrClosed.
func TestFarmCloseDrains(t *testing.T) {
	f := farm.New(farm.Config{Devices: 2, MaxQueue: 16})
	var sessions []*farm.Session
	for i := 0; i < 6; i++ {
		s, err := f.Submit(farm.SessionSpec{
			Name: fmt.Sprintf("drain-%d", i),
			Body: func(*system.Cycada) error { return nil },
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		sessions = append(sessions, s)
	}
	f.Close()
	for i, s := range sessions {
		select {
		case <-s.Done():
		default:
			t.Fatalf("session %d not finished after Close returned", i)
		}
		if res := s.Result(); res.Err != nil {
			t.Errorf("drained session %d: %v", i, res.Err)
		}
	}
	if _, err := f.Submit(farm.SessionSpec{Name: "late", Body: func(*system.Cycada) error { return nil }}); !errors.Is(err, farm.ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	if st := f.Stats(); st.Completed != 6 {
		t.Errorf("completed = %d, want 6", st.Completed)
	}
	f.Close() // idempotent
}

// Placement: explicit pins land where told, affinity keys stick to one
// device, and out-of-range pins are rejected at Submit.
func TestFarmPlacement(t *testing.T) {
	f := farm.New(farm.Config{Devices: 3, MaxQueue: 32})
	defer f.Close()
	noop := func(*system.Cycada) error { return nil }

	var pinned []*farm.Session
	for dev := 1; dev <= 3; dev++ {
		s, err := f.Submit(farm.SessionSpec{Name: fmt.Sprintf("pin-%d", dev), Device: dev, Body: noop})
		if err != nil {
			t.Fatalf("Submit pin-%d: %v", dev, err)
		}
		pinned = append(pinned, s)
	}
	for i, s := range pinned {
		if res := s.Result(); res.Device != i {
			t.Errorf("pin-%d ran on device %d", i+1, res.Device)
		}
	}

	affinity := map[int]bool{}
	for i := 0; i < 4; i++ {
		s, err := f.Submit(farm.SessionSpec{Name: fmt.Sprintf("aff-%d", i), Affinity: "user-42", Body: noop})
		if err != nil {
			t.Fatalf("Submit aff-%d: %v", i, err)
		}
		affinity[s.Result().Device] = true
	}
	if len(affinity) != 1 {
		t.Errorf("affinity key spread across %d devices: %v", len(affinity), affinity)
	}

	if _, err := f.Submit(farm.SessionSpec{Name: "bad-pin", Device: 4, Body: noop}); err == nil {
		t.Fatalf("Submit with out-of-range pin: err = nil")
	}
	if _, err := f.Submit(farm.SessionSpec{Name: "no-body"}); err == nil {
		t.Fatalf("Submit with no body: err = nil")
	}
}

// Fault isolation: a session with an injected diplomat_panic schedule fails
// on its device while (a) concurrently running sessions on sibling devices
// and (b) the next session on the same device replay the golden traces
// byte-identically — the fault never escapes its session scope.
func TestFarmFaultIsolation(t *testing.T) {
	tr := golden(t, "passmark-2d")
	f := farm.New(farm.Config{Devices: 2, MaxQueue: 8})
	defer f.Close()

	faulty, err := f.Submit(farm.SessionSpec{
		Name:   "faulty",
		Device: 1,
		Trace:  tr,
		Verify: true,
		Faults: &fault.Schedule{Seed: 7, Rate: 1, Points: []fault.Point{fault.PointDiplomatPanic}},
	})
	if err != nil {
		t.Fatalf("Submit faulty: %v", err)
	}
	sibling, err := f.Submit(farm.SessionSpec{Name: "sibling", Device: 2, Trace: tr, Verify: true})
	if err != nil {
		t.Fatalf("Submit sibling: %v", err)
	}
	after, err := f.Submit(farm.SessionSpec{Name: "after", Device: 1, Trace: tr, Verify: true})
	if err != nil {
		t.Fatalf("Submit after: %v", err)
	}

	fres := faulty.Result()
	if fres.Err == nil {
		t.Errorf("faulty session succeeded under rate=1 diplomat_panic")
	}
	if fres.FaultStats.TotalInjected() == 0 {
		t.Errorf("faulty session's injector never fired: %s", fres.FaultStats)
	}
	for _, probe := range []struct {
		name string
		s    *farm.Session
	}{{"sibling", sibling}, {"after", after}} {
		res := probe.s.Result()
		if res.Err != nil {
			t.Errorf("%s session poisoned by the faulty one: %v", probe.name, res.Err)
		}
		if want := tr.Final.Checksum(); res.Checksum != want {
			t.Errorf("%s session checksum %08x, recorded %08x", probe.name, res.Checksum, want)
		}
		if res.FaultStats.TotalInjected() != 0 {
			t.Errorf("%s session saw injected faults: %s", probe.name, res.FaultStats)
		}
	}
	if st := f.Stats(); st.Failed != 1 || st.Completed != 2 {
		t.Errorf("stats = %+v, want 1 failed, 2 completed", st)
	}
}
