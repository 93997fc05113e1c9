package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"cycada/internal/sim/vclock"
)

// TestChromeTraceGolden pins the exact Chrome trace_event output for a
// deterministic event set. In particular it guards the dur-field regression:
// zero-duration spans must carry an explicit "dur" (clamped to 0.001us), not
// an omitted field that chrome://tracing renders as an invisible slice.
func TestChromeTraceGolden(t *testing.T) {
	tr := New()
	tr.NameProcess(1, "bench")
	tr.NameThread(1, 2, "render")
	tr.AddEvent(Event{
		Name: "present", Cat: CatEGL, PID: 1, TID: 2, Seq: 1,
		VStart: 1500, VDur: 2500,
		WStart: time.Unix(0, 0), WDur: 3000 * time.Nanosecond,
	})
	tr.AddEvent(Event{
		Name: "noop", Cat: CatDiplomat, PID: 1, TID: 2, Seq: 2,
		VStart: 4000, VDur: 0, // the zero-duration span
		WStart: time.Unix(0, 0), WDur: 0,
	})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"bench"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":2,"ts":0,"args":{"name":"render"}},` +
		`{"name":"present","cat":"egl","ph":"X","pid":1,"tid":2,"ts":1.5,"dur":2.5,"args":{"wall_us":3}},` +
		`{"name":"noop","cat":"diplomat","ph":"X","pid":1,"tid":2,"ts":4,"dur":0.001,"args":{"wall_us":0}}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("chrome trace output changed:\n got: %s\nwant: %s", got, want)
	}
}

func TestTracerEventCapCountsDrops(t *testing.T) {
	tr := New()
	tr.SetEventCap(4)
	for i := 0; i < 10; i++ {
		// All TID 0: one stripe, so exactly cap events survive.
		tr.AddEvent(Event{Name: "noop", Cat: CatDiplomat, PID: 1, TID: 0,
			Seq: int64(i + 1), VStart: vclock.Duration(i), VDur: 1})
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want the cap 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}

	rep := tr.TextReport()
	if !strings.Contains(rep, "(6 spans dropped at the event-buffer cap)") {
		t.Fatalf("text report missing drop footer:\n%s", rep)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Events  []json.RawMessage `json:"events"`
		Dropped int64             `json:"dropped_events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Events) != 4 || out.Dropped != 6 {
		t.Fatalf("json: events=%d dropped=%d", len(out.Events), out.Dropped)
	}

	// Reset clears the drop count; n <= 0 restores the default cap.
	tr.Reset()
	tr.SetEventCap(0)
	if tr.Dropped() != 0 {
		t.Fatalf("dropped after reset = %d", tr.Dropped())
	}
	for i := 0; i < 10; i++ {
		tr.AddEvent(Event{Name: "noop", TID: 0, Seq: int64(i + 1)})
	}
	if tr.Len() != 10 || tr.Dropped() != 0 {
		t.Fatalf("default cap dropped events: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	if !strings.Contains(tr.TextReport(), "noop") || strings.Contains(tr.TextReport(), "dropped") {
		t.Fatalf("drop footer should be absent when nothing dropped:\n%s", tr.TextReport())
	}
}
