package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"cycada/internal/sim/vclock"
)

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := New()
	sp := tr.Begin(1, 1, CatDiplomat, "noop", 0)
	if sp.Active() {
		t.Fatal("disabled tracer returned an active span")
	}
	sp.End(10)
	if tr.Len() != 0 {
		t.Fatalf("disabled tracer recorded %d events", tr.Len())
	}
}

func TestSpanRecordsVirtualAndWallTime(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	sp := tr.Begin(1, 3, CatEGL, "present", 100)
	if !sp.Active() {
		t.Fatal("enabled tracer returned inert span")
	}
	sp.End(250)
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	ev := evs[0]
	if ev.Name != "present" || ev.Cat != CatEGL || ev.PID != 1 || ev.TID != 3 {
		t.Fatalf("event = %+v", ev)
	}
	if ev.VStart != 100 || ev.VDur != 150 {
		t.Fatalf("virtual times = %v + %v", ev.VStart, ev.VDur)
	}
	if ev.WDur < 0 {
		t.Fatalf("wall duration = %v", ev.WDur)
	}
}

func TestEventsOrderKeepsParentsFirst(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	parent := tr.Begin(1, 1, CatDiplomat, "parent", 0)
	child := tr.Begin(1, 1, CatDiplomat, "child", 0)
	child.End(0) // zero-duration child, recorded before parent
	parent.End(0)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Name != "parent" || evs[1].Name != "child" {
		t.Fatalf("order = %s, %s", evs[0].Name, evs[1].Name)
	}
}

func TestConcurrentSpansAndReset(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	const threads, per = 8, 200
	for tid := 1; tid <= threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tr.Begin(1, tid, CatSyscall, "set_persona", vclock.Duration(i))
				sp.End(vclock.Duration(i + 1))
			}
		}(tid)
	}
	wg.Wait()
	if got := tr.Len(); got != threads*per {
		t.Fatalf("events = %d, want %d", got, threads*per)
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset left events behind")
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	tr.NameProcess(0, "app")
	tr.NameThread(0, 1, "main")
	sp := tr.Begin(0, 1, CatDiplomat, "diplomat:glFlush", 1000)
	sp.End(3500)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var sawMeta, sawSlice bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			sawMeta = true
		case "X":
			sawSlice = true
			if ev["name"] != "diplomat:glFlush" {
				t.Fatalf("slice name = %v", ev["name"])
			}
			if ev["ts"].(float64) != 1.0 || ev["dur"].(float64) != 2.5 {
				t.Fatalf("ts/dur = %v/%v", ev["ts"], ev["dur"])
			}
		}
	}
	if !sawMeta || !sawSlice {
		t.Fatalf("metadata=%v slice=%v", sawMeta, sawSlice)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	sp := tr.Begin(2, 7, CatDLR, "dlforce:libui_wrapper.so", 10)
	sp.End(40)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []jsonEvent `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Events) != 1 || doc.Events[0].VDurNS != 30 || doc.Events[0].PID != 2 {
		t.Fatalf("events = %+v", doc.Events)
	}
}

func TestTextReportAggregates(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	for i := 0; i < 3; i++ {
		sp := tr.Begin(1, 1, CatSyscall, "locate_tls", vclock.Duration(i*100))
		sp.End(vclock.Duration(i*100 + 50))
	}
	rep := tr.TextReport()
	if !strings.Contains(rep, "locate_tls") || !strings.Contains(rep, "3") {
		t.Fatalf("report = %q", rep)
	}
}

func TestAllocPIDSpace(t *testing.T) {
	tr := New()
	if a, b := tr.AllocPIDSpace(), tr.AllocPIDSpace(); a != 0 || b != 1000 {
		t.Fatalf("pid spaces = %d, %d", a, b)
	}
}
