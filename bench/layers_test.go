package main

import (
	"testing"
	"time"

	"cycada/internal/obs"
	"cycada/internal/sim/vclock"
)

func span(cat, name string, tid int, seq int64, w0, w1 time.Duration, v0, v1 vclock.Duration) obs.Event {
	base := time.Unix(0, 0)
	return obs.Event{Cat: cat, Name: name, PID: 1, TID: tid, Seq: seq,
		WStart: base.Add(w0), WDur: w1 - w0, VStart: v0, VDur: v1 - v0}
}

func oneGroup(obs.Event) (int, bool) { return 0, true }

func TestAccountSelfTimes(t *testing.T) {
	evs := []obs.Event{
		span(obs.CatReplay, "replay:play:x", 1, 1, 0, 100, 0, 1000),
		span(obs.CatDiplomat, "diplomat:glDrawArrays", 1, 2, 10, 60, 0, 600),
		span(obs.CatDiplomat, "domestic:glDrawArrays", 1, 3, 12, 58, 10, 590),
		span(obs.CatSyscall, "set_persona:android", 1, 4, 12, 13, 10, 20),
		// A second simulated thread driven from the same goroutine: nested
		// on the wall clock, on its own virtual clock.
		span(obs.CatDiplomat, "diplomat:glFlush", 2, 5, 70, 90, 0, 300),
		// The impersonation session marker straddles calls and is ignored.
		span(obs.CatImpersonation, "impersonation", 1, 6, 11, 95, 5, 990),
	}
	a := account(evs, oneGroup)
	if a.Crossed != 0 {
		t.Fatalf("crossed = %d, want 0 (the marker must not nest)", a.Crossed)
	}
	want := map[string]layerStat{
		"replay.player":  {Wall: 100 - 50 - 20, VT: 1000 - 600, Spans: 1},
		"diplomat":       {Wall: 50 - 46 + 20, VT: 600 - 580 + 300, Spans: 2},
		"engine.draw":    {Wall: 46 - 1, VT: 580 - 10, Spans: 1},
		"kernel.syscall": {Wall: 1, VT: 10, Spans: 1},
	}
	for name, w := range want {
		got := a.Layers[name]
		if got == nil || *got != w {
			t.Errorf("layer %s = %+v, want %+v", name, got, w)
		}
	}
	if a.RootWall != 100 || a.RootVT != 1000+300 {
		t.Errorf("roots = %v wall, %v vt; want 100, 1300", a.RootWall, a.RootVT)
	}
	var wall time.Duration
	var vt vclock.Duration
	for _, s := range a.Layers {
		wall += s.Wall
		vt += s.VT
	}
	if wall != a.RootWall || vt != a.RootVT {
		t.Errorf("self times sum to %v/%v, roots are %v/%v", wall, vt, a.RootWall, a.RootVT)
	}
}

func TestAccountCountsCrossingSpans(t *testing.T) {
	evs := []obs.Event{
		span(obs.CatDiplomat, "diplomat:a", 1, 1, 0, 50, 0, 500),
		span(obs.CatEGL, "egl:present", 1, 2, 40, 80, 400, 800),
	}
	if a := account(evs, oneGroup); a.Crossed != 2 {
		t.Errorf("crossed = %d, want 2 (once per clock)", a.Crossed)
	}
}

// TestLayerAccounting replays each golden trace once with the tracer on and
// checks that the layers' self times add up: to the measured session wall
// time within 5%, to the kernel's virtual clock within 1%, with no span
// dropped and none crossing its parent.
func TestLayerAccounting(t *testing.T) {
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
			tracer.SetEnabled(true)
			s := sr.one()
			tracer.SetEnabled(false)
			if s.err != nil {
				t.Fatal(s.err)
			}
			if n := tracer.Dropped(); n != 0 {
				t.Fatalf("tracer dropped %d spans", n)
			}
			a := account(tracer.Events(), oneGroup)
			if a.Crossed != 0 {
				t.Errorf("%d spans cross their parent", a.Crossed)
			}
			var wall time.Duration
			var vt vclock.Duration
			for _, l := range a.Layers {
				wall += l.Wall
				vt += l.VT
			}
			if off := float64(s.wall-wall) / float64(s.wall); off > wallAccountingTol || off < -wallAccountingTol {
				t.Errorf("layer self wall %v vs session wall %v: off by %.2f%%", wall, s.wall, 100*off)
			}
			sessionVT := vclock.Duration(s.fp.VTNS)
			if off := float64(sessionVT-vt) / float64(sessionVT); off > vtAccountingTol || off < -vtAccountingTol {
				t.Errorf("layer self vt %v vs kernel clock %v: off by %.3f%%", vt, sessionVT, 100*off)
			}
			if a.Layers["diplomat"] == nil || a.Layers["kernel.syscall"] == nil || a.Layers["eglbridge.blit_shader"] == nil {
				t.Errorf("missing core layers in %v", a.Layers)
			}
		})
	}
}
