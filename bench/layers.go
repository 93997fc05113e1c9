package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"cycada/internal/obs"
	"cycada/internal/sim/vclock"
)

// catBench marks the spans the benchmark records around its own calls into
// the program. They carry wall time only: virtual time belongs to the
// simulated threads, whose spans account for all of it.
const catBench = "bench"

// benchPID is the trace process the benchmark's spans are filed under; the
// kernels' PID spaces start at zero, so a negative one never collides.
const benchPID = -1

// beginBench opens a benchmark span on client tid; inert while tr is off.
func beginBench(tr *obs.Tracer, tid int, name string) obs.Span {
	if tr == nil {
		return obs.Span{}
	}
	return tr.Begin(benchPID, tid, catBench, name, 0)
}

// layerOf maps a span to the layer its self time is charged to. The names
// follow the stack from the replayed app down to the compositor.
func layerOf(cat, name string) string {
	switch cat {
	case catBench:
		switch name {
		case "bench:play":
			// Play's own time outside every program span: app process
			// creation and teardown around the replay, minus the linker.
			return "system.app_boot"
		case "bench:reset":
			return "sflinger.reset"
		}
		return "farm.client" // Submit to Result, overlapping device work
	case obs.CatReplay:
		if strings.HasPrefix(name, "replay:play:") {
			return "replay.player"
		}
		return "replay.verify"
	case obs.CatDiplomat:
		fn, domestic := strings.CutPrefix(name, "domestic:")
		switch {
		case !domestic:
			return "diplomat"
		case strings.HasPrefix(fn, "glDraw"):
			return "engine.draw"
		case strings.HasPrefix(fn, "aegl_bridge_"):
			return "eglbridge.call"
		case strings.HasPrefix(fn, "egl"):
			return "egl.call"
		}
		return "engine.state"
	case obs.CatBatch:
		return "diplomat"
	case obs.CatSyscall:
		return "kernel.syscall"
	case obs.CatImpersonation:
		return "impersonate"
	case obs.CatDLR:
		return "linker.dlr"
	case obs.CatEGL:
		switch name {
		case "egl:present":
			return "egl.present"
		case "egl:blit_shader":
			return "eglbridge.blit_shader"
		case "egl:blit_copy":
			return "eglbridge.blit_copy"
		}
		return "eglbridge.other"
	}
	return "other." + cat
}

// layerStat is one layer's self time on both clocks.
type layerStat struct {
	Wall  time.Duration
	VT    vclock.Duration
	Spans int
}

// accounting is the self-time split of a set of spans.
type accounting struct {
	Layers map[string]*layerStat
	// Root totals: the summed durations of spans no other span encloses,
	// which is what the layers' self times add up to.
	RootWall time.Duration
	RootVT   vclock.Duration
	Crossed  int
}

func (a *accounting) add(b accounting) {
	if a.Layers == nil {
		a.Layers = map[string]*layerStat{}
	}
	for name, s := range b.Layers {
		d := a.Layers[name]
		if d == nil {
			d = &layerStat{}
			a.Layers[name] = d
		}
		d.Wall += s.Wall
		d.VT += s.VT
		d.Spans += s.Spans
	}
	a.RootWall += b.RootWall
	a.RootVT += b.RootVT
	a.Crossed += b.Crossed
}

// spanCount is how many spans with this category and name were recorded.
func spanCount(evs []obs.Event, cat, name string) int {
	n := 0
	for _, ev := range evs {
		if ev.Cat == cat && ev.Name == name {
			n++
		}
	}
	return n
}

// isMarker reports whether a span marks a state rather than a call. The
// impersonation session span opens inside one bridge call and closes inside
// a later one, so it encloses no call in particular; its work is recorded by
// the tls_* spans inside the calls, and it is left out of the nesting.
func isMarker(ev *obs.Event) bool {
	return ev.Cat == obs.CatImpersonation && ev.Name == "impersonation"
}

// account computes every span's self time — its duration minus the part its
// child spans cover — and charges it to the span's layer.
//
// Virtual time is per simulated thread, so spans nest per (PID, TID) on the
// virtual clock. Wall time nests per executing goroutine: a replay runs all
// of its simulated threads from one goroutine, so wallGroup must map every
// span one goroutine recorded to the same key; spans for which it reports
// false are left out (the farm's client-side spans overlap device work).
// A span that starts inside another and ends after it is counted in Crossed:
// self times are only meaningful when that count is zero.
func account(evs []obs.Event, wallGroup func(obs.Event) (int, bool)) accounting {
	a := accounting{Layers: map[string]*layerStat{}}
	keep := make([]obs.Event, 0, len(evs))
	groups := make([]int, 0, len(evs))
	for _, ev := range evs {
		if isMarker(&ev) {
			continue
		}
		if g, ok := wallGroup(ev); ok {
			keep = append(keep, ev)
			groups = append(groups, g)
		}
	}
	selfWall := make([]time.Duration, len(keep))
	selfVT := make([]vclock.Duration, len(keep))

	// Wall clock: within a group, a span is the child of the innermost open
	// span whose interval contains it.
	idx := make([]int, len(keep))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		i, j := idx[x], idx[y]
		if groups[i] != groups[j] {
			return groups[i] < groups[j]
		}
		if !keep[i].WStart.Equal(keep[j].WStart) {
			return keep[i].WStart.Before(keep[j].WStart)
		}
		return keep[i].Seq < keep[j].Seq
	})
	var stack []int
	for _, i := range idx {
		ev := &keep[i]
		end := ev.WStart.Add(ev.WDur)
		for len(stack) > 0 {
			p := &keep[stack[len(stack)-1]]
			if groups[stack[len(stack)-1]] != groups[i] {
				stack = stack[:0]
				break
			}
			pend := p.WStart.Add(p.WDur)
			if !end.After(pend) {
				break
			}
			if ev.WStart.Before(pend) {
				a.Crossed++
			}
			stack = stack[:len(stack)-1]
		}
		selfWall[i] += ev.WDur
		if len(stack) > 0 {
			selfWall[stack[len(stack)-1]] -= ev.WDur
		} else {
			a.RootWall += ev.WDur
		}
		stack = append(stack, i)
	}

	// Virtual clock: the same nesting per simulated thread, in virtual time.
	sort.Slice(idx, func(x, y int) bool {
		p, q := &keep[idx[x]], &keep[idx[y]]
		if p.PID != q.PID {
			return p.PID < q.PID
		}
		if p.TID != q.TID {
			return p.TID < q.TID
		}
		if p.VStart != q.VStart {
			return p.VStart < q.VStart
		}
		if p.VDur != q.VDur {
			return p.VDur > q.VDur
		}
		return p.Seq < q.Seq
	})
	stack = stack[:0]
	for _, i := range idx {
		ev := &keep[i]
		for len(stack) > 0 {
			p := &keep[stack[len(stack)-1]]
			if p.PID != ev.PID || p.TID != ev.TID {
				stack = stack[:0]
				break
			}
			pend := p.VStart + p.VDur
			if ev.VStart+ev.VDur <= pend {
				break
			}
			if ev.VStart < pend {
				a.Crossed++
			}
			stack = stack[:len(stack)-1]
		}
		selfVT[i] += ev.VDur
		if len(stack) > 0 {
			selfVT[stack[len(stack)-1]] -= ev.VDur
		} else {
			a.RootVT += ev.VDur
		}
		stack = append(stack, i)
	}

	for i := range keep {
		name := layerOf(keep[i].Cat, keep[i].Name)
		s := a.Layers[name]
		if s == nil {
			s = &layerStat{}
			a.Layers[name] = s
		}
		s.Wall += selfWall[i]
		s.VT += selfVT[i]
		s.Spans++
	}
	return a
}

// layerRow is one line of a printed layer table, per session.
type layerRow struct {
	Layer     string  `json:"layer"`
	WallMS    float64 `json:"self_wall_ms"`
	WallShare float64 `json:"wall_share"`
	VTMS      float64 `json:"self_vt_ms"`
	VTShare   float64 `json:"vt_share"`
	Spans     float64 `json:"spans"`
}

// rows renders the accounting per session, largest wall share first, with
// sessionWall and sessionVT (totals over the same sessions) as the bases.
func (a *accounting) rows(sessions int, sessionWall time.Duration, sessionVT vclock.Duration) []layerRow {
	n := float64(max(sessions, 1))
	var out []layerRow
	for name, s := range a.Layers {
		r := layerRow{
			Layer:  name,
			WallMS: float64(s.Wall) / 1e6 / n,
			VTMS:   float64(s.VT) / 1e6 / n,
			Spans:  float64(s.Spans) / n,
		}
		if sessionWall > 0 {
			r.WallShare = float64(s.Wall) / float64(sessionWall)
		}
		if sessionVT > 0 {
			r.VTShare = float64(s.VT) / float64(sessionVT)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallMS != out[j].WallMS {
			return out[i].WallMS > out[j].WallMS
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

func printLayers(w io.Writer, title string, rows []layerRow) {
	fmt.Fprintf(w, "%s\n  %-24s %12s %7s %12s %7s %9s\n", title,
		"layer", "self wall ms", "share", "self vt ms", "share", "spans")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %12.4f %6.1f%% %12.4f %6.1f%% %9.1f\n",
			r.Layer, r.WallMS, 100*r.WallShare, r.VTMS, 100*r.VTShare, r.Spans)
	}
}
