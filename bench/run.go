package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"cycada/internal/obs"
	"cycada/internal/sim/vclock"
)

// setupRounds is how many times a run sets its workload up; setup_s is the
// median, and only the last set-up is timed.
const setupRounds = 5

// traceEventCap bounds each tracer stripe. A farm-mix traced half records
// every span of every session until it ends, so the cap sits far above that
// and the run fails if any span is dropped anyway.
const traceEventCap = 1 << 24

// Layer-accounting tolerances: layer self times must add up to the measured
// session wall time within 5% and to the kernels' virtual clocks within 1%.
const (
	wallAccountingTol = 0.05
	vtAccountingTol   = 0.01
)

// runResult is everything one run measured. Metrics holds every metric by
// name; the final result line carries the subset its mode reports.
type runResult struct {
	Workload     string                 `json:"workload"`
	Seed         uint64                 `json:"seed"`
	Trace        int                    `json:"trace"`
	Seconds      float64                `json:"seconds"`
	Clients      int                    `json:"clients"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Traced       int                    `json:"traced_sessions,omitempty"`
	TailQuantile float64                `json:"tail_quantile"`
	TailBeyond   int                    `json:"tail_samples_beyond"`
	Metrics      map[string]float64     `json:"metrics"`
	Fingerprints map[string]fingerprint `json:"fingerprints"`
	Layers       []layerRow             `json:"layers,omitempty"`
	SetupS       []float64              `json:"setup_s_raw"`
	SessionMS    []float64              `json:"session_ms_raw"`
	Problems     []string               `json:"problems,omitempty"`
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// correct reports whether every session verified and every check held.
func (r *runResult) correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

// goCounters are the runtime/metrics the run reads around a phase.
type goCounters struct{ allocBytes, allocObjects, gcCPU, totalCPU float64 }

func readGo() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goCounters{num(s[0].Value), num(s[1].Value), num(s[2].Value), num(s[3].Value)}
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// epoch is how long sessions run between two probe slots. The host's speed
// moves within seconds, and probing every 2.5 s tracked it too loosely on
// replay-tiles. A farm's clients stop at the end of each epoch and wait
// for the others' last sessions; farm.idle_pct includes that wait.
const epoch = time.Second

// timedPhase runs sessions for d in epochs with a probe slot after each.
// It returns the sessions, the wall and CPU time of the epochs without the
// probe slots, and the probe times.
func timedPhase(r runner, d time.Duration) (ss []session, wall, cpu time.Duration, probes []float64) {
	for wall < d {
		t0, c0 := time.Now(), cpuTime()
		ss = append(ss, r.run(min(epoch, d-wall))...)
		wall += time.Since(t0)
		cpu += cpuTime() - c0
		probes = append(probes, probeSlot()...)
	}
	return ss, wall, cpu, probes
}

// runWorkload performs one run: set-up, then either an untraced timed phase
// (trace false) or an untraced half followed by a traced half.
func runWorkload(root string, w workload, seed uint64, seconds float64, traced bool, outDir string) (*runResult, error) {
	res := &runResult{
		Workload:     w.name,
		Seed:         seed,
		Seconds:      seconds,
		Clients:      1,
		Metrics:      map[string]float64{},
		Fingerprints: map[string]fingerprint{},
	}
	if traced {
		res.Trace = 1
	}
	if w.farm {
		res.Clients = runtime.NumCPU()
	}

	var tracer *obs.Tracer
	if traced {
		tracer = obs.New()
		tracer.SetEventCap(traceEventCap)
	}
	var (
		r                runner
		decodeMS, bootMS []float64
		hostSetup        []float64 // probe times after the set-ups
		err              error
		stacksPerBoot    = float64(1)
		firstTraced      int // index of the first traced session
	)
	if w.farm {
		stacksPerBoot = float64(runtime.NumCPU())
	}
	for i := 0; i < setupRounds; i++ {
		if r != nil {
			r.close()
		}
		var st setupStats
		r, st, err = setup(root, w, seed, tracer)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupS = append(res.SetupS, st.total.Seconds())
		decodeMS = append(decodeMS, ms(st.decode))
		bootMS = append(bootMS, ms(st.boot)/stacksPerBoot)
		hostSetup = append(hostSetup, probeSlot()...)
	}
	defer r.close()
	setupScale := probeRefMS / median(hostSetup)
	res.Metrics["host.setup_probe_ms"] = median(hostSetup)
	res.Metrics["raw.setup_s"] = median(res.SetupS)
	res.Metrics["setup_s"] = median(res.SetupS) * setupScale
	res.Metrics["replay.decode_ms"] = median(decodeMS)
	res.Metrics["system.boot_ms"] = median(bootMS)

	d := time.Duration(seconds * float64(time.Second))
	if traced {
		d /= 2
	}
	// Start every timed phase from a collected heap, so garbage left by the
	// set-ups does not land in it.
	runtime.GC()
	g0 := readGo()
	sessions, elapsed, cpu, probes := timedPhase(r, d)
	g1 := readGo()
	untraced := len(sessions)

	var (
		acc            accounting
		coveredWall    time.Duration // spans' wall time comparable with traceWall
		traceWall      time.Duration
		traceVT        vclock.Duration
		impersonations int
		tracedSyscalls int64
	)
	if traced {
		s, err := writeOneSessionTrace(r, tracer, filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, seed)))
		if err != nil {
			return nil, err
		}
		if s.err != nil {
			res.problem("Chrome-trace session (%s): %v", s.trace, s.err)
		}
		runtime.GC()
		traceStart, traceSC := r.kernelTotals()
		drain := func() {
			if n := tracer.Dropped(); n > 0 {
				res.problem("tracer dropped %d spans", n)
			}
			evs := tracer.Events()
			tracer.Reset()
			impersonations += spanCount(evs, obs.CatImpersonation, "impersonation")
			if !w.farm {
				a := account(evs, func(obs.Event) (int, bool) { return 0, true })
				acc.add(a)
				coveredWall += a.RootWall
				return
			}
			// Each device kernel has its own PID space and runs its sessions
			// one at a time on one goroutine.
			device := func(ev obs.Event) (int, bool) { return ev.PID / 1000, ev.Cat != catBench }
			acc.add(account(evs, device))
			// An attempt killed by an injected panic did work that no
			// delivered session's device time includes; its app process is
			// left out of the comparison with that time.
			faulted := map[int]bool{}
			for _, ev := range evs {
				if ev.Cat == obs.CatFault {
					faulted[ev.PID] = true
				}
			}
			coveredWall += account(evs, func(ev obs.Event) (int, bool) {
				g, ok := device(ev)
				return g, ok && !faulted[ev.PID]
			}).RootWall
		}
		tracer.SetEnabled(true)
		if !w.farm {
			// Drain after every session, so a long traced half holds one
			// session's spans at a time. The farm's sessions overlap, so
			// its spans are drained once, at the end.
			r.(*stackRunner).afterSession = func(session) { drain() }
		}
		firstTraced = len(sessions)
		sessions = append(sessions, r.run(d)...)
		tracer.SetEnabled(false)
		if w.farm {
			drain()
		}
		end, sc := r.kernelTotals()
		traceVT, tracedSyscalls = end-traceStart, sc-traceSC
		for _, s := range sessions[firstTraced:] {
			if w.farm {
				traceWall += s.ran
			} else {
				traceWall += s.wall
			}
		}
	}

	// Sessions, failures and determinism.
	res.Attempted = len(sessions)
	wallsMS := make([]float64, 0, untraced)
	attempts, retries, faults := 0, 0, 0
	var queued, ran time.Duration
	for i, s := range sessions {
		if i < untraced {
			wallsMS = append(wallsMS, ms(s.wall))
			queued += s.queued
			ran += s.ran
		}
		attempts += s.attempts
		retries += max(s.attempts-1, 0)
		if s.faulted {
			faults++
		}
		if s.err != nil {
			res.Failed++
			if len(res.Problems) < 5 {
				res.problem("session %d (%s): %v", i, s.trace, s.err)
			}
			continue
		}
		res.Fingerprints[s.trace] = s.fp
	}
	if w.farm && res.Failed == 0 && retries != faults {
		res.problem("farm retried %d times for %d injected faults", retries, faults)
	}
	res.SessionMS = wallsMS
	n := float64(max(untraced, 1))
	res.TailQuantile = tailQuantile(len(wallsMS))
	res.TailBeyond = beyond(len(wallsMS), res.TailQuantile)
	// Wall and CPU metrics are scaled from the host's speed during the run
	// to the reference host's; the raw values are kept beside them.
	scale := probeRefMS / median(probes)
	res.Metrics["host.probe_ms"] = median(probes)
	scaled := func(name string, raw, scaled float64) {
		res.Metrics["raw."+name] = raw
		res.Metrics[name] = scaled
	}
	rate := float64(untraced) / elapsed.Seconds()
	scaled("sessions_per_s", rate, rate/scale)
	p50 := mixMedian(sessions[:untraced])
	scaled("session_p50_ms", p50, p50*scale)
	p90 := percentile(wallsMS, res.TailQuantile)
	scaled("session_p90_ms", p90, p90*scale)
	cpuMS := ms(cpu) / n
	scaled("cpu_ms_per_session", cpuMS, cpuMS*scale)
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	res.Metrics["fail_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	if w.farm {
		res.Metrics["farm.queued_ms"] = ms(queued) / n
		res.Metrics["farm.ran_ms"] = ms(ran) / n
		// Device time left idle: the farm's own gaps between sessions, and
		// the end of each epoch, where a client stops while the others
		// finish their last sessions.
		res.Metrics["farm.idle_pct"] = 100 * (1 - float64(ran)/(float64(runtime.NumCPU())*float64(elapsed)))
	} else {
		fp := res.Fingerprints[w.traces[0]]
		res.Metrics["session_vt_ms"] = float64(fp.VTNS) / 1e6
		if fp.Presents > 0 {
			res.Metrics["present_vt_us"] = float64(fp.PresentVTNS) / float64(fp.Presents) / 1e3
		}
		res.Metrics["sflinger.compose_vt_ms"] = float64(fp.ComposeVTNS) / 1e6
		res.Metrics["eglbridge.blit_vt_ms"] = float64(fp.BlitVTNS) / 1e6
	}
	res.Metrics["farm.attempts_per_session"] = float64(attempts) / float64(max(res.Attempted, 1))
	res.Metrics["farm.retries"] = float64(retries) / float64(max(res.Attempted, 1))
	res.Metrics["go.alloc_mb_per_session"] = (g1.allocBytes - g0.allocBytes) / (1 << 20) / n
	res.Metrics["go.mallocs_per_session"] = (g1.allocObjects - g0.allocObjects) / n
	if cpuDelta := g1.totalCPU - g0.totalCPU; cpuDelta > 0 {
		res.Metrics["go.gc_cpu_frac"] = (g1.gcCPU - g0.gcCPU) / cpuDelta
	}
	if !traced {
		return res, nil
	}

	// Per-layer metrics from the traced half.
	tracedSessions := sessions[firstTraced:]
	tn := len(tracedSessions)
	res.Traced = tn
	res.Layers = acc.rows(tn, traceWall, traceVT)
	perSession := func(layer string) float64 {
		if s, ok := acc.Layers[layer]; ok {
			return ms(s.Wall) / float64(max(tn, 1))
		}
		return 0
	}
	spans := func(layer string) float64 {
		if s, ok := acc.Layers[layer]; ok {
			return float64(s.Spans) / float64(max(tn, 1))
		}
		return 0
	}
	res.Metrics["engine.shading_wall_ms"] = perSession("engine.draw") + perSession("eglbridge.blit_shader")
	res.Metrics["engine.draws"] = spans("engine.draw")
	res.Metrics["engine.state_wall_ms"] = perSession("engine.state")
	res.Metrics["eglbridge.blit_shader_wall_ms"] = perSession("eglbridge.blit_shader")
	res.Metrics["egl.present_self_wall_ms"] = perSession("egl.present")
	res.Metrics["diplomat.calls"] = spans("diplomat")
	res.Metrics["diplomat.self_wall_ms"] = perSession("diplomat")
	res.Metrics["kernel.syscalls"] = float64(tracedSyscalls) / float64(max(tn, 1))
	res.Metrics["kernel.syscall_wall_ms"] = perSession("kernel.syscall")
	res.Metrics["linker.dlr_wall_ms"] = perSession("linker.dlr")
	res.Metrics["impersonate.sessions"] = float64(impersonations) / float64(max(tn, 1))
	res.Metrics["replay.player_self_wall_ms"] = perSession("replay.player")
	var crossings float64
	for _, s := range tracedSessions {
		crossings += float64(s.fp.Crossings)
	}
	res.Metrics["diplomat.crossings"] = crossings / float64(max(tn, 1))
	res.Metrics["obs.trace_overhead_pct"] = traceOverheadPct(sessions[:untraced], tracedSessions)
	unaccountedWall := 100 * float64(traceWall-coveredWall) / float64(max(traceWall, 1))
	unaccountedVT := 100 * float64(traceVT-acc.RootVT) / float64(max(traceVT, 1))
	res.Metrics["layers.unaccounted_wall_pct"] = unaccountedWall
	res.Metrics["layers.unaccounted_vt_pct"] = unaccountedVT
	if unaccountedWall > 100*wallAccountingTol || unaccountedWall < -100*wallAccountingTol {
		res.problem("layer self wall times miss the session wall time by %.2f%%", unaccountedWall)
	}
	if acc.Crossed > 0 {
		res.problem("%d spans cross their enclosing span, so self times are not well defined", acc.Crossed)
	}
	if unaccountedVT > 100*vtAccountingTol || unaccountedVT < -100*vtAccountingTol {
		res.problem("layer self virtual times miss the kernel clocks by %.3f%%", unaccountedVT)
	}
	return res, nil
}

// wallsByTrace groups session wall times, in ms, by trace.
func wallsByTrace(ss []session) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range ss {
		out[s.trace] = append(out[s.trace], ms(s.wall))
	}
	return out
}

// mixMedian is each trace's median session wall time, weighted by how many
// sessions replayed it. On one trace it is the plain median. On farm-mix,
// where half the sessions are short webkit-tiles ones, the plain median
// would fall in the gap between the short and the long sessions and jump
// from run to run.
func mixMedian(ss []session) float64 {
	var sum float64
	for _, w := range wallsByTrace(ss) {
		sum += float64(len(w)) * median(w)
	}
	return sum / float64(max(len(ss), 1))
}

// traceOverheadPct compares the session wall times of the traced half with
// the untraced half, trace by trace: each trace's median is weighted by how
// many traced sessions replayed it, so a mix compares like with like.
func traceOverheadPct(untraced, traced []session) float64 {
	u, t := wallsByTrace(untraced), wallsByTrace(traced)
	var with, without float64
	for label, tw := range t {
		if uw := u[label]; len(uw) > 0 {
			with += float64(len(tw)) * median(tw)
			without += float64(len(tw)) * median(uw)
		}
	}
	if without == 0 {
		return 0
	}
	return 100 * (with/without - 1)
}

func listed(list []metricDef, name string) bool {
	for _, m := range list {
		if m.Name == name {
			return true
		}
	}
	return false
}

// writeOneSessionTrace runs one extra session with the tracer on and writes
// it as a Chrome trace, for reading one session's timeline by eye. The
// session is returned so that it is checked like every other.
func writeOneSessionTrace(r runner, tracer *obs.Tracer, path string) (session, error) {
	tracer.Reset()
	tracer.SetEnabled(true)
	s := r.one()
	tracer.SetEnabled(false)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return s, err
	}
	f, err := os.Create(path)
	if err != nil {
		return s, err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return s, fmt.Errorf("write %s: %w", path, err)
	}
	tracer.Reset()
	return s, f.Close()
}

// printRun writes a run's metrics, one per line with unit and sample count.
func printRun(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %d  %d sessions (%d failed), %d client(s)\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Clients)
	list := untracedMetrics
	if r.Trace == 1 {
		list = perLayer
	}
	for _, m := range list {
		v, ok := r.Metrics[m.Name]
		if !ok {
			fmt.Fprintf(w, "  %-30s %14s %-6s  not measured on this workload\n", m.Name, "-", m.Unit)
			continue
		}
		note := fmt.Sprintf("n=%d", len(r.SessionMS))
		if r.Trace == 1 {
			note = fmt.Sprintf("per traced session, n=%d", r.Traced)
		}
		switch m.Name {
		case "setup_s", "replay.decode_ms", "system.boot_ms":
			note = fmt.Sprintf("median of %d set-ups", len(r.SetupS))
		case "session_p90_ms":
			note = fmt.Sprintf("p%.1f of n=%d, %d beyond", 100*r.TailQuantile, len(r.SessionMS), r.TailBeyond)
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-6s  %s\n", m.Name, v, m.Unit, note)
	}
	var extra []string
	for name := range r.Metrics {
		if !listed(list, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "  also measured: %-30s %14.4f\n", name, r.Metrics[name])
	}
	if len(r.Layers) > 0 {
		printLayers(w, fmt.Sprintf("layers of %s, per traced session (%.2f%% of wall and %.3f%% of virtual time unaccounted)",
			r.Workload, r.Metrics["layers.unaccounted_wall_pct"], r.Metrics["layers.unaccounted_vt_pct"]), r.Layers)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}
