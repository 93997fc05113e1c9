package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cycada/internal/android/egl"
	"cycada/internal/android/sflinger"
	"cycada/internal/core/eglbridge"
	"cycada/internal/core/system"
	"cycada/internal/farm"
	"cycada/internal/fault"
	"cycada/internal/obs"
	"cycada/internal/replay"
	"cycada/internal/sim/vclock"
)

// traceDir holds the golden CYTR traces, relative to the repository root.
const traceDir = "internal/replay/testdata"

// workload is one input set the benchmark runs.
type workload struct {
	name   string
	why    string
	traces []string
	farm   bool
}

// The workloads all replay the repository's three recorded traces, so their
// inputs repeat from session to session: a change that caches work across
// sessions will look better here than on fresh inputs, and has to say so.
var workloads = []workload{
	{"replay-2d", "passmark-2d on one stack: fragment shading dominates, few bridge calls",
		[]string{"passmark-2d"}, false},
	{"replay-3d", "passmark-3d on one stack: call-heavy GLES1+GLES2 mix, dispatch shows on the virtual clock",
		[]string{"passmark-3d"}, false},
	{"replay-tiles", "webkit-tiles on one stack: two threads, impersonation, CPU-painted IOSurfaces, short sessions",
		[]string{"webkit-tiles"}, false},
	{"farm-mix", "the farm smoke test's 2d:3d:tiles = 1:1:2 mix, nproc devices and clients, every 20th session panics once",
		[]string{"passmark-2d", "passmark-3d", "webkit-tiles"}, true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// loadTrace reads and decodes one golden trace below root.
func loadTrace(root, label string) (*replay.Trace, error) {
	data, err := os.ReadFile(filepath.Join(root, traceDir, label+".cytr"))
	if err != nil {
		return nil, err
	}
	tr, err := replay.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("decode %s: %w", label, err)
	}
	return tr, nil
}

// fingerprint is what a verified session of one trace must reproduce
// exactly on every run: its virtual-clock cost and its counts.
type fingerprint struct {
	VTNS      int64  `json:"vt_ns,omitempty"` // zero where not attributable (farm)
	Syscalls  int64  `json:"syscalls,omitempty"`
	Crossings uint64 `json:"crossings"`
	Presents  int64  `json:"presents"`
	// PresentVTNS, ComposeVTNS and BlitVTNS sum the session's egl-present,
	// sf-compose and eglbridge-blit (shader blit) virtual latencies on a
	// single stack; FrameMaxNS is the largest present's, which the farm
	// reports.
	PresentVTNS int64 `json:"present_vt_ns,omitempty"`
	ComposeVTNS int64 `json:"compose_vt_ns,omitempty"`
	BlitVTNS    int64 `json:"blit_vt_ns,omitempty"`
	FrameMaxNS  int64 `json:"frame_max_ns,omitempty"`
}

// session is one timed session's outcome.
type session struct {
	trace    string
	wall     time.Duration
	queued   time.Duration // farm: admission to the final attempt's start
	ran      time.Duration // farm: the final attempt, start to finish
	fp       fingerprint
	attempts int
	faulted  bool
	err      error
}

// runner executes sessions of one workload on set-up state.
type runner interface {
	// warmUp runs one untimed session per trace and keeps each one's
	// fingerprint as the reference later sessions must match.
	warmUp() error
	// one runs the workload's next session from a single client and checks
	// it against the warm-up.
	one() session
	// run loops sessions until d has elapsed and returns them in
	// completion order.
	run(d time.Duration) []session
	// kernelTotals sums virtual time and syscalls over every kernel the
	// runner drives, for the traced run's accounting.
	kernelTotals() (vclock.Duration, int64)
	close()
}

// setupStats are the wall times of one set-up.
type setupStats struct {
	decode, boot, total time.Duration
}

// setup decodes the workload's traces, boots its stacks and runs one
// untimed warm-up session per trace. tracer, when non-nil, is attached to
// every booted kernel (recording only while enabled).
func setup(root string, w workload, seed uint64, tracer *obs.Tracer) (runner, setupStats, error) {
	start := time.Now()
	var st setupStats
	traces := map[string]*replay.Trace{}
	for _, label := range w.traces {
		tr, err := loadTrace(root, label)
		if err != nil {
			return nil, st, err
		}
		traces[label] = tr
	}
	st.decode = time.Since(start)

	bootStart := time.Now()
	var r runner
	if w.farm {
		r = newFarmRunner(traces, w.traces, seed, tracer)
	} else {
		r = newStackRunner(traces[w.traces[0]], tracer)
	}
	st.boot = time.Since(bootStart)

	if err := r.warmUp(); err != nil {
		r.close()
		return nil, st, err
	}
	st.total = time.Since(start)
	return r, st, nil
}

// stackSessions is how many sessions one booted stack, or one farm device,
// serves before the benchmark replaces it. The kernel keeps every app
// process a session created (about 3 MB per webkit-tiles session), so a
// stack that lived for a whole run would reach 1.6 GB on replay-tiles, and
// peak memory would grow with however many sessions the host's speed let a
// run complete. Fifty sessions' worth keeps that retention visible in peak
// memory.
const stackSessions = 50

// stackRunner replays one trace back to back on one booted stack with one
// client, recycling the compositor between sessions as a farm slot does.
type stackRunner struct {
	tr     *replay.Trace
	sys    *system.Cycada
	served int // sessions on sys
	// Kernel totals of the stacks already replaced.
	retiredVT       vclock.Duration
	retiredSyscalls int64
	hists           *obs.Histograms
	tracer          *obs.Tracer
	ref             fingerprint
	// afterSession, when set, runs after every timed session (the traced
	// run drains the tracer there).
	afterSession func(session)
}

func newStackRunner(tr *replay.Trace, tracer *obs.Tracer) *stackRunner {
	hists := obs.NewHistograms()
	hists.SetEnabled(true)
	r := &stackRunner{tr: tr, hists: hists, tracer: tracer}
	r.boot()
	return r
}

func (r *stackRunner) boot() {
	r.sys = system.New(system.Config{
		ScreenW:  r.tr.ScreenW,
		ScreenH:  r.tr.ScreenH,
		Tracer:   r.tracer,
		Hists:    r.hists,
		Counters: obs.NewCounters(),
	})
	r.served = 0
}

func (r *stackRunner) warmUp() error {
	s := r.play()
	if s.err != nil {
		return fmt.Errorf("warm-up %s: %w", s.trace, s.err)
	}
	r.ref = s.fp
	return nil
}

func (r *stackRunner) one() session {
	s := r.play()
	if s.err == nil && s.fp != r.ref {
		s.err = fmt.Errorf("non-deterministic session: %+v, warm-up had %+v", s.fp, r.ref)
	}
	return s
}

// play replays the trace once and measures the session.
func (r *stackRunner) play() session {
	if r.served == stackSessions {
		r.retiredVT, r.retiredSyscalls = r.kernelTotals()
		r.sys.Close()
		r.boot()
	}
	r.served++
	k := r.sys.Android.Kernel
	present := r.hists.Histogram(egl.PresentHistName)
	compose := r.hists.Histogram(sflinger.ComposeHistName)
	blit := r.hists.Histogram(eglbridge.BlitHistName)
	pc, ps, vt, sc := present.Count(), present.Sum(), k.Clock().Now(), k.SyscallCount()
	cs, bs := compose.Sum(), blit.Sum()
	start := time.Now()
	sp := beginBench(r.tracer, 0, "bench:play")
	res, err := replay.Play(r.tr, replay.Options{System: r.sys, Verify: true})
	sp.End(0)
	sp = beginBench(r.tracer, 0, "bench:reset")
	r.sys.Android.Flinger.Reset()
	sp.End(0)
	s := session{trace: r.tr.Label, wall: time.Since(start), attempts: 1, err: err}
	if err == nil {
		s.err = res.VerifyError()
		s.fp = fingerprint{
			VTNS:        int64(k.Clock().Now() - vt),
			Syscalls:    k.SyscallCount() - sc,
			Crossings:   res.Crossings,
			Presents:    present.Count() - pc,
			PresentVTNS: int64(present.Sum() - ps),
			ComposeVTNS: int64(compose.Sum() - cs),
			BlitVTNS:    int64(blit.Sum() - bs),
		}
	}
	return s
}

func (r *stackRunner) run(d time.Duration) []session {
	var out []session
	for start := time.Now(); time.Since(start) < d; {
		s := r.one()
		out = append(out, s)
		if r.afterSession != nil {
			r.afterSession(s)
		}
	}
	return out
}

func (r *stackRunner) kernelTotals() (vclock.Duration, int64) {
	k := r.sys.Android.Kernel
	return r.retiredVT + k.Clock().Now(), r.retiredSyscalls + k.SyscallCount()
}

func (r *stackRunner) close() { r.sys.Close() }

// farmMix is the farm-mix session order. The traffic is the farm's tier-1
// smoke test (TestFarmMultiSessionSmoke): passmark-2d, webkit-tiles,
// passmark-3d, webkit-tiles. Each block of four is a seeded shuffle of that
// set. Every 20th session carries a one-shot diplomat panic, as at
// BenchmarkFarmResilience's 5% point. Both are functions of (seed, index)
// alone, so the inputs do not depend on which client takes which session.
type farmMix struct{ seed uint64 }

var mixBlock = []string{"passmark-2d", "webkit-tiles", "passmark-3d", "webkit-tiles"}

// faultEvery is the spacing of faulted sessions: 5% of them.
const faultEvery = 20

func (m farmMix) session(i uint64) (label string, faulted bool) {
	block := append([]string(nil), mixBlock...)
	rng := rand.New(rand.NewPCG(m.seed, i/uint64(len(block))))
	rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
	return block[i%uint64(len(block))], i%faultEvery == 0
}

// farmRunner drives a farm with Devices = nproc and nproc closed-loop
// clients, each submitting its next session when the previous one returns.
// Like a stack, the farm serves stackSessions sessions per device and is
// then replaced. That happens when run starts, between two epochs, when no
// session is in flight, so no client waits for it.
type farmRunner struct {
	f      *farm.Farm
	labels []string
	traces map[string]*replay.Trace
	mix    farmMix
	next   atomic.Uint64
	// farmStart is the index of the first session the current farm served.
	farmStart uint64
	tracer    *obs.Tracer
	ref       map[string]fingerprint
	// faultAfter is, per trace, how many diplomat calls a faulted session
	// passes before its panic: half the trace's GLES events, since
	// webkit-tiles makes fewer calls than BenchmarkFarmResilience skips.
	faultAfter map[string]uint64
	// Kernel totals of the farms already replaced.
	retiredVT       vclock.Duration
	retiredSyscalls int64
}

func newFarmRunner(traces map[string]*replay.Trace, labels []string, seed uint64, tracer *obs.Tracer) *farmRunner {
	r := &farmRunner{
		labels:     labels,
		traces:     traces,
		mix:        farmMix{seed: seed},
		tracer:     tracer,
		ref:        map[string]fingerprint{},
		faultAfter: map[string]uint64{},
	}
	for _, label := range labels {
		n := uint64(0)
		for _, ev := range traces[label].Events {
			if ev.Kind == replay.KGLES {
				n++
			}
		}
		r.faultAfter[label] = n / 2
	}
	r.boot()
	return r
}

func (r *farmRunner) boot() {
	r.f = farm.New(farm.Config{
		Devices:         runtime.NumCPU(),
		Tracer:          r.tracer,
		SessionDeadline: time.Minute, // armed, never the bottleneck
		DrainDeadline:   time.Minute,
	})
	for i := 0; i < r.f.Devices(); i++ {
		// Injected panics dump the flight recorder; keep the output quiet.
		r.f.Device(i).Flight.SetOutput(io.Discard)
	}
	r.farmStart = r.next.Load()
}

func (r *farmRunner) warmUp() error {
	for _, label := range r.labels {
		s := r.submit(farm.SessionSpec{Trace: r.traces[label], Verify: true, Retries: 1}, label, 0)
		if s.err != nil {
			return fmt.Errorf("warm-up %s: %w", label, s.err)
		}
		r.ref[label] = s.fp
	}
	return nil
}

func (r *farmRunner) one() session { return r.nextSession(1) }

// submit runs one session through the farm from client tid and waits for it.
func (r *farmRunner) submit(spec farm.SessionSpec, label string, tid int) session {
	start := time.Now()
	sp := beginBench(r.tracer, tid, "bench:session")
	h, err := r.f.Submit(spec)
	if err != nil {
		sp.End(0)
		return session{trace: label, wall: time.Since(start), err: err}
	}
	res := h.Result()
	sp.End(0)
	s := session{trace: label, wall: time.Since(start), queued: res.Queued, ran: res.Ran,
		attempts: res.Attempts, faulted: spec.Faults != nil, err: res.Err}
	if res.Err == nil && res.Replay != nil {
		s.fp = fingerprint{
			Crossings:  res.Replay.Crossings,
			Presents:   res.Frames,
			FrameMaxNS: int64(res.FrameMax),
		}
	}
	return s
}

// nextSession runs the next session of the mix from client tid.
func (r *farmRunner) nextSession(tid int) session {
	i := r.next.Add(1) - 1
	label, faulted := r.mix.session(i)
	spec := farm.SessionSpec{
		Name:    fmt.Sprintf("mix-%d", i),
		Trace:   r.traces[label],
		Verify:  true,
		Retries: 1,
	}
	if faulted {
		spec.Faults = &fault.Schedule{
			Seed:   r.mix.seed ^ i,
			Rate:   1,
			After:  r.faultAfter[label],
			Times:  1,
			Points: []fault.Point{fault.PointDiplomatPanic},
		}
	}
	s := r.submit(spec, label, tid)
	if s.err == nil && s.fp != r.ref[label] {
		s.err = fmt.Errorf("non-deterministic %s session: %+v, warm-up had %+v", label, s.fp, r.ref[label])
	}
	return s
}

func (r *farmRunner) run(d time.Duration) []session {
	if r.next.Load()-r.farmStart >= uint64(stackSessions*r.f.Devices()) {
		r.retiredVT, r.retiredSyscalls = r.kernelTotals()
		r.f.Close()
		r.boot()
	}
	deadline := time.Now().Add(d)
	var (
		mu  sync.Mutex
		out []session
		wg  sync.WaitGroup
	)
	for tid := 1; tid <= runtime.NumCPU(); tid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := r.nextSession(tid)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// kernelTotals sums the device kernels of every farm. A device rebooted
// after a quarantine restarts its kernel clock, so the traced run's
// virtual-time check fails if one ever does; one panic in twenty sessions
// never quarantines a device.
func (r *farmRunner) kernelTotals() (vclock.Duration, int64) {
	vt, sc := r.retiredVT, r.retiredSyscalls
	for i := 0; i < r.f.Devices(); i++ {
		k := r.f.Device(i).System().Android.Kernel
		vt += k.Clock().Now()
		sc += k.SyscallCount()
	}
	return vt, sc
}

func (r *farmRunner) close() { r.f.Close() }
