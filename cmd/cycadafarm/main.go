// Command cycadafarm boots a multi-device Cycada farm — N independent device
// stacks in one process — and pushes M iOS app sessions through its
// scheduler: harness scenarios or CYTR trace replays, placed least-loaded
// (or pinned/affinity-hashed), admitted through a bounded queue with
// backpressure. It reports scheduler throughput and per-session frame
// health, as text or JSON.
//
// Usage:
//
//	cycadafarm -devices 2 -sessions 8 -scenario passmark-2d
//	cycadafarm -devices 4 -sessions 32 -trace webkit-tiles.cytr -verify -json
//	cycadafarm -devices 2 -sessions 8 -scenario passmark-2d -faults seed=7,rate=0.02,points=egl_present
//	cycadafarm -devices 3 -sessions 12 -trace t.cytr -verify -retries 1 \
//	    -deadline 2s -faults seed=7,rate=0.1,times=1,points=session_hang
//
// With -verify every trace session runs differential checking: per-present
// screen checksums and the final frame must match the recorded values, which
// proves a farm session renders byte-identically to a single-stack replay.
// With -faults every session gets its own session-scoped injector (same
// schedule, per-session decision sequences), exercising failure isolation.
//
// Self-healing controls: -deadline arms the per-session watchdog (wedged
// bodies are abandoned and their devices quarantined and rebooted), -retries
// gives failed sessions extra placements on other devices, -drain bounds
// Close, and -quarantine-after / -max-reboots / -reboot-backoff tune the
// device health state machine. Each failed session is reported with its
// classified error kind, attempt count, and the devices it tried.
//
// With -listen the farm serves live telemetry while it runs: /metrics in
// Prometheus text format (per-device frame histograms, rolling-window
// percentiles and rates, device-health gauges), /healthz with the scheduler
// stats as JSON, /snapshot, and /events streaming per-device flight-recorder
// incident dumps (watchdog timeouts, quarantines) as SSE.
//
// SIGINT or SIGTERM stops admission: the farm drains, reports the sessions
// it submitted and exits as it would have after the last.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cycada/internal/farm"
	"cycada/internal/fault"
	"cycada/internal/harness"
	"cycada/internal/obs"
	"cycada/internal/obs/telemetry"
	"cycada/internal/replay"
)

type sessionReport struct {
	Name       string  `json:"name"`
	Device     int     `json:"device"`
	OK         bool    `json:"ok"`
	Error      string  `json:"error,omitempty"`
	ErrKind    string  `json:"err_kind,omitempty"`
	Attempts   int     `json:"attempts"`
	Devices    []int   `json:"devices_tried,omitempty"`
	Checksum   string  `json:"checksum"`
	Frames     int64   `json:"frames"`
	FrameP50us float64 `json:"frame_p50_us"`
	FrameP95us float64 `json:"frame_p95_us"`
	FrameP99us float64 `json:"frame_p99_us"`
	QueuedMs   float64 `json:"queued_ms"`
	RanMs      float64 `json:"ran_ms"`
	Faults     string  `json:"faults,omitempty"`
}

type report struct {
	Devices        int             `json:"devices"`
	Sessions       int             `json:"sessions"`
	Completed      uint64          `json:"completed"`
	Failed         uint64          `json:"failed"`
	Rejected       uint64          `json:"rejected"`
	QueueHighWater int             `json:"queue_high_water"`
	WallMs         float64         `json:"wall_ms"`
	SessionsPerSec float64         `json:"sessions_per_sec"`
	Retried        int64           `json:"retried"`
	TimedOut       int64           `json:"timed_out"`
	Abandoned      int64           `json:"abandoned"`
	Quarantines    int64           `json:"quarantines"`
	Reboots        int64           `json:"reboots"`
	Retires        int64           `json:"retires"`
	PerSession     []sessionReport `json:"per_session"`
}

type options struct {
	devices, sessions int
	scenario, trace   string
	verify            bool
	queue, inflight   int
	workers           int
	sharePool         bool
	faults            string
	jsonOut, snapshot bool
	listen            string

	deadline        time.Duration
	drain           time.Duration
	retries         int
	quarantineAfter int
	maxReboots      int
	rebootBackoff   time.Duration
}

func main() {
	var o options
	flag.IntVar(&o.devices, "devices", 2, "device stacks to boot")
	flag.IntVar(&o.sessions, "sessions", 8, "sessions to run")
	flag.StringVar(&o.scenario, "scenario", "", fmt.Sprintf("harness scenario to run per session (one of %v)", harness.Scenarios()))
	flag.StringVar(&o.trace, "trace", "", "CYTR trace to replay per session (alternative to -scenario)")
	flag.BoolVar(&o.verify, "verify", false, "differentially verify every trace replay against its recorded checksums")
	flag.IntVar(&o.queue, "queue", 0, "admission queue bound (0 = 4x devices)")
	flag.IntVar(&o.inflight, "inflight", 0, "max concurrently running sessions (0 = devices)")
	flag.IntVar(&o.workers, "workers", 0, "raster workers per device (0 = GOMAXPROCS)")
	flag.BoolVar(&o.sharePool, "share-pool", false, "one shared raster pool across all devices instead of one per device")
	flag.StringVar(&o.faults, "faults", "", "per-session fault schedule, e.g. seed=7,rate=0.02,points=egl_present")
	flag.BoolVar(&o.jsonOut, "json", false, "emit the report as JSON")
	flag.BoolVar(&o.snapshot, "snapshot", false, "print a live-state snapshot (including the farm section) after the run")
	flag.StringVar(&o.listen, "listen", "", "serve telemetry (/metrics /snapshot /healthz /events) on this address during the run")
	flag.DurationVar(&o.deadline, "deadline", 0, "per-session watchdog deadline (0 = none)")
	flag.DurationVar(&o.drain, "drain", 0, "Close drain deadline (0 = wait for a full graceful drain)")
	flag.IntVar(&o.retries, "retries", 0, "failed-session retry budget (each retry lands on a different device)")
	flag.IntVar(&o.quarantineAfter, "quarantine-after", 0, "consecutive failures before a device is quarantined (0 = default 3, <0 = never)")
	flag.IntVar(&o.maxReboots, "max-reboots", 0, "reboots before a device retires permanently (0 = default 5, <0 = unlimited)")
	flag.DurationVar(&o.rebootBackoff, "reboot-backoff", 0, "initial crash-loop backoff before a quarantined device reboots (0 = default 10ms)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "cycadafarm:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if (o.scenario == "") == (o.trace == "") {
		return fmt.Errorf("exactly one of -scenario or -trace is required")
	}
	var tr *replay.Trace
	if o.trace != "" {
		var err error
		if tr, err = replay.ReadFile(o.trace); err != nil {
			return err
		}
	}
	var sched *fault.Schedule
	if o.faults != "" {
		s, err := fault.ParseSpec(o.faults)
		if err != nil {
			return err
		}
		sched = &s
	}
	if o.snapshot {
		obs.SetSnapshotSourcesEnabled(true)
	}

	f := farm.New(farm.Config{
		Devices:         o.devices,
		MaxQueue:        o.queue,
		MaxInFlight:     o.inflight,
		RasterWorkers:   o.workers,
		SharePool:       o.sharePool,
		SessionDeadline: o.deadline,
		DrainDeadline:   o.drain,
		QuarantineAfter: o.quarantineAfter,
		MaxReboots:      o.maxReboots,
		RebootBackoff:   o.rebootBackoff,
	})
	if o.listen != "" {
		win := obs.NewWindows(time.Second, 60)
		srv, err := telemetry.Serve(o.listen, telemetry.Options{Windows: win})
		if err != nil {
			return err
		}
		defer srv.Close()
		telemetry.AttachFarm(srv, f)
		win.Start()
		defer win.Stop()
		fmt.Printf("telemetry: listening on %s\n", srv.URL())
	}
	stop, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	start := time.Now()
	handles := make([]*farm.Session, 0, min(o.sessions, 1024))
	next := 0 // oldest handle not yet waited on (backpressure)
	for i := 0; i < o.sessions && stop.Err() == nil; i++ {
		spec := farm.SessionSpec{
			Name:    fmt.Sprintf("s%03d", i),
			Faults:  sched,
			Retries: o.retries,
		}
		if tr != nil {
			spec.Trace, spec.Verify = tr, o.verify
		} else {
			spec.Scenario = o.scenario
		}
		for {
			s, err := f.Submit(spec)
			if err == nil {
				handles = append(handles, s)
				break
			}
			if err != farm.ErrSaturated {
				return err
			}
			// Backpressure: the queue is full, so drain the oldest outstanding
			// session before retrying (what a real load balancer does when the
			// farm pushes back).
			if next >= len(handles) {
				return fmt.Errorf("saturated with no outstanding sessions (queue=%d)", o.queue)
			}
			<-handles[next].Done()
			next++
		}
	}
	cancel() // admission is over: a second signal ends the drain by default
	f.Wait()
	wall := time.Since(start)
	stats := f.Stats()

	rep := report{
		Devices:        o.devices,
		Sessions:       len(handles),
		Completed:      stats.Completed,
		Failed:         stats.Failed,
		Rejected:       stats.Rejected,
		QueueHighWater: stats.QueueHighWater,
		WallMs:         float64(wall.Microseconds()) / 1e3,
		SessionsPerSec: float64(len(handles)) / wall.Seconds(),
		Retried:        stats.Retried,
		TimedOut:       stats.TimedOut,
		Abandoned:      stats.Abandoned,
		Quarantines:    stats.Quarantines,
		Reboots:        stats.Reboots,
		Retires:        stats.Retires,
	}
	failed := 0
	for _, s := range handles {
		res := s.Result()
		sr := sessionReport{
			Name:       res.Name,
			Device:     res.Device,
			OK:         res.Err == nil,
			Attempts:   res.Attempts,
			Checksum:   fmt.Sprintf("%08x", res.Checksum),
			Frames:     res.Frames,
			FrameP50us: res.FrameP50.Micros(),
			FrameP95us: res.FrameP95.Micros(),
			FrameP99us: res.FrameP99.Micros(),
			QueuedMs:   float64(res.Queued.Microseconds()) / 1e3,
			RanMs:      float64(res.Ran.Microseconds()) / 1e3,
		}
		if res.Attempts > 1 {
			sr.Devices = res.DevicesTried
		}
		if res.Err != nil {
			sr.Error = res.Err.Error()
			sr.ErrKind = res.ErrKind()
			failed++
		}
		if sched != nil {
			sr.Faults = res.FaultStats.String()
		}
		rep.PerSession = append(rep.PerSession, sr)
	}

	if o.snapshot {
		// Capture while the farm's snapshot source is still registered.
		defer fmt.Print(obs.Snapshot().Text())
	}
	f.Close()

	if o.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Printf("farm: %d devices, %d sessions in %v (%.1f sessions/sec), queue high-water %d, %d rejected\n",
			rep.Devices, rep.Sessions, wall.Round(time.Millisecond), rep.SessionsPerSec,
			rep.QueueHighWater, rep.Rejected)
		if rep.Retried+rep.TimedOut+rep.Quarantines+rep.Reboots+rep.Retires > 0 {
			fmt.Printf("health: retried=%d timed-out=%d abandoned=%d quarantines=%d reboots=%d retires=%d\n",
				rep.Retried, rep.TimedOut, rep.Abandoned, rep.Quarantines, rep.Reboots, rep.Retires)
		}
		for _, sr := range rep.PerSession {
			status := "ok  "
			if !sr.OK {
				status = "FAIL"
			}
			fmt.Printf("%s %s dev=%d frames=%d p95=%.1fus queued=%.1fms ran=%.1fms screen=%s",
				status, sr.Name, sr.Device, sr.Frames, sr.FrameP95us, sr.QueuedMs, sr.RanMs, sr.Checksum)
			if sr.Attempts > 1 {
				fmt.Printf(" attempts=%d devices=%v", sr.Attempts, sr.Devices)
			}
			if sr.Faults != "" {
				fmt.Printf(" faults[%s]", sr.Faults)
			}
			if sr.Error != "" {
				fmt.Printf(" kind=%s err=%v", sr.ErrKind, sr.Error)
			}
			fmt.Println()
		}
	}
	if failed > 0 && sched == nil {
		return fmt.Errorf("%d/%d sessions failed", failed, len(handles))
	}
	return nil
}
