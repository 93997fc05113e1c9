// Command cycadareplay records, replays, verifies, and inspects traces of
// the cross-persona graphics command stream.
//
// Usage:
//
//	cycadareplay record -scenario passmark-2d -o trace.cytr
//	cycadareplay replay -i trace.cytr [-n 3] [-batch 64] [-faults seed=7,rate=0.05] [-listen :9090]
//	cycadareplay verify [-batch 64] trace.cytr [more.cytr ...]
//	cycadareplay stat -i trace.cytr [-top 15]
//
// record runs a workload (PassMark sections or a WebKit tile-upload sequence)
// on a freshly booted Cycada iOS configuration with the boundary taps
// attached, and writes the capture. replay re-drives a trace against a fresh
// Android stack with no iOS app code present. verify additionally checks
// per-present screen checksums and the final frame against the recorded
// values — the differential regression gate used on the golden traces in
// internal/replay/testdata. stat prints a per-call-kind histogram.
//
// With -batch N, replay/verify drive GLES events through the batched command
// encoder (runs of batchable calls cross the persona boundary in one
// impersonation window of at most N calls) instead of one crossing per call.
// The logical call stream — and therefore every differential check — is
// identical either way; 0 (the default) keeps the serial path.
//
// With -listen, replay runs an embedded telemetry server exposing /metrics
// (Prometheus text), /snapshot and /healthz (JSON), and /events (SSE incident
// stream) while the run executes.
//
// Sustained load and replay throughput are cycadafarm's job:
// `cycadafarm -devices K -sessions N -trace trace.cytr -listen addr` replays
// the trace on K stacks behind admission control, watchdogs and failover,
// reports sessions/sec, and serves farm-wide rolling windows on /metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cycada/internal/fault"
	"cycada/internal/harness"
	"cycada/internal/obs"
	"cycada/internal/obs/telemetry"
	"cycada/internal/replay"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "stat":
		err = cmdStat(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "cycadareplay: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cycadareplay:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  cycadareplay record -scenario <name> -o <file>   capture a workload (scenarios: %v)
  cycadareplay replay -i <file> [-n N] [-batch B] [-faults S] [-listen addr]  re-drive a trace N times (with S, chaos mode: seed=7,rate=0.05,points=binder+egl_present)
  cycadareplay verify [-batch B] <file> [file ...] replay with differential frame checks
  (-batch B: encode GLES runs into boundary batches of <= B calls; 0 = serial)
  (-listen addr: serve /metrics /snapshot /healthz /events during the run)
  cycadareplay stat -i <file> [-top N]             per-call-kind histogram
sustained load and throughput: cycadafarm -devices K -sessions N -trace <file> [-listen addr]
`, harness.Scenarios())
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	scenario := fs.String("scenario", "passmark-2d", "workload to capture")
	out := fs.String("o", "", "output trace file (required)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("record: -o is required")
	}
	tr, err := harness.RecordScenario(*scenario)
	if err != nil {
		return err
	}
	if err := replay.WriteFile(*out, tr); err != nil {
		return err
	}
	data, err := os.ReadFile(*out)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %q: %d events, %d presents, %d bytes -> %s\n",
		tr.Label, len(tr.Events), tr.Presents(), len(data), *out)
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	n := fs.Int("n", 1, "number of replays")
	faults := fs.String("faults", "", "fault schedule, e.g. seed=7,rate=0.05,points=binder+egl_present (chaos mode)")
	batch := fs.Int("batch", 0, "batched-encoder cap per boundary crossing (0 = serial)")
	snapshot := fs.Bool("snapshot", false, "print a live-state introspection snapshot after the run")
	listen := fs.String("listen", "", "serve telemetry (/metrics /snapshot /healthz /events) on this address during the run")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("replay: -i is required")
	}
	if *listen != "" {
		srv, err := serveDefaultTelemetry(*listen)
		if err != nil {
			return err
		}
		defer srv.Close()
	}
	if *snapshot {
		obs.SetSnapshotSourcesEnabled(true)
		obs.DefaultHistograms.SetEnabled(true)
		defer func() { fmt.Print(obs.Snapshot().Text()) }()
	}
	tr, err := replay.ReadFile(*in)
	if err != nil {
		return err
	}
	if *faults != "" {
		sched, err := fault.ParseSpec(*faults)
		if err != nil {
			return err
		}
		failed := 0
		for i := 0; i < *n; i++ {
			s := sched
			s.Seed = sched.Seed + uint64(i)
			var res *replay.ChaosResult
			var err error
			if *batch > 0 {
				res, err = replay.ChaosBatched(tr, s, *batch)
			} else {
				res, err = replay.Chaos(tr, s)
			}
			if err != nil {
				return err
			}
			fmt.Println(res)
			if err := res.Check(); err != nil {
				fmt.Println(" ", err)
				// The failure report carries the flight recorder's recent
				// event tail and the live-state snapshot taken at violation.
				if res.Flight != nil {
					fmt.Print(res.Flight.String())
				}
				if res.Snapshot != nil {
					fmt.Print(res.Snapshot.Text())
				}
				failed++
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d/%d chaos replays violated invariants", failed, *n)
		}
		return nil
	}
	for i := 0; i < *n; i++ {
		res, err := replay.Play(tr, replay.Options{BatchCap: *batch})
		if err != nil {
			return err
		}
		if *batch > 0 {
			fmt.Printf("replayed %q: %d events, %d presents, %d calls batched over %d crossings\n",
				tr.Label, res.Events, res.Presents, res.BatchedCalls, res.Crossings)
		} else {
			fmt.Printf("replayed %q: %d events, %d presents\n", tr.Label, res.Events, res.Presents)
		}
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	batch := fs.Int("batch", 0, "batched-encoder cap per boundary crossing (0 = serial)")
	fs.Parse(args)
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("verify: no trace files given")
	}
	failed := 0
	for _, path := range files {
		tr, err := replay.ReadFile(path)
		if err != nil {
			return err
		}
		res, err := replay.Play(tr, replay.Options{Verify: true, BatchCap: *batch})
		if err == nil {
			err = res.VerifyError()
		}
		if err != nil {
			fmt.Printf("FAIL %s: %v\n", path, err)
			failed++
			continue
		}
		fmt.Printf("ok   %s: %d events, %d/%d present checksums match, final frame %08x matches\n",
			path, res.Events, res.Presents-len(res.Mismatches), res.Presents, res.FinalGot)
	}
	if failed > 0 {
		return fmt.Errorf("%d/%d traces diverged", failed, len(files))
	}
	return nil
}

// serveDefaultTelemetry starts the exposition server over the process-wide
// default registries (what each replay's kernel records into) with a
// rotating 1s window set.
func serveDefaultTelemetry(addr string) (*telemetry.Server, error) {
	obs.DefaultHistograms.SetEnabled(true)
	win := obs.NewWindows(time.Second, 60)
	srv, err := telemetry.Serve(addr, telemetry.Options{Windows: win})
	if err != nil {
		return nil, err
	}
	telemetry.AttachDefaults(srv)
	win.Start()
	fmt.Printf("telemetry: listening on %s\n", srv.URL())
	return srv, nil
}

func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	top := fs.Int("top", 15, "entry points to list")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("stat: -i is required")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	tr, err := replay.Decode(data)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	fmt.Printf("%s: %d bytes encoded\n", *in, len(data))
	replay.Stat(tr).Write(os.Stdout, *top)
	return nil
}
