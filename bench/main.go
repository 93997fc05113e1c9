// Command bench is the repository's benchmark. It replays the three golden
// CYTR traces through the Cycada stack, verifies every session against its
// recording, and reports end-to-end metrics on the wall clock and the
// calibrated virtual clock, plus a per-layer split from a traced run.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -workload replay-2d -seed 1 -trace 0
//	bash bench/run.sh -seed 1                # all workloads, interleaved rounds
//	bash bench/run.sh compare a.jsonl b.jsonl # A/B statistics (see ab.sh)
//
// With -workload, one run prints its metrics and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced (-trace 0) or the per-layer metrics traced (-trace 1).
// The line before it, prefixed "detail ", holds everything the run measured.
// A run whose sessions fail to verify, or whose virtual-clock results differ
// from session to session, reports correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// runSeconds is the default measured time, run_seconds in BENCHMARK.json.
const runSeconds = 25

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (empty: every workload in interleaved rounds)")
		seed         = flag.Uint64("seed", 1, "input seed")
		seconds      = flag.Float64("seconds", runSeconds, "measured seconds: per run with -workload, per workload across its rounds otherwise")
		trace        = flag.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
		outDir       = flag.String("out", ".bench_build/results", "directory for results files and Chrome traces")
	)
	flag.Parse()

	var err error
	switch {
	case flag.Arg(0) == "compare":
		err = compareFiles(os.Stdout, flag.Args()[1:])
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", flag.Args())
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case *seconds <= 0:
		err = fmt.Errorf("-seconds must be positive")
	case *workloadName == "":
		err = runSuite(*seed, *seconds, *outDir)
	default:
		err = runOne(*workloadName, *seed, *seconds, *trace == 1, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that completed but whose outputs did not check.
var errIncorrect = fmt.Errorf("outputs failed verification")

// resultLine is the last line of a single run's output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(name string, seed uint64, seconds float64, traced bool, outDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, err := runWorkload(".", w, seed, seconds, traced, outDir)
	if err != nil {
		return err
	}
	printRun(os.Stdout, res)
	detail, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("detail %s\n", detail)

	line := resultLine{
		Correct:   res.correct(),
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]metricValue{},
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, m := range list {
		line.Metrics[m.Name] = metricValue{Value: res.Metrics[m.Name], Unit: m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	if !line.Correct {
		return errIncorrect
	}
	return nil
}
