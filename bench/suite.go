package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
)

// suiteRounds splits each workload's measured time into rounds. Rounds of
// the workloads are interleaved (A B C D, B C D A, ...) so slow drift of the
// host hits every workload alike, and each round is a child process of its
// own, so load always comes from one process and each round reads its own
// peak memory.
const suiteRounds = 5

// hostInfo records where a results file was measured.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// suiteResults is the results file of a full benchmark run: every round's
// complete result, so anyone can recompute the medians and spreads.
type suiteResults struct {
	Host    hostInfo     `json:"host"`
	Seed    uint64       `json:"seed"`
	Seconds float64      `json:"seconds_per_workload"`
	Runs    []*runResult `json:"runs"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runChild runs one round as a child process and returns its detail.
func runChild(exe, workload string, seed uint64, seconds float64, trace int, outDir string) (*runResult, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var res *runResult
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<26)
	for sc.Scan() {
		if d, ok := strings.CutPrefix(sc.Text(), "detail "); ok {
			res = &runResult{}
			if err := json.Unmarshal([]byte(d), res); err != nil {
				return nil, fmt.Errorf("%s: parse detail: %w", workload, err)
			}
		}
	}
	if res == nil {
		return nil, fmt.Errorf("%s: no result (%v)", workload, runErr)
	}
	return res, nil
}

// runSuite runs every workload in interleaved untraced rounds, then one
// traced round each, prints the summary and writes the results file. It
// fails when any session failed or any exact result differed between rounds.
func runSuite(seed uint64, seconds float64, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	results := &suiteResults{
		Host: hostInfo{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Commit:     commit(),
		},
		Seed:    seed,
		Seconds: seconds,
	}
	per := seconds / suiteRounds
	for round := 0; round < suiteRounds; round++ {
		for i := range workloads {
			w := workloads[(i+round)%len(workloads)]
			res, err := runChild(exe, w.name, seed, per, 0, outDir)
			if err != nil {
				return err
			}
			fmt.Printf("round %d/%d %-12s %4d sessions  p50 %9.3f ms  %8.3f sessions/s\n", round+1, suiteRounds,
				w.name, res.Attempted, res.Metrics["session_p50_ms"], res.Metrics["sessions_per_s"])
			results.Runs = append(results.Runs, res)
		}
	}
	for _, w := range workloads {
		res, err := runChild(exe, w.name, seed, per, 1, outDir)
		if err != nil {
			return err
		}
		results.Runs = append(results.Runs, res)
	}

	problems := summarize(os.Stdout, results.Runs)
	path := filepath.Join(outDir, fmt.Sprintf("results-seed%d.json", seed))
	if err := writeJSON(path, results); err != nil {
		return err
	}
	fmt.Printf("results: %s\n", path)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Printf("PROBLEM: %s\n", p)
		}
		return errIncorrect
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// byWorkload groups runs by workload, keeping the workload order.
func byWorkload(runs []*runResult) map[string][]*runResult {
	out := map[string][]*runResult{}
	for _, r := range runs {
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out
}

func allEqual(vs []float64) bool {
	for _, v := range vs {
		if v != vs[0] {
			return false
		}
	}
	return true
}

func values(runs []*runResult, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// summarize prints each workload's end-to-end metrics over its untraced
// rounds and its traced layer table, and returns every problem found: failed
// sessions, failed checks, and exact results that differ between rounds
// (traced and untraced alike).
func summarize(w io.Writer, runs []*runResult) []string {
	var problems []string
	groups := byWorkload(runs)
	for _, wl := range workloads {
		all := groups[wl.name]
		if len(all) == 0 {
			continue
		}
		var untraced, traced []*runResult
		for _, r := range all {
			for _, p := range r.Problems {
				problems = append(problems, fmt.Sprintf("%s seed %d trace %d: %s", wl.name, r.Seed, r.Trace, p))
			}
			if r.Trace == 1 {
				traced = append(traced, r)
			} else {
				untraced = append(untraced, r)
			}
		}
		fmt.Fprintf(w, "\n%s (%s): %d untraced runs\n", wl.name, wl.why, len(untraced))
		fmt.Fprintf(w, "  %-22s %-6s %-7s %-6s %12s %12s %12s %8s  %s\n",
			"metric", "unit", "clock", "bound", "median", "q1", "q3", "spread", "samples per run")
		for _, m := range untracedMetrics {
			vs := values(untraced, m.Name)
			if len(vs) == 0 {
				fmt.Fprintf(w, "  %-22s %-6s %-7s %-6s %12s  not measured on this workload\n", m.Name, m.Unit, m.Clock, "-", "-")
				continue
			}
			q1, q3 := quartiles(vs)
			samples := ""
			if len(untraced) > 0 {
				samples = fmt.Sprintf("n=%d sessions", untraced[0].Attempted)
				if m.Name == "session_p90_ms" {
					samples = fmt.Sprintf("p%.1f of n=%d, %d beyond", 100*untraced[0].TailQuantile,
						len(untraced[0].SessionMS), untraced[0].TailBeyond)
				}
				if m.Name == "setup_s" {
					samples = fmt.Sprintf("median of %d set-ups", len(untraced[0].SetupS))
				}
			}
			fmt.Fprintf(w, "  %-22s %-6s %-7s %5.0f%% %12.4f %12.4f %12.4f %7.2f%%  %s\n",
				m.Name, m.Unit, m.Clock, 100*m.Bound, median(vs), q1, q3, 100*spread(vs), samples)
			if m.Bound == 0 && !allEqual(vs) {
				problems = append(problems, fmt.Sprintf("%s: %s differs between rounds: %v", wl.name, m.Name, vs))
			}
		}
		// Exact per-trace results must match across every round, traced or not.
		for _, r := range all[1:] {
			if !reflect.DeepEqual(r.Fingerprints, all[0].Fingerprints) {
				problems = append(problems, fmt.Sprintf("%s: per-trace results differ between rounds: %+v vs %+v",
					wl.name, all[0].Fingerprints, r.Fingerprints))
				break
			}
		}
		for _, r := range traced {
			printLayers(w, fmt.Sprintf("  traced run, per session: trace overhead %.1f%%, %.2f%% of wall and %.3f%% of virtual time unaccounted",
				r.Metrics["obs.trace_overhead_pct"], r.Metrics["layers.unaccounted_wall_pct"], r.Metrics["layers.unaccounted_vt_pct"]), r.Layers)
			for _, m := range perLayer {
				fmt.Fprintf(w, "    %-30s %12.4f %s\n", m.Name, r.Metrics[m.Name], m.Unit)
			}
		}
	}
	return problems
}

// loadRuns reads runs from a suite results file or from a file of detail
// lines (one runResult JSON object per line, as ab.sh collects them).
func loadRuns(path string) ([]*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var suite suiteResults
	if err := json.Unmarshal(data, &suite); err == nil && len(suite.Runs) > 0 {
		return suite.Runs, nil
	}
	var runs []*runResult
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(strings.TrimPrefix(line, "detail "))
		if line == "" {
			continue
		}
		r := &runResult{}
		if err := json.Unmarshal([]byte(line), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// compareFiles compares the untraced runs of two files, workload by
// workload: A is the parent (or the first set), B the change (or the
// second set). Runs pair up in file order.
func compareFiles(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("compare needs two files: A (parent) and B (change)")
	}
	a, err := loadRuns(args[0])
	if err != nil {
		return err
	}
	b, err := loadRuns(args[1])
	if err != nil {
		return err
	}
	untraced := func(runs []*runResult) []*runResult {
		var out []*runResult
		for _, r := range runs {
			if r.Trace == 0 {
				out = append(out, r)
			}
		}
		return out
	}
	ga, gb := byWorkload(untraced(a)), byWorkload(untraced(b))
	for _, wl := range workloads {
		ra, rb := ga[wl.name], gb[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s: A %d runs, B %d runs\n", wl.name, len(ra), len(rb))
		fmt.Fprintf(w, "  %-22s %-6s %-32s %-32s %8s %7s  %s\n", "metric", "unit",
			"A median [q1, q3]", "B median [q1, q3]", "B worse", "B wins", "verdict (bound)")
		for _, m := range untracedMetrics {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			st := compareAB(va, vb, m.Better, m.Bound)
			agreeNote := "agree"
			if !agree(va, vb, m.Bound) {
				agreeNote = "differ"
			}
			fmt.Fprintf(w, "  %-22s %-6s %-32s %-32s %7.2f%% %3d/%-3d  %s, %s (%.0f%%)\n", m.Name, m.Unit,
				fmt.Sprintf("%.4f [%.4f, %.4f]", st.MedianA, st.Q1A, st.Q3A),
				fmt.Sprintf("%.4f [%.4f, %.4f]", st.MedianB, st.Q1B, st.Q3B),
				100*st.Worse, st.Wins, st.Pairs, st.Verdict, agreeNote, 100*m.Bound)
		}
	}
	return nil
}
