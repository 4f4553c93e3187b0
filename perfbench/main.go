// Command perfbench is the repository's benchmark: it measures the host
// time, CPU and memory the simulator takes to regenerate the paper's
// tables (workload "paper"), to sweep machine geometries ("geometry")
// and to run a secret-swap security audit ("audit"), and checks every
// output for correctness. See README.md beside this file.
//
//	perfbench --workload paper --seed 1 --seconds 36 --trace 0
//
// Each measurement runs in a fresh child process, so machine pools,
// in-memory traces and result caches start empty. With --trace 0 the
// last line of standard output is one JSON object with the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics of a traced
// run instead. The exit code is non-zero when any correctness check
// fails.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// setupProbes is how many extra set-up-only children each run starts,
// so setup_s is a median over several process starts even for the
// workload whose timed phase fits only a few times into a run.
const setupProbes = 7

// runTimeout bounds a whole run, children included, below the 180 s a
// run may take.
const runTimeout = 170 * time.Second

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childResult is what one child process reports to its parent.
type childResult struct {
	SetupS    float64           `json:"setup_s"`
	WallS     float64           `json:"wall_s"`
	CPUS      float64           `json:"cpu_s"`
	PeakRSSMB float64           `json:"peak_rss_mb"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Layers    map[string]metric `json:"layers,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "workload: paper, geometry or audit")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 36, "how long to keep starting measured runs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	child := flag.Bool("child", false, "internal: run one measurement in this process")
	setupOnly := flag.Bool("setup-only", false, "internal: with -child, stop after set-up")
	t0 := flag.Int64("t0", 0, "internal: with -child, the parent's clock (Unix ns) when it started this process")
	flag.Parse()

	if _, ok := jobs[*workload]; !ok || flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper|geometry|audit --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *child {
		os.Exit(runChild(*workload, *seed, time.Unix(0, *t0), *setupOnly, *trace == 1))
	}
	os.Exit(drive(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1))
}

// drive starts the child processes of one run and prints its result.
// Untraced, it repeats the workload in fresh children until the time is
// up and reports medians. Traced, it alternates untraced and traced
// children, takes the per-layer metrics from the traced ones and the
// tracing overhead from the two kinds' walls.
func drive(workload string, seed int64, budget time.Duration, traced bool) int {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var setups []float64
	var plain, withTrace []childResult
	var errs []string
	run := func(setupOnly, tr bool) (childResult, bool) {
		r, err := spawn(ctx, exe, workload, seed, setupOnly, tr)
		if err != nil {
			errs = append(errs, err.Error())
			return r, false
		}
		errs = append(errs, r.Errors...)
		setups = append(setups, r.SetupS)
		return r, true
	}
	for i := 0; i < setupProbes && len(errs) == 0; i++ {
		run(true, false)
	}
	// Start another child only while it is expected to end within the
	// budget, judged by the longest child so far.
	var longest time.Duration
	for len(errs) == 0 && (len(plain) == 0 || (traced && len(withTrace) == 0) || time.Since(start)+longest <= budget) {
		tr := traced && len(withTrace) < len(plain)
		childStart := time.Now()
		r, ok := run(false, tr)
		if !ok {
			break
		}
		longest = max(longest, time.Since(childStart))
		if tr {
			withTrace = append(withTrace, r)
		} else {
			plain = append(plain, r)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d child %d (traced %v): wall %.3fs cpu %.3fs rss %.1fMB setup %.4fs, %d/%d ops failed\n",
			workload, seed, len(plain)+len(withTrace), tr, r.WallS, r.CPUS, r.PeakRSSMB, r.SetupS, r.Failed, r.Attempted)
	}

	res := result{Correct: len(errs) == 0, Metrics: make(map[string]metric)}
	for _, r := range append(append([]childResult(nil), plain...), withTrace...) {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	pick := func(rs []childResult, f func(childResult) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	if !traced {
		res.Metrics["wall_s"] = metric{pick(plain, func(r childResult) float64 { return r.WallS }), "s"}
		res.Metrics["cpu_s"] = metric{pick(plain, func(r childResult) float64 { return r.CPUS }), "s"}
		res.Metrics["peak_rss_mb"] = metric{pick(plain, func(r childResult) float64 { return r.PeakRSSMB }), "MB"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	} else {
		res.Metrics = medianLayers(withTrace)
		untracedWall := pick(plain, func(r childResult) float64 { return r.WallS })
		tracedWall := pick(withTrace, func(r childResult) float64 { return r.WallS })
		res.Metrics["bench.trace_overhead_pct"] = metric{100 * (tracedWall/untracedWall - 1), "%"}
	}
	if res.Attempted > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: fail_ratio %d/%d = %g\n", res.Failed, res.Attempted, float64(res.Failed)/float64(res.Attempted))
	}
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", e)
	}
	if len(plain) == 0 || (traced && len(withTrace) == 0) {
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// medianLayers takes each per-layer metric's median across traced runs.
func medianLayers(rs []childResult) map[string]metric {
	vals := make(map[string][]float64)
	units := make(map[string]string)
	for _, r := range rs {
		for k, m := range r.Layers {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	out := make(map[string]metric, len(vals))
	for k, xs := range vals {
		out[k] = metric{median(xs), units[k]}
	}
	return out
}

// spawn runs one child process and decodes the result it prints. The
// parent's clock reading just before the start goes to the child, which
// measures its set-up time from it.
func spawn(ctx context.Context, exe, workload string, seed int64, setupOnly, traced bool) (childResult, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-child", "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-trace", trace, "-setup-only=" + strconv.FormatBool(setupOnly)}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, append(args, "-t0", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var r childResult
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		if runErr == nil {
			runErr = errors.New("no result line")
		}
		return r, fmt.Errorf("%s child: %v", workload, runErr)
	}
	return r, nil
}
