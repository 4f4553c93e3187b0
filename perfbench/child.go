package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"ctbia/internal/cpu"
	"ctbia/internal/obs"
)

// scale sizes a workload: paper scale for measurement, quick scale for
// the benchmark's own smoke tests.
type scale struct{ quick bool }

var paperScale = scale{}

// job is one workload instance, its inputs already generated.
type job interface {
	// run is the timed phase: the workload's fixed batch of work. It
	// returns how many ops it attempted and how many failed (panicked).
	run(rec *recorder) (attempted, failed int)
	// check runs the correctness gates on run's outputs and returns one
	// message per failed gate.
	check() []string
	// layers adds the workload's own per-layer metrics for a traced run.
	layers(rec *recorder, add func(name string, v float64))
	// close removes whatever set-up created.
	close()
}

// jobs maps each workload name to its set-up: input generation
// from the seed plus any temporary directories.
var jobs = map[string]func(seed int64, sc scale) (job, error){
	"paper":    newPaper,
	"geometry": newGeometry,
	"audit":    newAudit,
}

// runChild performs one measurement in this process and prints its
// childResult as the last line of standard output.
func runChild(name string, seed int64, t0 time.Time, setupOnly, traced bool) int {
	j, err := jobs[name](seed, paperScale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	defer j.close()
	res := childResult{SetupS: time.Since(t0).Seconds()}
	if !setupOnly {
		res = measure(j, traced, res.SetupS)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if len(res.Errors) > 0 {
		return 1
	}
	return 0
}

// measure runs j's timed phase and checks its outputs. Traced, it also
// arms the program's metrics registry, records spans around the
// benchmark's calls into each layer, and measures the layers on their
// own after the timed phase.
func measure(j job, traced bool, setupS float64) childResult {
	var rec *recorder
	var ms0 runtime.MemStats
	if traced {
		obs.Arm()
		rec = newRecorder()
		runtime.ReadMemStats(&ms0)
	}
	built0, reset0 := cpu.MachinesBuilt(), cpu.MachinesReset()
	ru0 := rusage()
	from := rec.now()
	start := time.Now()
	attempted, failed := j.run(rec)
	wall := time.Since(start)
	ru1 := rusage()
	res := childResult{
		SetupS:    setupS,
		WallS:     wall.Seconds(),
		CPUS:      cpuSeconds(ru1) - cpuSeconds(ru0),
		PeakRSSMB: float64(ru1.Maxrss) / 1024,
		Attempted: attempted,
		Failed:    failed,
	}
	if !traced {
		res.Errors = j.check()
		return res
	}
	to := rec.now()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	built, reset := cpu.MachinesBuilt()-built0, cpu.MachinesReset()-reset0
	res.Errors = j.check()

	layers := make(map[string]metric)
	add := func(name string, v float64) { layers[name] = metric{v, layerUnit(name)} }
	for _, name := range layerNames {
		add(name, 0)
	}
	self, unattributed := selfTimes(rec.spans, from, to)
	for l, d := range self {
		add("self_s."+l, d.Seconds())
	}
	add("bench.unattributed_s", unattributed.Seconds())
	add("bench.fail_ratio", ratio(failed, attempted))
	add("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	add("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	add("go.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	add("cpu.machines_built", float64(built))
	add("cpu.machines_reset", float64(reset))

	snap := obs.Snapshot()
	for _, k := range []string{"trace.records", "trace.replays", "trace.shared_replays"} {
		add(k, float64(snap[k]))
	}
	skipped, total := snap["bia.ds_lines_skipped"], snap["bia.ds_lines_total"]
	add("bia.ds_lines_skipped", float64(skipped))
	add("bia.ds_lines_total", float64(total))
	add("bia.skip_ratio", ratio(int(skipped), int(total)))

	j.layers(rec, add)
	if insts := layers["cpu.sim_insts"].Value; insts > 0 {
		add("cpu.host_ns_per_sim_inst", float64(wall.Nanoseconds())/insts)
	}
	microLayers(rec, add)
	if d := rec.durations("cpu.build"); len(d) > 0 {
		add("cpu.build_ms", meanMS(d))
	}
	res.Layers = layers
	return res
}

func ratio(num, base int) float64 {
	if base == 0 {
		return 0
	}
	return float64(num) / float64(base)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail for a valid struct pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// safely runs one op, turning a panic into an error so a failing op is
// counted and the batch goes on.
func safely(op func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	op()
	return nil
}
