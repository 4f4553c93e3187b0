package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"ctbia/internal/cpu"
	"ctbia/internal/harness"
	"ctbia/internal/memp"
	"ctbia/internal/obs"
	"ctbia/internal/resultcache"
	"ctbia/internal/workloads"

	"ctbia/internal/ct"
)

// benchSnapshot is the -benchjson layout: the machine-readable perf
// trajectory record committed as BENCH_pr<N>.json each perf PR. All
// wall times cover the experiment selection the flags picked (-exp,
// -quick); allocs/op cover the fixed core paths regardless of flags.
type benchSnapshot struct {
	Created     string `json:"created"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Quick       bool   `json:"quick"`
	Experiments int    `json:"experiments"`

	// Wall times. Serial and parallel walls run with the trace engine
	// off, so they stay comparable with pre-trace snapshots; the trace
	// walls measure the same serial selection with the engine on —
	// cold (recording) then warm (every repeatable point replayed).
	SerialWallMS   float64 `json:"serial_wall_ms"`
	ParallelWallMS float64 `json:"parallel_wall_ms"`
	// Workers is the explicit worker count the parallel and trace
	// sections ran with. Earlier snapshots let RunAll clamp the section
	// to GOMAXPROCS, so a quick run on a narrow host silently measured
	// the serial loop twice (BENCH_pr7.json: parallel == serial); the
	// bench now raises GOMAXPROCS to Workers for those sections and
	// restores it after, so the recorded walls always reflect the
	// recorded worker count.
	Workers      int     `json:"parallel_workers"`
	TraceWorkers int     `json:"trace_workers"`
	TraceColdMS  float64 `json:"trace_cold_wall_ms"`
	TraceWarmMS  float64 `json:"trace_warm_wall_ms"`
	// TraceReplaySpeedup compares the trace-off and trace-warm walls at
	// the same worker count (both sections run with Workers workers).
	TraceReplaySpeedup float64 `json:"trace_replay_speedup"`
	TraceRecords       uint64  `json:"trace_records"`
	TraceReplays       uint64  `json:"trace_warm_replays"`
	CacheColdMS        float64 `json:"cache_cold_wall_ms"`
	CacheWarmMS        float64 `json:"cache_warm_wall_ms"`
	CacheHits          uint64  `json:"cache_warm_hits"`

	// Shared-trace geometry sweep: the geosweep experiment (4 machine
	// geometries × workloads × strategies) with the engine off, cold
	// (one recording per shared point, every other geometry replaying
	// it) and warm (everything replayed). The speedup is off/warm —
	// the sweep-level win of recording once per (workload, params,
	// strategy) instead of once per machine config.
	GeoSweepOffMS           float64 `json:"geosweep_off_wall_ms"`
	GeoSweepColdMS          float64 `json:"geosweep_cold_wall_ms"`
	GeoSweepWarmMS          float64 `json:"geosweep_warm_wall_ms"`
	SharedTraceSweepSpeedup float64 `json:"shared_trace_sweep_speedup"`
	GeoSweepRecords         uint64  `json:"geosweep_records"`
	GeoSweepSharedReplays   uint64  `json:"geosweep_shared_replays"`
	GeoSweepWorkers         int     `json:"geosweep_workers"`

	// Fan-out replay over the same sweep: the warm geosweep with
	// fan-out enabled (each shared stream decoded once per pass,
	// charging every geometry per chunk) versus fan-out disabled (the
	// per-config warm path above, one full decode pass per geometry —
	// exactly what earlier snapshots measured as geosweep_warm_wall_ms).
	// Both warm walls are the best of three runs at the same worker
	// count, so host noise on a quick selection cannot invert the
	// regimes. FanoutSweepSpeedup follows the sweep-speedup convention
	// established by shared_trace_sweep_speedup: the untraced sweep wall
	// over the fan-out warm wall (the whole-machinery win); the
	// fan-out-vs-per-config regime delta is reported separately as
	// FanoutVsPerConfigSpeedup. DecodePasses is the per-warm-sweep
	// decode-pass count under fan-out — one pass per distinct trace key
	// (shared keys fan out, BIA keys replay per config), not one per
	// replay served.
	GeoSweepFanoutWarmMS     float64 `json:"geosweep_fanout_warm_wall_ms"`
	FanoutSweepSpeedup       float64 `json:"fanout_sweep_speedup"`
	FanoutVsPerConfigSpeedup float64 `json:"fanout_vs_perconfig_speedup"`
	GeoSweepFanoutReplays    uint64  `json:"geosweep_fanout_replays"`
	GeoSweepDecodePasses     uint64  `json:"geosweep_decode_passes"`

	// Machine economy over the serial run.
	MachinesBuilt  uint64 `json:"machines_built"`
	MachinesReused uint64 `json:"machines_reused"`

	// Observability: the serial selection run three times disarmed and
	// three times armed (registry + timeline); the reported walls are
	// the medians and the overhead is their clamped relative delta —
	// host noise on a quick selection can make a single armed run
	// "faster" than a single disarmed one, and a negative overhead
	// figure is noise, not signal. The raw walls stay in the snapshot
	// so the trajectory can see the spread. Metrics is the last armed
	// run's harvest.
	ObsDisarmedWallsMS []float64         `json:"obs_disarmed_walls_ms"`
	ObsArmedWallsMS    []float64         `json:"obs_armed_walls_ms"`
	ObsDisarmedWallMS  float64           `json:"obs_disarmed_wall_ms"`
	ObsArmedWallMS     float64           `json:"obs_armed_wall_ms"`
	ObsOverheadPct     float64           `json:"obs_overhead_pct"`
	TimelineEvents     int               `json:"obs_timeline_events"`
	Metrics            map[string]uint64 `json:"metrics,omitempty"`

	// Fleet metric-merge overhead: folding a realistic worker snapshot
	// (the armed run's own harvest, histograms included) into an armed
	// registry with obs.MergeFlat — what the coordinator pays once per
	// accepted unit. The per-snapshot figure bounds the coordinator-side
	// cost of the v2 observability stream at any sweep size: units/sec ×
	// merge_ns_per_snapshot is the fraction of one core it spends merging.
	MergeSnapshotEntries int     `json:"merge_snapshot_entries"`
	MergeNSPerSnapshot   float64 `json:"merge_ns_per_snapshot"`
	MergeNSPerEntry      float64 `json:"merge_ns_per_entry"`
	MergeAllocsPerOp     float64 `json:"merge_allocs_per_op"`

	// Core-path allocation counts (testing.AllocsPerRun).
	// RunWorkloadAllocs measures the direct (trace-off) path;
	// ReplayWorkloadAllocs the same point served by trace replay.
	AccessAllocsPerOp      float64 `json:"access_allocs_per_op"`
	CTLoadAllocsPerOp      float64 `json:"ctload_allocs_per_op"`
	MachineResetAllocs     float64 `json:"machine_reset_allocs"`
	RunWorkloadAllocs      float64 `json:"run_workload_allocs"`
	ReplayWorkloadAllocs   float64 `json:"replay_workload_allocs"`
	MachineBuildAllocBytes uint64  `json:"machine_build_alloc_bytes"`
}

// medianOf returns the median of a small sample (0 when empty).
func medianOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// writeBenchSnapshot runs the perf snapshot suite and writes it as JSON.
func writeBenchSnapshot(path string, selected []harness.Experiment, opts harness.Options) error {
	snap := benchSnapshot{
		Created:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Quick:       opts.Quick,
		Experiments: len(selected),
		Workers:     opts.Parallel,
	}

	// Serial and parallel wall time with the trace engine off, so both
	// stay comparable with pre-trace snapshots (cache off either way).
	harness.SetTraceMode(harness.TraceOff)
	defer harness.SetTraceMode(harness.TraceOn)
	serialOpts := harness.Options{Quick: opts.Quick, Parallel: 1}
	builtBefore, reusedBefore := cpu.MachinesBuilt(), cpu.MachinesReset()
	start := time.Now()
	harness.RunAll(selected, serialOpts)
	snap.SerialWallMS = float64(time.Since(start).Microseconds()) / 1000
	snap.MachinesBuilt = cpu.MachinesBuilt() - builtBefore
	snap.MachinesReused = cpu.MachinesReset() - reusedBefore

	// Parallel and trace sections run with an explicit worker count.
	// RunAll clamps its workers to GOMAXPROCS, so the bench raises
	// GOMAXPROCS to the section width for these measurements (restored
	// after) — otherwise a narrow host re-measures the serial loop and
	// files it as the parallel wall.
	benchWorkers := opts.Parallel
	if benchWorkers <= 1 {
		benchWorkers = 4
	}
	snap.Workers = benchWorkers
	snap.TraceWorkers = benchWorkers
	parOpts := harness.Options{Quick: opts.Quick, Parallel: benchWorkers}
	prevProcs := runtime.GOMAXPROCS(benchWorkers)
	start = time.Now()
	harness.RunAll(selected, parOpts)
	snap.ParallelWallMS = float64(time.Since(start).Microseconds()) / 1000

	// Trace engine on: a cold run records every repeatable point, a
	// second run replays them through the batched interpreter — both at
	// the parallel section's worker count, so the replay speedup below
	// compares equal-width walls.
	harness.SetTraceMode(harness.TraceOn)
	harness.ResetTraces()
	start = time.Now()
	harness.RunAll(selected, parOpts)
	snap.TraceColdMS = float64(time.Since(start).Microseconds()) / 1000
	snap.TraceRecords, _, _ = harness.TraceStats()
	start = time.Now()
	harness.RunAll(selected, parOpts)
	snap.TraceWarmMS = float64(time.Since(start).Microseconds()) / 1000
	_, snap.TraceReplays, _ = harness.TraceStats()
	if snap.TraceWarmMS > 0 {
		snap.TraceReplaySpeedup = snap.ParallelWallMS / snap.TraceWarmMS
	}
	harness.SetTraceMode(harness.TraceOff)
	runtime.GOMAXPROCS(prevProcs)

	// Shared-trace geometry sweep, isolated to the geosweep experiment
	// so the off/cold/warm walls measure exactly the sweep the sharing
	// machinery targets.
	if geo, err := harness.ByID("geosweep"); err == nil {
		geoSel := []harness.Experiment{geo}
		snap.GeoSweepWorkers = 1
		bestOf := func(n int, run func()) float64 {
			best := 0.0
			for i := 0; i < n; i++ {
				start := time.Now()
				run()
				if w := float64(time.Since(start).Microseconds()) / 1000; i == 0 || w < best {
					best = w
				}
			}
			return best
		}
		start = time.Now()
		harness.RunAll(geoSel, serialOpts)
		snap.GeoSweepOffMS = float64(time.Since(start).Microseconds()) / 1000
		harness.SetTraceMode(harness.TraceOn)
		harness.ResetTraces()
		// Cold and per-config warm run with fan-out disabled — the exact
		// regime earlier snapshots measured, so geosweep_warm_wall_ms
		// stays comparable PR over PR.
		harness.SetTraceFanout(false)
		start = time.Now()
		harness.RunAll(geoSel, serialOpts)
		snap.GeoSweepColdMS = float64(time.Since(start).Microseconds()) / 1000
		snap.GeoSweepRecords, _, _ = harness.TraceStats()
		snap.GeoSweepWarmMS = bestOf(3, func() { harness.RunAll(geoSel, serialOpts) })
		snap.GeoSweepSharedReplays, _ = harness.TraceShareStats()
		if snap.GeoSweepWarmMS > 0 {
			snap.SharedTraceSweepSpeedup = snap.GeoSweepOffMS / snap.GeoSweepWarmMS
		}
		// Same warm sweep with fan-out enabled: counters from one run
		// (every warm run performs the same passes), wall from the best
		// of three.
		harness.SetTraceFanout(true)
		_, passesBefore, _ := harness.TraceFanoutStats()
		harness.RunAll(geoSel, serialOpts)
		fanouts, passes, _ := harness.TraceFanoutStats()
		snap.GeoSweepDecodePasses = passes - passesBefore
		snap.GeoSweepFanoutReplays = fanouts
		snap.GeoSweepFanoutWarmMS = bestOf(3, func() { harness.RunAll(geoSel, serialOpts) })
		if snap.GeoSweepFanoutWarmMS > 0 {
			snap.FanoutSweepSpeedup = snap.GeoSweepOffMS / snap.GeoSweepFanoutWarmMS
		}
		if snap.GeoSweepWarmMS > 0 && snap.GeoSweepFanoutWarmMS > 0 {
			snap.FanoutVsPerConfigSpeedup = snap.GeoSweepWarmMS / snap.GeoSweepFanoutWarmMS
		}
		harness.SetTraceMode(harness.TraceOff)
		harness.ResetTraces()
	}

	// Cold vs warm result-cache runs against a throwaway directory.
	if dir, err := os.MkdirTemp("", "ctbia-bench-cache-*"); err == nil {
		defer os.RemoveAll(dir)
		store, err := resultcache.Open(dir, resultcache.ReadWrite, "")
		if err == nil {
			cacheOpts := harness.Options{Quick: opts.Quick, Parallel: opts.Parallel, Cache: store}
			start = time.Now()
			harness.RunAll(selected, cacheOpts)
			snap.CacheColdMS = float64(time.Since(start).Microseconds()) / 1000
			start = time.Now()
			results := harness.RunAll(selected, cacheOpts)
			snap.CacheWarmMS = float64(time.Since(start).Microseconds()) / 1000
			for _, r := range results {
				if r.Cached {
					snap.CacheHits++
				}
			}
		}
	}

	// Armed observability overhead: the exact serial configuration from
	// the first phase (trace and cache off), three disarmed and three
	// armed runs interleaved-free, medians compared, delta clamped at
	// zero (a negative figure is host noise, not a speedup).
	const obsRuns = 3
	for i := 0; i < obsRuns; i++ {
		start = time.Now()
		harness.RunAll(selected, serialOpts)
		snap.ObsDisarmedWallsMS = append(snap.ObsDisarmedWallsMS, float64(time.Since(start).Microseconds())/1000)
	}
	for i := 0; i < obsRuns; i++ {
		obs.Reset()
		obs.ResetTimeline()
		obs.ResetProgress()
		obs.Arm()
		obs.EnableTimeline()
		start = time.Now()
		harness.RunAll(selected, serialOpts)
		snap.ObsArmedWallsMS = append(snap.ObsArmedWallsMS, float64(time.Since(start).Microseconds())/1000)
		snap.TimelineEvents = obs.TimelineEventCount()
		snap.Metrics = obs.Snapshot()
		obs.Disarm()
		obs.DisableTimeline()
		obs.ResetTimeline()
		obs.Reset()
		obs.ResetProgress()
	}
	snap.ObsDisarmedWallMS = medianOf(snap.ObsDisarmedWallsMS)
	snap.ObsArmedWallMS = medianOf(snap.ObsArmedWallsMS)
	if snap.ObsDisarmedWallMS > 0 {
		pct := (snap.ObsArmedWallMS - snap.ObsDisarmedWallMS) / snap.ObsDisarmedWallMS * 100
		if pct < 0 {
			pct = 0
		}
		snap.ObsOverheadPct = pct
	}

	// Metric-merge overhead: the armed runs above left a realistic
	// snapshot in snap.Metrics; fold it into a fresh armed registry
	// repeatedly, exactly as the coordinator does per accepted unit.
	if len(snap.Metrics) > 0 {
		obs.Reset()
		obs.Arm()
		foreign := snap.Metrics
		entries := 0
		snap.MergeAllocsPerOp = testing.AllocsPerRun(50, func() { entries = obs.MergeFlat(foreign) })
		const mergeRuns = 500
		start = time.Now()
		for i := 0; i < mergeRuns; i++ {
			entries = obs.MergeFlat(foreign)
		}
		elapsed := time.Since(start)
		snap.MergeSnapshotEntries = entries
		snap.MergeNSPerSnapshot = float64(elapsed.Nanoseconds()) / mergeRuns
		if entries > 0 {
			snap.MergeNSPerEntry = snap.MergeNSPerSnapshot / float64(entries)
		}
		obs.Disarm()
		obs.Reset()
	}

	// Allocation counts on the core paths. These must stay at zero for
	// the access paths; the Go-test suite enforces the same budgets.
	m := cpu.NewDefault()
	var i uint64
	snap.AccessAllocsPerOp = testing.AllocsPerRun(20000, func() {
		m.Load64(memp.Addr(i*64) % (1 << 22))
		i++
	})
	snap.CTLoadAllocsPerOp = testing.AllocsPerRun(20000, func() {
		m.CTLoad64(memp.Addr(i*64) % (1 << 22))
		i++
	})
	snap.MachineResetAllocs = testing.AllocsPerRun(10, func() { m.Reset() })
	benchPoint := func() {
		harness.RunWorkload(workloads.Histogram{}, workloads.Params{Size: 500, Seed: 1}, ct.BIA{}, 1)
	}
	snap.RunWorkloadAllocs = testing.AllocsPerRun(5, benchPoint)
	// The same point through the trace engine: AllocsPerRun's warm-up
	// call records, the measured runs replay.
	harness.SetTraceMode(harness.TraceOn)
	harness.ResetTraces()
	snap.ReplayWorkloadAllocs = testing.AllocsPerRun(5, benchPoint)
	harness.SetTraceMode(harness.TraceOff)

	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	const builds = 8
	for j := 0; j < builds; j++ {
		_ = cpu.NewDefault()
	}
	runtime.ReadMemStats(&msAfter)
	snap.MachineBuildAllocBytes = (msAfter.TotalAlloc - msBefore.TotalAlloc) / builds

	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
