package harness

import (
	"runtime"
	"sync"
	"time"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/ctcrypto"
	"ctbia/internal/faultinject"
	"ctbia/internal/obs"
	"ctbia/internal/workloads"
)

// tablePools recycles the Table 1 machines that RunWorkload/RunKernel
// burn through, one pool per BIA placement (index = BIALevel, 0 = no
// BIA). Building such a machine allocates ~9 MB of cache metadata;
// before pooling, `ctbench -exp all` built 200+ of them and spent a
// large fraction of its wall time allocating and collecting that
// churn. Reset restores cold state bit-identically (see the
// reset-equivalence test), so pooling never changes a table cell.
var tablePools = func() [4]*cpu.Pool {
	var pools [4]*cpu.Pool
	for lvl := range pools {
		cfg := cpu.DefaultConfig()
		cfg.BIALevel = lvl
		pools[lvl] = cpu.NewPool(cfg)
	}
	return pools
}()

// poolReg extends the Table 1 pools to arbitrary geometries: one pool
// per config fingerprint, built on first use. Geometry-sweep
// experiments run every point through here so each distinct machine
// shape is pooled exactly like the Table 1 shapes (seeded below so the
// defaults share their pools with RunWorkload/RunKernel).
var poolReg = struct {
	sync.Mutex
	pools map[string]*cpu.Pool
}{pools: func() map[string]*cpu.Pool {
	m := make(map[string]*cpu.Pool, len(tablePools))
	for lvl, p := range tablePools {
		cfg := cpu.DefaultConfig()
		cfg.BIALevel = lvl
		m[cfg.Fingerprint()] = p
	}
	return m
}()}

// poolFor returns the machine pool for cfg, creating it on first use.
func poolFor(cfg cpu.Config) *cpu.Pool {
	fp := cfg.Fingerprint()
	poolReg.Lock()
	p := poolReg.pools[fp]
	if p == nil {
		p = cpu.NewPool(cfg)
		poolReg.pools[fp] = p
	}
	poolReg.Unlock()
	return p
}

// MachineFor builds a Table 1 machine with the BIA at the given level
// (0 = no BIA, for the insecure and software-CT runs). The machine is
// always freshly constructed — experiments that subscribe telemetry or
// otherwise hold on to machine state use this; the pooled fast path is
// internal to RunWorkload/RunKernel.
func MachineFor(biaLevel int) *cpu.Machine {
	cfg := cpu.DefaultConfig()
	cfg.BIALevel = biaLevel
	return cpu.New(cfg)
}

// RunWorkload executes one workload under one strategy on a cold
// Table 1 machine drawn from the per-placement pool, verifies the
// result against the pure-Go reference (an experiment with a wrong
// answer must never be reported), and returns the machine's report.
func RunWorkload(w workloads.Workload, p workloads.Params, s ct.Strategy, biaLevel int) cpu.Report {
	return runWorkloadIn(tablePools[biaLevel], w, p, s)
}

// RunWorkloadOn is RunWorkload for an arbitrary machine config — the
// entry point of the geometry-sweep experiments.
func RunWorkloadOn(cfg cpu.Config, w workloads.Workload, p workloads.Params, s ct.Strategy) cpu.Report {
	return runWorkloadIn(poolFor(cfg), w, p, s)
}

// runWorkloadIn runs one workload point on a machine from pool.
func runWorkloadIn(pool *cpu.Pool, w workloads.Workload, p workloads.Params, s ct.Strategy) cpu.Report {
	return runPoint(pool, w.Name()+"/"+s.Name(),
		func() uint64 { return w.Reference(p) },
		func(m *cpu.Machine) uint64 { return w.Run(m, s, p) })
}

// RunKernel is RunWorkload for the crypto kernels.
func RunKernel(k ctcrypto.Kernel, p ctcrypto.Params, s ct.Strategy, biaLevel int) cpu.Report {
	return runPoint(tablePools[biaLevel], k.Name()+"/"+s.Name(),
		func() uint64 { return k.Reference(p) },
		func(m *cpu.Machine) uint64 { return k.Run(m, s, p) })
}

// strategyRuns couples the paper's three compared configurations.
type strategyRuns struct {
	insecure cpu.Report
	biaL1    cpu.Report
	biaL2    cpu.Report
	linear   cpu.Report
}

// runAllStrategies measures one workload/size point under the four
// compared configurations. Each run builds its own machine with its own
// seeded RNGs, so when parallel is true the four fan out across
// goroutines with no shared state and bit-identical results.
//
// A panicking strategy run is recovered into a PointError; the other
// three strategies still complete and the first failure is re-panicked for the
// caller's per-point recovery to turn into a FAILED row.
func runAllStrategies(w workloads.Workload, p workloads.Params, parallel bool) strategyRuns {
	var r strategyRuns
	jobs := []struct {
		name string
		fn   func()
	}{
		{"insecure", func() { r.insecure = RunWorkload(w, p, ct.Direct{}, 0) }},
		{"bia@1", func() { r.biaL1 = RunWorkload(w, p, ct.BIA{}, 1) }},
		{"bia@2", func() { r.biaL2 = RunWorkload(w, p, ct.BIA{}, 2) }},
		{"ct", func() { r.linear = RunWorkload(w, p, ct.Linear{}, 0) }},
	}
	var mu sync.Mutex
	var firstErr *PointError
	run := func(name string, fn func()) {
		sp := obs.StartSpan("strategy", name)
		defer sp.End()
		defer func() {
			if rec := recover(); rec != nil {
				pe := toPointError(rec)
				if pe.Strategy == "" {
					pe.Strategy = name
				}
				mu.Lock()
				if firstErr == nil {
					firstErr = pe
				}
				mu.Unlock()
			}
		}()
		fn()
	}
	if !parallel {
		for _, job := range jobs {
			run(job.name, job.fn)
		}
	} else {
		var wg sync.WaitGroup
		for _, job := range jobs {
			wg.Add(1)
			go func(name string, fn func()) {
				defer wg.Done()
				run(name, fn)
			}(job.name, job.fn)
		}
		wg.Wait()
	}
	if firstErr != nil {
		panic(firstErr)
	}
	return r
}

// forEachIndexed runs fn(0..n-1) on up to `workers` goroutines. Results
// are the caller's responsibility to collect into index-addressed slots,
// which keeps output order deterministic regardless of scheduling.
//
// Every invocation is panic-isolated: a panicking item is recovered
// into a PointError in the returned slice (indexed like the items, nil
// on success) and the remaining items still run. The returned slice is
// nil when every item succeeded.
//
// workers <= 1 degenerates to a plain loop — no goroutines, no
// channels — so a serial run pays nothing for the machinery. With a
// worker per item there is no contention to arbitrate, so each item
// gets its own goroutine directly instead of feeding an unbuffered
// channel (whose per-item send/receive rendezvous made a single-CPU
// "parallel" run measurably slower than serial).
func forEachIndexed(n, workers int, fn func(i int)) []*PointError {
	var errs []*PointError // allocated on first failure only
	var errMu sync.Mutex
	// slot identifies the executing worker for the per-worker
	// utilization metrics (serial runs use slot 0; with a goroutine per
	// item the item index doubles as the slot).
	call := func(slot, i int) {
		if obs.Enabled() {
			start := time.Now()
			defer func() { noteWorkerBusy(slot, time.Since(start)) }()
		}
		defer func() {
			if rec := recover(); rec != nil {
				pe := toPointError(rec)
				errMu.Lock()
				if errs == nil {
					errs = make([]*PointError, n)
				}
				errs[i] = pe
				errMu.Unlock()
			}
		}()
		fn(i)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			call(0, i)
		}
		return errs
	}
	var wg sync.WaitGroup
	if workers >= n {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				call(i, i)
			}(i)
		}
		wg.Wait()
		return errs
	}
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				call(w, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errs
}

// Result is one experiment's outcome from RunAll: the rendered table
// plus the wall time and the number of simulated machines the
// experiment used (the counters cmd/ctbench's -json trajectory files
// record across PRs). Cached marks results served from the result
// cache instead of simulation; their Machines count is zero. Err is
// set when the experiment's Run panicked (the worker recovered it);
// Table is then a FAILED placeholder. Point-level failures inside an
// otherwise-complete experiment live in Table.Failures instead.
type Result struct {
	Experiment Experiment
	Table      *Table
	Wall       time.Duration
	Machines   uint64
	Cached     bool
	Err        *PointError
	// Metrics attributes the observability registry's growth during
	// this experiment to it (nil when the layer is disarmed). With
	// concurrent experiments the windows overlap, so per-experiment
	// attribution is approximate there; run-level totals stay exact.
	Metrics map[string]uint64
	// Points counts simulation points executed during this experiment,
	// whether or not obs is armed; same overlap caveat as Metrics.
	// Fleet workers report it so the coordinator's /progress covers
	// remote execution.
	Points uint64
}

// Failed reports whether the experiment failed wholly or in any point.
func (r Result) Failed() bool {
	return r.Err != nil || (r.Table != nil && r.Table.Failed())
}

// machineUses counts simulated-machine acquisitions: fresh builds plus
// pool resets. With pooling, neither count alone is comparable to the
// pre-pool "machines built" trajectory metric; their sum still counts
// one per simulated run, which is the scale proxy the metric is for.
func machineUses() uint64 { return cpu.MachinesBuilt() + cpu.MachinesReset() }

// RunAll executes the given experiments — all registered ones when exps
// is nil — with o.Parallel workers, collecting results in input order so
// the output is byte-identical to a serial run. Each experiment (and,
// inside the sweep experiments, each data point) owns cold machines,
// so parallelism changes wall time only, never a table cell.
//
// With o.Cache set, experiments whose identity key (simulator version
// salt, experiment ID, Quick flag, Table 1 config fingerprint,
// strategy set) already has a stored table are served from the cache
// without simulating; fresh results are persisted for the next run
// unless the store is read-only. o.Parallel is deliberately not part
// of the key: parallelism never changes a table cell, so serial and
// parallel runs share cache entries.
func RunAll(exps []Experiment, o Options) []Result {
	if exps == nil {
		exps = Experiments()
	}
	// More workers than CPUs cannot help a compute-bound simulation and
	// the scheduling overhead can make it slower than serial (the PR 2
	// numbers on a single-CPU host did exactly that), so clamp. The
	// clamped value propagates into the sweep experiments via o.
	if max := runtime.GOMAXPROCS(0); o.Parallel > max {
		o.Parallel = max
	}
	obs.ProgressAddTotal(len(exps))
	results := make([]Result, len(exps))
	errs := forEachIndexed(len(exps), o.Parallel, func(i int) {
		start := time.Now()
		id := exps[i].ID
		sp := obs.StartSpan("experiment", id)
		defer sp.End()
		obsBefore := obsSnapshot()
		// Chaos hook: a matching worker.panic rule kills exactly this
		// worker; the recovery in forEachIndexed turns it into a
		// FAILED result while the other experiments finish.
		faultinject.Check("worker.panic", id, false)
		var key string
		if o.Cache != nil || o.Manifest != nil {
			key = CacheKey(exps[i], o)
		}
		if o.Cache != nil {
			lsp := obs.StartSpan("cache-lookup", id)
			var cached Table
			hit := o.Cache.Load(key, &cached)
			lsp.End()
			if hit {
				if cached.UsableFor(id) {
					wall := time.Since(start)
					metrics := obsDelta(obsBefore)
					results[i] = Result{
						Experiment: exps[i],
						Table:      &cached,
						Wall:       wall,
						Cached:     true,
						Metrics:    metrics,
					}
					o.Manifest.Record(id, ManifestEntry{
						Status: "ok", Key: key,
						WallMS:  float64(wall.Microseconds()) / 1000,
						Metrics: metrics,
					})
					obs.ProgressExpDone(true, false)
					return
				}
				// Decodable but unusable (garbage JSON body, wrong
				// experiment): quarantine the entry so it cannot
				// re-fail every run, and recompute.
				o.Cache.Quarantine(key)
			}
		}
		before := machineUses()
		table := exps[i].Run(o)
		wall := time.Since(start)
		metrics := obsDelta(obsBefore)
		results[i] = Result{
			Experiment: exps[i],
			Table:      table,
			Wall:       wall,
			Machines:   machineUses() - before,
			Metrics:    metrics,
		}
		if table.Failed() {
			// A table with FAILED points must never be served from
			// the cache; journal the failure so -resume re-runs it.
			o.Manifest.Record(id, ManifestEntry{
				Status: "failed", Key: key,
				Error:   firstLine(table.Failures[0].Error()),
				WallMS:  float64(wall.Microseconds()) / 1000,
				Metrics: metrics,
			})
			obs.ProgressExpDone(false, true)
			return
		}
		if o.Cache != nil {
			// Best-effort: a failed write costs the next run a
			// recompute, which is the cache's miss behaviour anyway.
			_ = o.Cache.Save(key, table)
		}
		o.Manifest.Record(id, ManifestEntry{
			Status: "ok", Key: key,
			WallMS:  float64(wall.Microseconds()) / 1000,
			Metrics: metrics,
		})
		obs.ProgressExpDone(false, false)
	})
	for i, pe := range errs {
		if pe == nil {
			continue
		}
		pe.Experiment = exps[i].ID
		results[i] = Result{Experiment: exps[i], Table: failedTable(exps[i], pe), Err: pe}
		o.Manifest.Record(exps[i].ID, ManifestEntry{
			Status: "failed", Key: CacheKey(exps[i], o),
			Error: firstLine(pe.Err.Error()),
		})
		obs.ProgressExpDone(false, true)
	}
	return results
}

// UsableFor validates a deserialized table before serving it as
// experiment id's result: JSON from the result cache or a fleet
// worker's upload may decode cleanly yet be garbage (a `null` body
// yields a zero table, a doctored entry can carry the wrong
// experiment). Such a table must cost a recompute, never be served.
func (t *Table) UsableFor(id string) bool {
	if t == nil || t.ID != id || len(t.Headers) == 0 {
		return false
	}
	for _, row := range t.Rows {
		if len(row) == 0 {
			return false
		}
	}
	return true
}

// RunOne executes a single experiment with the same panic isolation as
// a RunAll worker, but no cache or manifest interaction — the
// execution primitive behind the fleet's work units (a remote worker
// runs RunOne and uploads the Result; the coordinator owns cache and
// journal). An experiment-level panic comes back as a FAILED
// placeholder Result, exactly like RunAll produces.
func RunOne(e Experiment, o Options) (res Result) {
	start := time.Now()
	sp := obs.StartSpan("experiment", e.ID)
	defer sp.End()
	obsBefore := obsSnapshot()
	ptsBefore := PointsRun()
	defer func() {
		if rec := recover(); rec != nil {
			pe := toPointError(rec)
			pe.Experiment = e.ID
			res = Result{Experiment: e, Table: failedTable(e, pe), Err: pe,
				Wall: time.Since(start), Points: PointsRun() - ptsBefore}
		}
	}()
	faultinject.Check("worker.panic", e.ID, false)
	before := machineUses()
	table := e.Run(o)
	return Result{
		Experiment: e,
		Table:      table,
		Wall:       time.Since(start),
		Machines:   machineUses() - before,
		Metrics:    obsDelta(obsBefore),
		Points:     PointsRun() - ptsBefore,
	}
}
