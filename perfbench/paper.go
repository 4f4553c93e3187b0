package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ctbia/internal/harness"
	"ctbia/internal/obs"
	"ctbia/internal/resultcache"
)

// paperJob regenerates every registered experiment, as `ctbench -exp
// all -cache rw` does: RunAll with one worker per CPU, a fresh result
// cache and a manifest journal in a temporary directory. The
// experiments hard-code their inputs, so the seed does not apply.
type paperJob struct {
	sc       scale
	dir      string
	exps     []harness.Experiment
	opts     harness.Options
	store    *resultcache.Store
	manifest *harness.Manifest
	results  []harness.Result
}

func newPaper(_ int64, sc scale) (job, error) {
	dir, err := os.MkdirTemp("", "perfbench-paper-")
	if err != nil {
		return nil, err
	}
	store, err := resultcache.Open(filepath.Join(dir, "cache"), resultcache.ReadWrite, harness.SimVersionSalt)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	manifest := harness.NewManifest(filepath.Join(store.Dir(), harness.ManifestName), sc.quick)
	return &paperJob{
		sc:       sc,
		dir:      dir,
		exps:     harness.Experiments(),
		store:    store,
		manifest: manifest,
		opts: harness.Options{
			Quick:    sc.quick,
			Parallel: runtime.GOMAXPROCS(0),
			Cache:    store,
			Manifest: manifest,
		},
	}, nil
}

func (j *paperJob) run(rec *recorder) (attempted, failed int) {
	sp := rec.begin("harness.run_all")
	j.results = harness.RunAll(j.exps, j.opts)
	rec.end(sp)
	for _, r := range j.results {
		if r.Failed() {
			failed++
		}
	}
	return len(j.results), failed
}

// renderAll concatenates the rendered tables in experiment order, the
// bytes ctbench prints minus its wall-time lines.
func renderAll(results []harness.Result) []byte {
	var b []byte
	for _, r := range results {
		b = append(b, r.Table.Render()...)
	}
	return b
}

func (j *paperJob) check() []string {
	var errs []string
	if len(j.results) != len(j.exps) {
		errs = append(errs, fmt.Sprintf("paper: %d results for %d experiments", len(j.results), len(j.exps)))
	}
	sum := sha256.Sum256(renderAll(j.results))
	if got, want := hex.EncodeToString(sum[:]), paperDigest[j.sc]; got != want {
		errs = append(errs, fmt.Sprintf("paper: tables digest %s, want %s", got, want))
	}
	for _, r := range j.results {
		if r.Failed() {
			errs = append(errs, fmt.Sprintf("paper: %s has FAILED rows", r.Experiment.ID))
			continue
		}
		var cached harness.Table
		if !j.store.Load(harness.CacheKey(r.Experiment, j.opts), &cached) || cached.Render() != r.Table.Render() {
			errs = append(errs, fmt.Sprintf("paper: cache entry of %s does not read back", r.Experiment.ID))
		}
	}
	if ok, bad := j.manifest.Summary(); ok != len(j.exps) || bad != 0 {
		errs = append(errs, fmt.Sprintf("paper: manifest holds %d ok and %d failed records, want %d ok", ok, bad, len(j.exps)))
	}
	return errs
}

func (j *paperJob) layers(rec *recorder, add func(string, float64)) {
	for _, r := range j.results {
		add("harness.exp_s."+r.Experiment.ID, r.Wall.Seconds())
	}
	// The harness harvests every simulated machine's counters into the
	// armed registry; the paper run returns no reports of its own.
	snap := obs.Snapshot()
	add("cpu.sim_insts", float64(snap["cpu.insts"]))
	add("cpu.sim_cycles", float64(snap["cpu.cycles"]))
	add("cache.l1d_refs", float64(snap["cache.L1d.accesses"]))
	add("cache.llc_misses", float64(snap["cache.LLC.misses"]))
	add("cache.dram", float64(snap["mem.dram_reads"]+snap["mem.dram_writes"]))
	j.sinkLayers(rec, add)
}

// sinkLayers times the result cache and the manifest on this run's real
// tables, in a separate directory: one save and one load per table, and
// one record per table plus the closing Flush.
func (j *paperJob) sinkLayers(rec *recorder, add func(string, float64)) {
	dir, err := os.MkdirTemp("", "perfbench-sinks-")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	store, err := resultcache.Open(filepath.Join(dir, "cache"), resultcache.ReadWrite, harness.SimVersionSalt)
	if err != nil {
		return
	}
	n := len(j.results)
	keys := make([]string, n)
	for i, r := range j.results {
		keys[i] = harness.CacheKey(r.Experiment, j.opts)
	}
	perRecordUS := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(n) }

	sp := rec.begin("resultcache.save")
	start := time.Now()
	for i, r := range j.results {
		_ = store.Save(keys[i], r.Table) // timing only; the gates check the run's own cache
	}
	add("resultcache.save_us", perRecordUS(time.Since(start)))
	rec.end(sp)

	sp = rec.begin("resultcache.load")
	start = time.Now()
	for _, k := range keys {
		var t harness.Table
		store.Load(k, &t)
	}
	add("resultcache.load_us", perRecordUS(time.Since(start)))
	rec.end(sp)

	m := harness.NewManifest(filepath.Join(dir, harness.ManifestName), j.sc.quick)
	sp = rec.begin("manifest.record")
	start = time.Now()
	for i, r := range j.results {
		m.Record(r.Experiment.ID, harness.ManifestEntry{Status: "ok", Key: keys[i], WallMS: float64(r.Wall.Microseconds()) / 1000})
	}
	m.Flush()
	add("manifest.record_us", perRecordUS(time.Since(start)))
	rec.end(sp)
	m.Close()
}

func (j *paperJob) close() {
	j.manifest.Close()
	os.RemoveAll(j.dir)
}
