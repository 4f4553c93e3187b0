package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/harness"
	"ctbia/internal/workloads"
)

// digestSeed is the seed whose geometry reports are pinned by a
// committed digest; other seeds are checked by cross-geometry invariants
// alone.
const digestSeed = 1

// geoStrategy is one strategy of the sweep; bia runs on the geometry
// with the BIA attached to its L1d.
type geoStrategy struct {
	s   ct.Strategy
	bia bool
}

var geoStrategies = []geoStrategy{
	{ct.Direct{}, false},
	{ct.Linear{}, false},
	{ct.LinearVec{}, false},
	{ct.BIA{}, true},
}

// point is one workload instance.
type point struct {
	w workloads.Workload
	p workloads.Params
}

// geometryInputs builds the sweep: a one-factor-at-a-time ladder of
// machine geometries around the Table 1 machine, and one instance of
// each Ghostrider workload whose secret data is drawn from the seed.
// Every instance runs on every geometry, so each pure-strategy op stream
// recurs once per geometry.
//
// The seed varies what the sweep computes, not how much: the geometries
// and the workload sizes are fixed, so every seed simulates the same
// machines over the same problem sizes in the same order, and the
// run-to-run spread across seeds measures the host rather than the draw.
func geometryInputs(seed int64, sc scale) ([]cpu.Config, []point) {
	ladder := [][4]int{ // L1d size, L1d ways, L2 size, LLC size
		{64 << 10, 8, 1 << 20, 16 << 20}, // Table 1
		{32 << 10, 8, 1 << 20, 16 << 20},
		{128 << 10, 8, 1 << 20, 16 << 20},
		{64 << 10, 4, 1 << 20, 16 << 20},
		{64 << 10, 16, 1 << 20, 16 << 20},
		{64 << 10, 8, 512 << 10, 16 << 20},
		{64 << 10, 8, 2 << 20, 16 << 20},
		{64 << 10, 8, 1 << 20, 4 << 20},
	}
	if sc.quick {
		ladder = ladder[:3]
	}
	geos := make([]cpu.Config, len(ladder))
	for i, g := range ladder {
		cfg := cpu.DefaultConfig()
		cfg.BIALevel = 0
		cfg.Levels[0].Size, cfg.Levels[0].Ways = g[0], g[1]
		cfg.Levels[1].Size = g[2]
		cfg.Levels[2].Size = g[3]
		geos[i] = cfg
	}
	rng := rand.New(rand.NewSource(seed))
	sizes := map[string]int{"dijkstra": 80, "histogram": 4500, "permutation": 4500, "binarysearch": 9000, "heappop": 4500}
	var pts []point
	for _, w := range workloads.All() {
		size := sizes[w.Name()]
		if sc.quick {
			size /= 8
		}
		if w.Name() == "dijkstra" { // rows must fill whole cache lines
			size = max(16, size/16*16)
		}
		pts = append(pts, point{w, workloads.Params{Size: size, Seed: rng.Int63n(1 << 30)}})
	}
	return geos, pts
}

// geometryJob sweeps every geometry x workload x strategy through
// harness.RunWorkloadOn, serially, geometry-major as a design-space
// sweep would.
type geometryJob struct {
	sc      scale
	seed    int64
	geos    []cpu.Config
	pts     []point
	reports [][][]cpu.Report // [geometry][point][strategy]
	failed  map[[3]int]error
	// Traced runs only: point walls by strategy, split by whether the
	// point's pure-strategy stream already ran in this process.
	first, repeat map[string][]time.Duration
}

func newGeometry(seed int64, sc scale) (job, error) {
	geos, pts := geometryInputs(seed, sc)
	return &geometryJob{sc: sc, seed: seed, geos: geos, pts: pts}, nil
}

func (j *geometryJob) run(rec *recorder) (attempted, failed int) {
	j.failed = make(map[[3]int]error)
	j.first = make(map[string][]time.Duration)
	j.repeat = make(map[string][]time.Duration)
	j.reports = make([][][]cpu.Report, len(j.geos))
	for gi, g := range j.geos {
		j.reports[gi] = make([][]cpu.Report, len(j.pts))
		for pi, pt := range j.pts {
			j.reports[gi][pi] = make([]cpu.Report, len(geoStrategies))
			for si, st := range geoStrategies {
				cfg := g
				if st.bia {
					cfg.BIALevel = 1
				}
				sp := rec.begin("harness.point")
				err := safely(func() { j.reports[gi][pi][si] = harness.RunWorkloadOn(cfg, pt.w, pt.p, st.s) })
				rec.end(sp)
				attempted++
				if err != nil {
					failed++
					j.failed[[3]int{gi, pi, si}] = err
				}
				if rec != nil {
					d := rec.spans[sp].end - rec.spans[sp].start
					// The sweep is geometry-major, so a pure-strategy
					// stream first runs on geometry 0.
					if gi > 0 && !st.bia {
						j.repeat[st.s.Name()] = append(j.repeat[st.s.Name()], d)
					} else {
						j.first[st.s.Name()] = append(j.first[st.s.Name()], d)
					}
				}
			}
		}
	}
	return attempted, failed
}

// reportDigest hashes every report in sweep order.
func (j *geometryJob) reportDigest() string {
	h := sha256.New()
	for _, g := range j.reports {
		for _, p := range g {
			for _, r := range p {
				fmt.Fprintf(h, "%+v\n", r)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (j *geometryJob) check() []string {
	var errs []string
	for k, err := range j.failed {
		errs = append(errs, fmt.Sprintf("geometry: %s/%s on geometry %d failed: %v",
			j.pts[k[1]].w.Name(), geoStrategies[k[2]].s.Name(), k[0], err))
	}
	if len(errs) > 0 {
		return errs
	}
	// A pure strategy's op stream does not depend on the machine, so its
	// instruction and reference counts must not either.
	for pi, pt := range j.pts {
		for si, st := range geoStrategies {
			if st.bia {
				continue
			}
			a := j.reports[0][pi][si]
			for gi := 1; gi < len(j.geos); gi++ {
				b := j.reports[gi][pi][si]
				if a.Insts != b.Insts || a.L1IRefs != b.L1IRefs || a.L1DRefs != b.L1DRefs {
					errs = append(errs, fmt.Sprintf("geometry: %s/%s counts differ between geometry 0 and %d: %+v vs %+v",
						pt.w.Name(), st.s.Name(), gi, a, b))
				}
			}
		}
	}
	if want, ok := geometryDigest[j.sc]; ok && j.seed == digestSeed {
		if got := j.reportDigest(); got != want {
			errs = append(errs, fmt.Sprintf("geometry: report digest %s, want %s", got, want))
		}
	}
	return errs
}

func (j *geometryJob) layers(rec *recorder, add func(string, float64)) {
	pointLayers(rec.durations("harness.point"), add)
	for s, d := range j.first {
		add("harness.first_ms."+s, meanMS(d))
	}
	for s, d := range j.repeat {
		add("harness.repeat_ms."+s, meanMS(d))
	}
	var sum cpu.Report
	for _, g := range j.reports {
		for _, p := range g {
			for _, r := range p {
				sum = addReports(sum, r)
			}
		}
	}
	reportLayers(sum, add)
}

func (j *geometryJob) close() {}

func addReports(a, b cpu.Report) cpu.Report {
	a.Cycles += b.Cycles
	a.Insts += b.Insts
	a.L1IRefs += b.L1IRefs
	a.L1DRefs += b.L1DRefs
	a.L2Refs += b.L2Refs
	a.LLCRefs += b.LLCRefs
	a.LLMisses += b.LLMisses
	a.DRAM += b.DRAM
	return a
}

// reportLayers reports the summed simulated statistics of a run.
func reportLayers(sum cpu.Report, add func(string, float64)) {
	add("cpu.sim_insts", float64(sum.Insts))
	add("cpu.sim_cycles", float64(sum.Cycles))
	add("cache.l1d_refs", float64(sum.L1DRefs))
	add("cache.llc_misses", float64(sum.LLMisses))
	add("cache.dram", float64(sum.DRAM))
}

// pointLayers reports the per-point wall distribution: the median and
// the 90th percentile where enough samples lie beyond them, the sample
// count, and the highest percentile the sample count supports.
func pointLayers(ds []time.Duration, add func(string, float64)) {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / 1e6
	}
	n := len(ms)
	add("harness.point_samples", float64(n))
	add("harness.point_tail_pct", tailPercentile(n))
	for _, p := range []float64{50, 90} {
		if ok, _ := percentileAllowed(n, p); ok {
			add(fmt.Sprintf("harness.point_ms.p%d", int(p)), percentile(ms, p))
		}
	}
}
