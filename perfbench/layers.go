package main

import (
	"fmt"
	"strings"
	"time"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/harness"
	"ctbia/internal/memp"
	"ctbia/internal/workloads"
)

// layerNames lists every per-layer metric a traced run reports, on
// every workload; a metric of a layer the workload does not exercise
// reads 0.
var layerNames = func() []string {
	var names []string
	for _, id := range harness.IDs() {
		names = append(names, "harness.exp_s."+id)
	}
	names = append(names,
		"harness.point_ms.p50", "harness.point_ms.p90", "harness.point_samples", "harness.point_tail_pct")
	for _, s := range geoStrategies {
		names = append(names, "harness.first_ms."+s.s.Name())
		if !s.bia {
			names = append(names, "harness.repeat_ms."+s.s.Name())
		}
	}
	names = append(names,
		"cpu.build_ms", "cpu.reset_ms", "cpu.machines_built", "cpu.machines_reset",
		"cpu.sim_insts", "cpu.sim_cycles", "cpu.host_ns_per_sim_inst", "cpu.load_ns", "cpu.ctload_ns")
	for _, c := range ctMicros {
		for _, lvl := range dsLevels {
			names = append(names, fmt.Sprintf("ct.%s_ns_per_line.%s.%s", c.op, c.s.Name(), lvl.name))
		}
	}
	for _, lvl := range cacheLevels {
		names = append(names, "cache.access_ns."+lvl.name)
	}
	names = append(names,
		"cache.l1d_refs", "cache.llc_misses", "cache.dram",
		"bia.lookup_ns", "bia.skip_ratio", "bia.ds_lines_skipped", "bia.ds_lines_total",
		"workloads.run_ms", "workloads.reference_ms",
		"attacker.events_per_point", "attacker.key_ms",
		"trace.records", "trace.replays", "trace.shared_replays",
		"resultcache.save_us", "resultcache.load_us", "manifest.record_us",
		"go.alloc_mb", "go.gc_cycles", "go.gc_pause_ms",
		"bench.trace_overhead_pct", "bench.unattributed_s", "bench.fail_ratio")
	for _, l := range []string{"bench", "harness", "cpu", "attacker", "workloads"} {
		names = append(names, "self_s."+l)
	}
	return names
}()

// layerUnit derives a metric's unit from the unit its name carries:
// "_s", "_ms", "_us" or "_ns" at the end or before a ".<key>" suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "ratio"):
		return "ratio"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s") || strings.Contains(name, "_s."):
		return "s"
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms."):
		return "ms"
	case strings.Contains(name, "_ns"):
		return "ns"
	}
	return "count"
}

// dsLevels sizes the protected data structures of the ct per-line
// measurements: 512 lines fit the Table 1 L1d, 8192 spill to the L2.
var dsLevels = []struct {
	name  string
	lines int
}{{"l1", 512}, {"l2", 8192}}

// ctMicros are the strategy operations measured per DS line.
var ctMicros = []struct {
	op string // "load" or "store"
	s  ct.Strategy
}{
	{"load", ct.Linear{}}, {"load", ct.LinearVec{}}, {"load", ct.BIA{}},
	{"store", ct.Linear{}}, {"store", ct.BIA{}},
}

// cacheLevels sizes working sets that hit each level of the Table 1
// hierarchy (64 KiB L1d, 1 MiB L2, 16 MiB LLC) or miss to DRAM.
var cacheLevels = []struct {
	name  string
	bytes int
}{{"l1", 32 << 10}, {"l2", 512 << 10}, {"llc", 8 << 20}, {"dram", 32 << 20}}

// microReps is how many timed repetitions each layer measurement takes;
// it reports their median.
const microReps = 5

// timeOp returns the median over microReps of one call to f, after one
// untimed warm-up call.
func timeOp(f func()) time.Duration {
	f()
	xs := make([]float64, microReps)
	for i := range xs {
		start := time.Now()
		f()
		xs[i] = float64(time.Since(start))
	}
	return time.Duration(median(xs))
}

// microLayers measures single layers in isolation through their public
// functions, on Table 1 machines: a cached load, a CT probe, one
// protected access per DS line, one hierarchy access per level, a BIA
// lookup, and a machine build and reset.
func microLayers(rec *recorder, add func(string, float64)) {
	const n = 100000
	build := func(biaLevel int) *cpu.Machine {
		sp := rec.begin("cpu.build")
		defer rec.end(sp)
		return harness.MachineFor(biaLevel)
	}

	plain, withBIA := build(0), build(1)
	r0 := plain.Alloc.Alloc("hot", memp.PageSize)
	r1 := withBIA.Alloc.Alloc("hot", memp.PageSize)
	plain.WarmRegion(r0.Base, r0.Size)
	withBIA.WarmRegion(r1.Base, r1.Size)
	d := timeOp(func() {
		for i := 0; i < n; i++ {
			plain.Load64(r0.Base + memp.Addr(i%64*memp.LineSize))
		}
	})
	add("cpu.load_ns", float64(d)/n)
	d = timeOp(func() {
		for i := 0; i < n; i++ {
			withBIA.CTLoad64(r1.Base + memp.Addr(i%64*memp.LineSize))
		}
	})
	add("cpu.ctload_ns", float64(d)/n)
	d = timeOp(func() {
		for i := 0; i < n; i++ {
			withBIA.BIA.LookupOrInstall(r1.Base + memp.Addr(i%16*memp.PageSize))
		}
	})
	add("bia.lookup_ns", float64(d)/n)

	for _, c := range ctMicros {
		for _, lvl := range dsLevels {
			level := 0
			if c.s.NeedsBIA() {
				level = 1
			}
			m := build(level)
			size := uint64(lvl.lines * memp.LineSize)
			r := m.Alloc.Alloc("ds", size)
			m.WarmRegion(r.Base, size)
			ds := ct.NewContiguous("ds", r.Base, size)
			target := r.Base + memp.Addr(lvl.lines/3*memp.LineSize)
			calls := (1 << 18) / lvl.lines // a quarter million line accesses per repetition
			d := timeOp(func() {
				for i := 0; i < calls; i++ {
					if c.op == "load" {
						c.s.Load(m, ds, target, cpu.W64)
					} else {
						c.s.Store(m, ds, target, uint64(i), cpu.W64)
					}
				}
			})
			add(fmt.Sprintf("ct.%s_ns_per_line.%s.%s", c.op, c.s.Name(), lvl.name), float64(d)/float64(calls*lvl.lines))
		}
	}

	base := r0.Base + memp.Addr(64<<20) // clear of the regions above
	for _, lvl := range cacheLevels {
		lines := lvl.bytes / memp.LineSize
		d := timeOp(func() {
			for i := 0; i < lines; i++ {
				plain.Hier.Access(base+memp.Addr(i*memp.LineSize), 0)
			}
		})
		add("cache.access_ns."+lvl.name, float64(d)/float64(lines))
	}

	// Reset restores a used machine; time it after a workload dirtied it.
	var resets []time.Duration
	for i := 0; i < microReps; i++ {
		m := build(1)
		p := workloads.Params{Size: 1000, Seed: int64(i + 1)}
		workloads.Histogram{}.Run(m, ct.BIA{}, p)
		start := time.Now()
		m.Reset()
		resets = append(resets, time.Since(start))
	}
	add("cpu.reset_ms", meanMS(resets))
}
