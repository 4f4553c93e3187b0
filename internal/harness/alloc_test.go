package harness

import (
	"runtime"
	"testing"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/obs"
	"ctbia/internal/workloads"
)

// runWorkloadAllocBudget bounds the allocations of one pooled
// RunWorkload call (machine from pool, full workload simulation,
// verification, report). Measured at 24 allocs/op — the workload's own
// input setup (slices of test data), not the access path, which is at
// zero. The budget leaves headroom for small workload-side changes but
// fails loudly if pooling regresses (a machine rebuild alone is
// thousands of allocations).
const runWorkloadAllocBudget = 64

func measureRunWorkloadAllocs() float64 {
	w := workloads.Histogram{}
	p := workloads.Params{Size: 500, Seed: 1}
	// Prime the pool so the measured runs recycle instead of build.
	RunWorkload(w, p, ct.BIA{}, 1)
	return testing.AllocsPerRun(5, func() {
		RunWorkload(w, p, ct.BIA{}, 1)
	})
}

func TestRunWorkloadAllocBudget(t *testing.T) {
	if allocs := measureRunWorkloadAllocs(); allocs > runWorkloadAllocBudget {
		t.Errorf("RunWorkload: %.0f allocs/op, budget is %d — machine pooling regressed?",
			allocs, runWorkloadAllocBudget)
	}
}

// The shard-and-commit write path the harness hands its workers:
// a warm private shard absorbs counter adds and histogram observes
// with zero allocations, and merging every shard into a warm snapshot
// map allocates nothing either. These pin the same contract as the
// obs-package tests but from the harness's side of the API, with the
// harness's own interned names in the table.
func TestHarnessShardHotPathZeroAllocs(t *testing.T) {
	defer obsReset()
	obsReset()
	obs.Arm()
	id := obs.Intern("harness.alloc_probe")
	h := obs.NewHistogram("harness.alloc_hist")
	sh := obs.AcquireShard()
	defer obs.ReleaseShard(sh)
	sh.Add(id, 1)
	sh.Observe(h, 1)
	if n := testing.AllocsPerRun(1000, func() { sh.Add(id, 1) }); n != 0 {
		t.Errorf("worker shard Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { sh.Observe(h, 9) }); n != 0 {
		t.Errorf("worker shard Observe allocates %v/op", n)
	}
	dst := make(map[string]uint64)
	obs.SnapshotInto(dst)
	if n := testing.AllocsPerRun(100, func() { obs.SnapshotInto(dst) }); n != 0 {
		t.Errorf("merge-on-pull SnapshotInto allocates %v/op on a warm map", n)
	}
}

// noteWorkerBusy used to format the slot's metric name per completed
// item; the interned handle path must not allocate once the slot has
// been seen.
func TestNoteWorkerBusyZeroAllocsWarm(t *testing.T) {
	defer obsReset()
	obsReset()
	obs.Arm()
	noteWorkerBusy(3, 1000) // intern the slot's name
	if n := testing.AllocsPerRun(1000, func() { noteWorkerBusy(3, 1000) }); n != 0 {
		t.Errorf("warm noteWorkerBusy allocates %v/op", n)
	}
}

// BenchmarkRunWorkloadAllocs tracks the end-to-end cost of one pooled
// experiment data point and fails when over the allocation budget.
func BenchmarkRunWorkloadAllocs(b *testing.B) {
	w := workloads.Histogram{}
	p := workloads.Params{Size: 500, Seed: 1}
	RunWorkload(w, p, ct.BIA{}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		RunWorkload(w, p, ct.BIA{}, 1)
	}
	b.StopTimer()
	if allocs := measureRunWorkloadAllocs(); allocs > runWorkloadAllocBudget {
		b.Fatalf("RunWorkload: %.0f allocs/op, budget is %d", allocs, runWorkloadAllocBudget)
	}
}

// machineForByteBudget bounds the heap one fresh Table 1 machine
// allocates — what every ctsec and audit point pays before it
// simulates anything. Measured at 6.80 MB for every BIA placement,
// nearly all of it the three levels' line records and tag arrays. The
// budget fails if line records regrow their own address copy
// (9.04 MB).
const machineForByteBudget = 7e6

// machineSink keeps the measured builds observable to the compiler.
var machineSink *cpu.Machine

// measureMachineForBytes returns the heap bytes one MachineFor call
// allocates, averaged over n builds.
func measureMachineForBytes(biaLevel, n int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		machineSink = MachineFor(biaLevel)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

func TestMachineForAllocBudget(t *testing.T) {
	for _, lvl := range []int{0, 1, 2} {
		if b := measureMachineForBytes(lvl, 4); b > machineForByteBudget {
			t.Errorf("MachineFor(%d): %.2f MB per machine, budget is %.2f MB",
				lvl, b/1e6, machineForByteBudget/1e6)
		}
	}
}

// BenchmarkMachineFor tracks the host cost of building one fresh
// Table 1 machine with the BIA in L1 and fails when over the byte
// budget.
func BenchmarkMachineFor(b *testing.B) {
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		machineSink = MachineFor(1)
	}
	b.StopTimer()
	if bytes := measureMachineForBytes(1, 4); bytes > machineForByteBudget {
		b.Fatalf("MachineFor: %.2f MB per machine, budget is %.2f MB",
			bytes/1e6, machineForByteBudget/1e6)
	}
}
