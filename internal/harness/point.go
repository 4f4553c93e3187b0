package harness

import (
	"fmt"
	"sync/atomic"
	"time"

	"ctbia/internal/cpu"
	"ctbia/internal/obs"
)

// pointsRun counts the simulation points this process has executed.
// Unlike the obs progress count it counts whether or not the
// observability layer is armed, so a fleet worker's point figures are
// right either way.
var pointsRun atomic.Uint64

// PointsRun returns the number of simulation points executed so far in
// this process. Deltas around an experiment attribute points to it,
// with the same overlap caveat as the machine counters.
func PointsRun() uint64 { return pointsRun.Load() }

// verifySum enforces the harness invariant that no experiment reports
// numbers from a run with a wrong answer. It panics with a typed
// *PointError: a wrong checksum is a simulator bug that the worker
// recovery layers turn into a FAILED row instead of a crashed sweep.
func verifySum(label string, got, want uint64) {
	if got != want {
		panic(&PointError{Point: label,
			Err: fmt.Errorf("harness: %s produced checksum %#x, reference %#x — simulator bug",
				label, got, want)})
	}
}

// runPoint executes one simulation point: sim runs on a cold machine
// from pool, its result is verified against the pure-Go reference, and
// the machine's statistics are harvested before it returns to the
// pool. On a verification panic the machine is abandoned rather than
// pooled.
//
// Every simulated point passes through here exactly once, so this is
// where points are counted and, while obs is armed, where their wall
// time is distributed. Disarmed, the bookkeeping costs one atomic add
// and three atomic loads and allocates nothing.
func runPoint(pool *cpu.Pool, label string, ref func() uint64, sim func(m *cpu.Machine) uint64) cpu.Report {
	pointsRun.Add(1)
	obs.NotePoint()
	timed := obs.Enabled()
	var start time.Time
	if timed {
		start = time.Now()
	}
	sp := obs.StartSpan("point", label)
	m := pool.Get()
	got := sim(m)
	verifySum(label, got, ref())
	r := m.Report()
	harvest(pool, m)
	pool.Put(m)
	if timed {
		pointWall.Observe(uint64(time.Since(start).Microseconds()))
	}
	sp.End()
	return r
}
