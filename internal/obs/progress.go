package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Progress accounting for long sweeps: the harness books experiments
// as they start and finish, and StartProgress prints a periodic
// one-line status (done/failed/cached, simulation points executed,
// ETA) without touching any per-access hot path. The experiment-level
// counters are plain atomics updated a handful of times per run;
// the per-point counter is armed-gated like every other probe.
var progress struct {
	total   atomic.Uint64
	done    atomic.Uint64
	failed  atomic.Uint64
	cached  atomic.Uint64
	points  atomic.Uint64
	startNS atomic.Int64
}

// ProgressAddTotal books n upcoming experiments (RunAll calls it once
// per invocation; totals accumulate across invocations in one process).
func ProgressAddTotal(n int) {
	progress.total.Add(uint64(n))
	progress.startNS.CompareAndSwap(0, time.Now().UnixNano())
}

// ProgressExpDone books one finished experiment.
func ProgressExpDone(cached, failed bool) {
	progress.done.Add(1)
	if cached {
		progress.cached.Add(1)
	}
	if failed {
		progress.failed.Add(1)
	}
}

// NotePoint books one executed simulation point.
// Disarmed it is a single atomic load.
func NotePoint() {
	if !armed.Load() {
		return
	}
	progress.points.Add(1)
}

// ProgressCounts returns the current progress totals.
func ProgressCounts() (total, done, failed, cached, points uint64) {
	return progress.total.Load(), progress.done.Load(),
		progress.failed.Load(), progress.cached.Load(), progress.points.Load()
}

// Fleet progress: a distributed sweep's coordinator executes some
// units in-process (cache hits, the graceful-degradation drain) while
// the rest run on remote workers whose NotePoint calls this registry
// never sees. The coordinator labels the sweep distributed and feeds
// the remote-side figures here, so the /progress line and ETA cover
// the whole fleet instead of silently counting only local work.
var fleetProg struct {
	active    atomic.Bool
	remoteExp atomic.Uint64 // experiments executed by workers and accepted
	remotePts atomic.Uint64 // points executed on workers (heartbeat-fed, cumulative)
	inFlight  atomic.Uint64 // units currently leased to workers
	workers   atomic.Uint64 // workers currently live
}

// ProgressFleetOn marks the sweep distributed: progress lines start
// labeling local vs remote execution (even while the fleet is empty —
// a -serve run with no workers yet is still a fleet run).
func ProgressFleetOn() { fleetProg.active.Store(true) }

// ProgressRemoteExpDone books one experiment executed remotely and
// accepted (call alongside ProgressExpDone, which still books the
// completion itself).
func ProgressRemoteExpDone() { fleetProg.remoteExp.Add(1) }

// SetProgressFleet updates the live remote-side figures: cumulative
// points executed on workers, units currently in flight remotely, and
// live worker count.
func SetProgressFleet(points, inFlight, workers uint64) {
	fleetProg.remotePts.Store(points)
	fleetProg.inFlight.Store(inFlight)
	fleetProg.workers.Store(workers)
}

// ProgressFleetCounts returns the remote-side progress figures and
// whether the sweep is marked distributed.
func ProgressFleetCounts() (remoteExp, remotePoints, inFlight, workers uint64, active bool) {
	return fleetProg.remoteExp.Load(), fleetProg.remotePts.Load(),
		fleetProg.inFlight.Load(), fleetProg.workers.Load(), fleetProg.active.Load()
}

// progressLine renders one status line. Distributed sweeps label how
// the done experiments executed (locally vs on workers) and count
// remote points and in-flight units, so the line stays honest the
// moment a worker joins.
func progressLine() string {
	total, done, failed, cached, points := ProgressCounts()
	var line string
	if remoteExp, remotePts, inFlight, workers, active := ProgressFleetCounts(); active {
		local := uint64(0)
		if n := done - cached; n > remoteExp {
			local = n - remoteExp
		}
		line = fmt.Sprintf("progress: %d/%d experiments done (%d failed, %d cached, %d remote, %d local), %d points run locally + %d on workers, %d units in flight on %d workers",
			done, total, failed, cached, remoteExp, local, points, remotePts, inFlight, workers)
	} else {
		line = fmt.Sprintf("progress: %d/%d experiments done (%d failed, %d cached), %d points run",
			done, total, failed, cached, points)
	}
	if start := progress.startNS.Load(); start != 0 && done > 0 && done < total {
		elapsed := time.Duration(time.Now().UnixNano() - start)
		eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
		line += fmt.Sprintf(", ~%s left", eta.Round(time.Second))
	}
	return line
}

// StartProgress prints a progress line to w every interval until the
// returned stop function is called (stop prints a final line). The
// ticker goroutine holds no locks shared with simulation, so it can
// never perturb results.
func StartProgress(w io.Writer, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	doneCh := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fmt.Fprintln(w, progressLine())
			case <-doneCh:
				fmt.Fprintln(w, progressLine())
				return
			}
		}
	}()
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			close(doneCh)
			<-finished
		}
	}
}

// ResetProgress zeroes the progress counters, fleet figures included
// (test isolation).
func ResetProgress() {
	progress.total.Store(0)
	progress.done.Store(0)
	progress.failed.Store(0)
	progress.cached.Store(0)
	progress.points.Store(0)
	progress.startNS.Store(0)
	fleetProg.active.Store(false)
	fleetProg.remoteExp.Store(0)
	fleetProg.remotePts.Store(0)
	fleetProg.inFlight.Store(0)
	fleetProg.workers.Store(0)
}
