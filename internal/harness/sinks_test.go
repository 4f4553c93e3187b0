package harness

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ctbia/internal/obs"
	"ctbia/internal/resultcache"
)

// runSinks drives the three shared sinks the way a parallel sweep
// does: workers pull items off a shared index and, per item, add to
// interned counters through a per-worker obs shard, save a cache entry
// and journal a manifest outcome. Afterwards every outcome must reload
// from disk, every cache entry must read back from a fresh store, and
// the merged counter total must equal the work done.
func runSinks(t *testing.T, workers int) {
	t.Helper()
	defer obsReset()
	obsReset()
	const items, metricsPerItem = 96, 16
	dir := t.TempDir()
	store, err := resultcache.Open(dir, resultcache.ReadWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	man := NewManifest(filepath.Join(dir, ManifestName), true)
	obs.Arm()
	counter := obs.Intern("sinks.counter")

	type point struct {
		Item int
		Vals []int
	}
	key := func(i int) string { return resultcache.Key("sinks", fmt.Sprint(i)) }
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := obs.AcquireShard()
			defer obs.ReleaseShard(sh)
			for {
				i := int(next.Add(1)) - 1
				if i >= items {
					return
				}
				for k := 0; k < metricsPerItem; k++ {
					sh.Add(counter, 1)
				}
				if err := store.Save(key(i), point{Item: i, Vals: []int{i, 2 * i}}); err != nil {
					t.Errorf("Save %d: %v", i, err)
				}
				man.Record(fmt.Sprintf("item-%d", i), ManifestEntry{Status: "ok", Key: key(i), WallMS: 0.1})
			}
		}()
	}
	wg.Wait()

	if got := obs.Snapshot()["sinks.counter"]; got != items*metricsPerItem {
		t.Errorf("merged counter = %d, want %d", got, items*metricsPerItem)
	}
	metrics := map[string]uint64{}
	man.EmitMetrics(func(name string, v uint64) { metrics[name] = v })
	if metrics["manifest.records"] != items || metrics["manifest.commits"] != items || metrics["manifest.write_failures"] != 0 {
		t.Errorf("manifest records/commits/failures = %d/%d/%d, want %d/%d/0",
			metrics["manifest.records"], metrics["manifest.commits"], metrics["manifest.write_failures"], items, items)
	}
	// No Flush or Close: both sinks are write-through.
	m, stale, err := LoadManifest(filepath.Join(dir, ManifestName), true)
	if err != nil || stale {
		t.Fatalf("manifest reload: stale=%v err=%v", stale, err)
	}
	fresh, err := resultcache.Open(dir, resultcache.ReadOnly, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < items; i++ {
		if !m.Done(fmt.Sprintf("item-%d", i), key(i)) {
			t.Errorf("outcome %d missing from the reloaded manifest", i)
		}
		var p point
		if !fresh.Load(key(i), &p) || p.Item != i || len(p.Vals) != 2 || p.Vals[1] != 2*i {
			t.Errorf("cache entry %d unreadable: %+v", i, p)
		}
	}
}

func TestSinkContentionBench(t *testing.T) {
	runSinks(t, runtime.GOMAXPROCS(0))
}

// The CI contention job also runs at 4x oversubscription.
func TestSinkContentionBenchHighWorkers(t *testing.T) {
	runSinks(t, 4*runtime.GOMAXPROCS(0))
}

// Tables must be byte-identical whether the sharded metric sinks are
// armed or disarmed: accumulation moves traffic, never results.
func TestTablesByteIdenticalUnderSharding(t *testing.T) {
	defer obsReset()
	obsReset()
	exps := Experiments()
	if len(exps) == 0 {
		t.Fatal("no experiments registered")
	}
	exp := exps[0]
	for _, e := range exps {
		if e.ID == "fig2" {
			exp = e
			break
		}
	}

	render := func(armed bool) string {
		obsReset()
		if armed {
			obs.Arm()
		}
		res := RunAll([]Experiment{exp}, Options{Quick: true, Parallel: 2})
		if len(res) != 1 || res[0].Failed() {
			t.Fatalf("experiment failed: %+v", res[0].Err)
		}
		return res[0].Table.Render()
	}

	disarmed := render(false)
	armed := render(true)
	if disarmed != armed {
		t.Fatalf("tables diverged between disarmed and armed+sharded runs:\n--- disarmed ---\n%s\n--- armed ---\n%s", disarmed, armed)
	}
}
