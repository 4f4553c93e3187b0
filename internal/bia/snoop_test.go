package bia

import (
	"math/rand"
	"reflect"
	"testing"

	"ctbia/internal/cache"
	"ctbia/internal/memp"
)

// The batched access paths (Hierarchy.AccessBatch/AccessBatchRMW) are
// allowed to run under a BIA because they snoop the same hit/dirty
// edges the scalar path emits. These tests pin that equivalence: a
// BIA-attached system driven through the batch paths must end in
// bit-identical state — every cache statistic, every BIA counter,
// every existence/dirtiness bitmap — to one driven access by access,
// and the batch's (l1Hits, missCycles) split must re-compose into the
// scalar path's total charged cycles.

// TestBIAHierarchyIsBatchSafe pins the gate the cpu sweeps key on: a
// BIA wants hit/fill/evict/dirty events but not EvAccess, so its
// hierarchy may take the batched fast path.
func TestBIAHierarchyIsBatchSafe(t *testing.T) {
	h, _ := newSystem()
	if !h.BatchSafe() {
		t.Fatal("BIA-attached hierarchy reports !BatchSafe; BIA sweeps would fall off the fast path")
	}
}

// batchStep is one randomized schedule element, replayed identically
// against the scalar and the batched system.
type batchStep struct {
	base   memp.Addr
	n      int
	flags  cache.Flags
	rmw    bool
	instal memp.Addr // page to LookupOrInstall before the run (0 = none)
}

func randomSteps(rng *rand.Rand, count int) []batchStep {
	steps := make([]batchStep, count)
	for i := range steps {
		st := batchStep{
			base: memp.Addr(rng.Intn(1<<17)) &^ memp.LineMask,
			n:    1 + rng.Intn(96),
		}
		if rng.Intn(3) == 0 {
			st.flags = cache.FlagWrite
		}
		if rng.Intn(4) == 0 {
			st.rmw = true
			st.flags &^= cache.FlagWrite // RMW supplies the write itself
		}
		if rng.Intn(2) == 0 {
			// Install a BIA entry covering part of the upcoming run so
			// the snooped events actually flip bitmap bits.
			st.instal = st.base + memp.Addr(rng.Intn(st.n))*memp.LineSize
		}
		steps[i] = st
	}
	return steps
}

func TestBatchSnoopChargingEquivalence(t *testing.T) {
	hs, bs := newSystem() // scalar reference
	hb, bb := newSystem() // batched
	l1Lat := hs.Level(1).Latency()

	rng := rand.New(rand.NewSource(7))
	for _, st := range randomSteps(rng, 300) {
		if st.instal != 0 {
			bs.LookupOrInstall(st.instal)
			bb.LookupOrInstall(st.instal)
		}
		var scalarCycles int
		addr := st.base
		for k := 0; k < st.n; k++ {
			if st.rmw {
				scalarCycles += hs.AccessFrom(1, addr, st.flags).Cycles
				scalarCycles += hs.AccessFrom(1, addr, st.flags|cache.FlagWrite).Cycles
			} else {
				scalarCycles += hs.AccessFrom(1, addr, st.flags).Cycles
			}
			addr += memp.LineSize
		}
		var hits, miss int
		if st.rmw {
			hits, miss = hb.AccessBatchRMW(st.base, memp.LineSize, st.n, st.flags)
		} else {
			hits, miss = hb.AccessBatch(st.base, memp.LineSize, st.n, st.flags)
		}
		if got := hits*l1Lat + miss; got != scalarCycles {
			t.Fatalf("step %+v: batch charges %d cycles (hits=%d miss=%d), scalar %d",
				st, got, hits, miss, scalarCycles)
		}
	}

	for lvl := 1; lvl <= hs.Levels(); lvl++ {
		if ws, gs := hs.Level(lvl).Stats, hb.Level(lvl).Stats; ws != gs {
			t.Errorf("L%d stats diverged\nscalar: %+v\nbatch:  %+v", lvl, ws, gs)
		}
	}
	if hs.Stats != hb.Stats {
		t.Errorf("DRAM stats diverged\nscalar: %+v\nbatch:  %+v", hs.Stats, hb.Stats)
	}
	if bs.Stats != bb.Stats {
		t.Errorf("BIA stats diverged\nscalar: %+v\nbatch:  %+v", bs.Stats, bb.Stats)
	}
	if !reflect.DeepEqual(bs.entries, bb.entries) {
		t.Errorf("BIA table state diverged under batched snooping\nscalar: %+v\nbatch:  %+v",
			bs.entries, bb.entries)
	}
}

// TestNegativeFindMemo pins the miss memo: repeated snoops for an
// untracked chunk skip the way scan, and an install of that chunk
// invalidates the memo immediately.
func TestNegativeFindMemo(t *testing.T) {
	_, b := newSystem()
	a := memp.Addr(0x40000)
	if e := b.find(b.chunkIdx(a)); e != nil {
		t.Fatal("fresh table claims to track a chunk")
	}
	if !b.lastMissOK || b.lastMissChunk != b.chunkIdx(a) {
		t.Fatal("miss was not memoized")
	}
	// The memoized miss must not outlive an install of the same chunk.
	b.LookupOrInstall(a)
	if e := b.find(b.chunkIdx(a)); e == nil {
		t.Fatal("stale negative memo hid a freshly installed entry")
	}
	b.Reset()
	if b.lastMissOK {
		t.Fatal("Reset left the negative memo armed")
	}
}
