package ct

import (
	"fmt"
	"testing"

	"ctbia/internal/cpu"
	"ctbia/internal/memp"
)

// TestSweepStrategiesZeroAllocs: the linearized strategies' Load and
// Store run once per protected access of every experiment, so on a warm
// machine they may not allocate at all — the DS runs and spans are
// precomputed and the sweeps charge without touching the heap.
func TestSweepStrategiesZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		s   Strategy
		cfg cpu.Config
	}{
		{Linear{}, testConfig(0)},
		{LinearVec{}, testConfig(0)},
		{BIA{}, testConfig(1)},
		{BIA{}, testConfig(2)},
	} {
		m := cpu.New(tc.cfg)
		ds := FromRegion(m.Alloc.Alloc("table", 3*memp.PageSize))
		var i uint64
		addr := func() memp.Addr { i++; return ds.Lines()[i*37%uint64(ds.NumLines())] + memp.Addr(i%8*8) }
		tc.s.Load(m, ds, addr(), cpu.W64)
		tc.s.Store(m, ds, addr(), i, cpu.W64)
		name := fmt.Sprintf("%s@L%d", tc.s.Name(), tc.cfg.BIALevel)
		if allocs := testing.AllocsPerRun(200, func() { tc.s.Load(m, ds, addr(), cpu.W64) }); allocs != 0 {
			t.Errorf("%s Load: %.1f allocs/op, budget is 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() { tc.s.Store(m, ds, addr(), i, cpu.W64) }); allocs != 0 {
			t.Errorf("%s Store: %.1f allocs/op, budget is 0", name, allocs)
		}
	}
}
