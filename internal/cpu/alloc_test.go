package cpu

import (
	"testing"

	"ctbia/internal/cache"
	"ctbia/internal/memp"
)

// The zero-allocation guarantee on the access path is a hard budget:
// every simulated load and store in every experiment goes through
// these functions, so a single allocation per op reappears billions of
// times over `ctbench -exp all`. The benchmarks below fail — not just
// report — when the path allocates, and the plain tests enforce the
// same budgets under `go test ./...` where benchmarks don't run.

// accessSpan keeps the address walk inside the machine's mapped pages
// while still sweeping far more lines than the LLC holds, so the
// benchmark exercises hits, misses, evictions and writebacks.
const accessSpan = 1 << 22

func assertZeroAllocs(t *testing.T, name string, allocs float64) {
	t.Helper()
	if allocs != 0 {
		t.Errorf("%s: %.1f allocs/op, budget is 0", name, allocs)
	}
}

func TestAccessPathZeroAllocs(t *testing.T) {
	m := New(func() Config { c := DefaultConfig(); c.BIALevel = 1; return c }())
	var i uint64
	addr := func() memp.Addr { i++; return memp.Addr(i*64) % accessSpan }

	assertZeroAllocs(t, "Load64", testing.AllocsPerRun(5000, func() { m.Load64(addr()) }))
	assertZeroAllocs(t, "Store64", testing.AllocsPerRun(5000, func() { m.Store64(addr(), i) }))
	assertZeroAllocs(t, "CTLoad64", testing.AllocsPerRun(5000, func() { m.CTLoad64(addr()) }))
	assertZeroAllocs(t, "CTStore64", testing.AllocsPerRun(5000, func() { m.CTStore64(addr(), i) }))
	assertZeroAllocs(t, "Hier.Access", testing.AllocsPerRun(5000, func() { m.Hier.Access(addr(), 0) }))
	assertZeroAllocs(t, "Hier.Access(write)", testing.AllocsPerRun(5000, func() { m.Hier.Access(addr(), cache.FlagWrite) }))
}

// TestSweepZeroAllocs holds the sweep primitives to the same budget on
// a warm machine, on both the batched path and the
// per-access fallback an uncached sweep takes.
func TestSweepZeroAllocs(t *testing.T) {
	m := New(func() Config { c := DefaultConfig(); c.BIALevel = 1; return c }())
	var i uint64
	base := func() memp.Addr { i++; return memp.Addr(i*64*64) % accessSpan }
	const mode = ModeNoLRU | ModeStreaming
	m.SweepLoad(0, 64, 64, 6, W64, mode)
	m.SweepRMW(0, 64, 64, 7, W64, mode)
	assertZeroAllocs(t, "SweepLoad", testing.AllocsPerRun(2000, func() { m.SweepLoad(base(), 64, 64, 6, W64, mode) }))
	assertZeroAllocs(t, "SweepRMW", testing.AllocsPerRun(2000, func() { m.SweepRMW(base(), 64, 64, 7, W64, mode) }))
	assertZeroAllocs(t, "SweepLoad(uncached)", testing.AllocsPerRun(2000, func() { m.SweepLoad(base(), 64, 64, 6, W64, mode|ModeUncached) }))
}

func TestMachineResetZeroAllocs(t *testing.T) {
	m := NewDefault()
	// Warm the machine so Reset has real state to shed.
	for i := 0; i < 4096; i++ {
		m.Store64(memp.Addr(i*64)%accessSpan, uint64(i))
	}
	assertZeroAllocs(t, "Machine.Reset", testing.AllocsPerRun(10, func() { m.Reset() }))
}

// BenchmarkAccessAllocs measures and enforces the hierarchy access
// path: 0 allocs/op, a failure otherwise.
func BenchmarkAccessAllocs(b *testing.B) {
	m := New(func() Config { c := DefaultConfig(); c.BIALevel = 1; return c }())
	b.ReportAllocs()
	b.ResetTimer()
	var i uint64
	for n := 0; n < b.N; n++ {
		i++
		addr := memp.Addr(i*64) % accessSpan
		if i&1 == 0 {
			m.Load64(addr)
		} else {
			m.CTLoad64(addr)
		}
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(2000, func() { i++; m.Load64(memp.Addr(i*64) % accessSpan) }); allocs != 0 {
		b.Fatalf("access path allocates: %.1f allocs/op, budget is 0", allocs)
	}
}

// BenchmarkSweepAllocs measures and enforces the batched sweep path: a
// 64-line load sweep and a 64-pair RMW sweep per op, 0 allocs/op.
func BenchmarkSweepAllocs(b *testing.B) {
	m := New(func() Config { c := DefaultConfig(); c.BIALevel = 1; return c }())
	const mode = ModeNoLRU | ModeStreaming
	b.ReportAllocs()
	b.ResetTimer()
	var i uint64
	for n := 0; n < b.N; n++ {
		i++
		base := memp.Addr(i*64*64) % accessSpan
		m.SweepLoad(base, 64, 64, 6, W64, mode)
		m.SweepRMW(base, 64, 64, 7, W64, mode)
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(200, func() { i++; m.SweepRMW(memp.Addr(i*64*64)%accessSpan, 64, 64, 7, W64, mode) }); allocs != 0 {
		b.Fatalf("sweep path allocates: %.1f allocs/op, budget is 0", allocs)
	}
}
