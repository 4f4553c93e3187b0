package ct

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ctbia/internal/attacker"
	"ctbia/internal/bia"
	"ctbia/internal/cache"
	"ctbia/internal/cpu"
	"ctbia/internal/memp"
)

// FuzzSweepMatchesPerLine is the differential gate on the batched
// sweeps: every strategy that charges its loops through
// Machine.SweepLoad/SweepRMW must leave a machine bit-identical to the
// per-line reference (reference_test.go) — return value, counters,
// every cache level's metadata, BIA bitmaps, memory contents and the
// attacker-visible event stream — on random geometry, DS shape, width,
// target and strategy, with and without a per-access listener (which
// sends the sweeps down their per-access fallback). Without a listener
// it also checks the batched path keeps each protected strategy's
// footprint independent of which DS page the target sits in.
func FuzzSweepMatchesPerLine(f *testing.F) {
	f.Add(uint8(0), uint8(0), false, uint8(1), uint8(12), uint8(0), uint16(40), uint8(3), uint16(7), uint8(0), uint8(1), false, int64(1))
	f.Add(uint8(1), uint8(1), true, uint8(2), uint8(9), uint8(1), uint16(200), uint8(2), uint16(99), uint8(1), uint8(3), true, int64(2))
	f.Add(uint8(2), uint8(2), false, uint8(1), uint8(12), uint8(2), uint16(300), uint8(0), uint16(1234), uint8(2), uint8(6), false, int64(3))
	f.Fuzz(func(t *testing.T, l1Size, l1Ways uint8, inclusive bool, biaLevel, chunkShift, shape uint8,
		dsLines uint16, width uint8, target uint16, op, strat uint8, listen bool, seed int64) {
		c := newSweepCase(l1Size, l1Ways, inclusive, biaLevel, chunkShift, shape, dsLines, width, target, op, strat, seed)
		ref, got := c.run(c.target, listen, true), c.run(c.target, listen, false)
		if diff := ref.diff(got); diff != "" {
			t.Fatalf("%s: batched sweep diverges from the per-line reference: %s", c, diff)
		}
		if listen || !c.protected() {
			return
		}
		if other, ok := c.otherPage(); ok && c.blockLen(other) == c.blockLen(c.target) {
			if diff := got.diffFootprint(c.run(other, false, false)); diff != "" {
				t.Fatalf("%s: footprint depends on the target's page (%v vs %v): %s", c, c.target, other, diff)
			}
		}
	})
}

// sweepCase is one decoded fuzz input.
type sweepCase struct {
	cfg    cpu.Config
	region memp.Addr
	lines  []memp.Addr // the DS, line addresses
	w      cpu.Width
	target memp.Addr
	op     int // 0 Load, 1 Store, 2 LoadBlock
	strat  int
	seed   int64
}

var sweepStrategies = []struct {
	name      string
	batched   Strategy
	reference Strategy
	needsBIA  bool
	protected bool
}{
	{"insecure", Direct{}, refDirect{}, false, false},
	{"ct", Linear{}, refLinear{}, false, true},
	{"ct-avx", LinearVec{}, refLinearVec{}, false, true},
	{"bia", BIA{}, refBIA{}, true, true},
	{"bia-thresh", BIA{Threshold: 3}, refBIA{BIA{Threshold: 3}}, true, true},
	{"preload", Preload{}, refPreload{}, false, false},
	{"bia-macro", BIAMacro{}, refBIAMacro{}, true, true},
}

func newSweepCase(l1Size, l1Ways uint8, inclusive bool, biaLevel, chunkShift, shape uint8,
	dsLines uint16, width uint8, target uint16, op, strat uint8, seed int64) *sweepCase {
	c := &sweepCase{op: int(op % 3), strat: int(strat) % len(sweepStrategies), seed: seed}
	s := sweepStrategies[c.strat]
	shift := memp.LineShift + 1 + int(chunkShift)%(memp.PageShift-memp.LineShift)
	if s.name == "bia-macro" {
		shift = memp.PageShift // macro-ops are page-granular
	}
	c.cfg = cpu.Config{
		Levels: []cache.Config{
			{Name: "L1d", Size: 2048 << (l1Size % 3), Ways: 1 << (l1Ways % 3), Latency: 2},
			{Name: "L2", Size: 32 << 10, Ways: 4, Latency: 15},
			{Name: "LLC", Size: 128 << 10, Ways: 8, Latency: 41},
		},
		DRAMLatency: 100,
		Inclusive:   inclusive,
		BIA:         bia.Config{Entries: 8, Ways: 2, Latency: 1, ChunkShift: shift},
	}
	if s.needsBIA {
		c.cfg.BIALevel = 1 + int(biaLevel%2)
	}
	c.w = []cpu.Width{cpu.W8, cpu.W16, cpu.W32, cpu.W64}[width%4]

	// The DS lives in a 6-page region starting mid-page, so spans
	// straddle page and chunk boundaries.
	c.region = memp.Addr(0x40000 + 0x540)
	n := 1 + int(dsLines)%(6*memp.LinesPerPage-8)
	rng := rand.New(rand.NewSource(seed))
	switch shape % 3 {
	case 0: // contiguous
		for i := 0; i < n; i++ {
			c.lines = append(c.lines, c.region+memp.Addr(i*memp.LineSize))
		}
	case 1: // gapped: a random subset of the region's lines
		for i := 0; i < 6*memp.LinesPerPage-8; i++ {
			if rng.Intn(3) != 0 {
				c.lines = append(c.lines, c.region+memp.Addr(i*memp.LineSize))
			}
		}
		if len(c.lines) == 0 {
			c.lines = append(c.lines, c.region)
		}
	default: // multi-page runs with whole-page holes
		for p := 0; p < 6; p++ {
			if p%2 == 1 && p != 5 {
				continue
			}
			for i := 0; i < memp.LinesPerPage-8; i++ {
				c.lines = append(c.lines, c.region+memp.Addr((p*memp.LinesPerPage+i)*memp.LineSize))
			}
		}
	}
	la := c.lines[int(target)%len(c.lines)]
	off := (memp.Addr(target>>5) % memp.LineSize) &^ memp.Addr(c.w-1)
	c.target = la + off
	return c
}

func (c *sweepCase) String() string {
	return fmt.Sprintf("%s op=%d w=%d target=%v lines=%d L1=%dB/%dw incl=%v biaL%d M=%d seed=%d",
		sweepStrategies[c.strat].name, c.op, c.w, c.target, len(c.lines), c.cfg.Levels[0].Size,
		c.cfg.Levels[0].Ways, c.cfg.Inclusive, c.cfg.BIALevel, c.cfg.BIA.ChunkShift, c.seed)
}

func (c *sweepCase) protected() bool { return sweepStrategies[c.strat].protected }

// otherPage returns a DS address sharing the target's page offset in a
// different page, if the DS has one.
func (c *sweepCase) otherPage() (memp.Addr, bool) {
	ds := FromLines("fuzz", c.lines)
	for _, la := range c.lines {
		a := la.Page() | memp.Addr(c.target.PageOffset())
		if !memp.SamePage(a, c.target) && ds.ContainsLine(a) {
			return a, true
		}
	}
	return 0, false
}

// sweepOutcome is everything a run can be compared on.
type sweepOutcome struct {
	value   uint64
	block   []byte
	report  cpu.Report
	ctr     cpu.Counters
	ds      cpu.DSStats
	levels  []cache.Snapshot
	bitmaps string
	biaStat bia.Stats
	mem     []byte
	events  string
}

// run executes the case on a fresh machine: seeded memory contents, a
// seeded prefix of plain and protected accesses (mixed cache state,
// dirty lines, partially populated BIA), then three protected ops at
// the target, returning the final state.
func (c *sweepCase) run(target memp.Addr, listen, reference bool) sweepOutcome {
	s := sweepStrategies[c.strat]
	strat := s.batched
	if reference {
		strat = s.reference
	}
	m := cpu.New(c.cfg)
	ds := FromLines("fuzz", c.lines)
	rng := rand.New(rand.NewSource(c.seed))
	for _, la := range c.lines {
		for k := memp.Addr(0); k < memp.LineSize; k += 8 {
			m.Mem.Write64(la+k, rng.Uint64())
		}
	}
	var tr *attacker.Trace
	if listen {
		tr = attacker.NewTrace(m.Hier)
	}
	for i := 0; i < 48; i++ {
		a := c.lines[rng.Intn(len(c.lines))] + memp.Addr(rng.Intn(8)*8)
		if rng.Intn(2) == 0 {
			m.Load64(a)
		} else {
			m.Store64(a, rng.Uint64())
		}
	}

	var out sweepOutcome
	blockBase, blockLines := target.Line(), c.blockLen(target)
	for i := 0; i < 3; i++ {
		switch c.op {
		case 0:
			out.value ^= strat.Load(m, ds, target, c.w)
		case 1:
			strat.Store(m, ds, target, uint64(i+1)*0x9e3779b97f4a7c15, c.w)
		default:
			out.block = append(out.block, strat.LoadBlock(m, ds, blockBase, blockLines)...)
		}
	}

	out.report, out.ctr, out.ds = m.Report(), m.C, m.DS
	for i := 1; i <= m.Hier.Levels(); i++ {
		out.levels = append(out.levels, m.Hier.SnapshotLevel(i))
	}
	if m.BIA != nil {
		var b bytes.Buffer
		for _, la := range c.lines {
			e, d, ok := m.BIA.Peek(la)
			fmt.Fprintf(&b, "%x:%v:%x:%x;", uint64(la), ok, e, d)
		}
		out.bitmaps, out.biaStat = b.String(), m.BIA.Stats
	}
	out.mem = make([]byte, 6*memp.PageSize)
	m.Mem.Read(c.region, out.mem)
	if tr != nil {
		out.events = tr.Key()
	}
	return out
}

// blockLen is LoadBlock's line count at target: up to four DS lines
// running contiguously from the target's line. Block shape is public,
// so the secret-independence check only compares equal lengths.
func (c *sweepCase) blockLen(target memp.Addr) int {
	ds := FromLines("fuzz", c.lines)
	n := 1
	for n < 4 && ds.ContainsLine(target.Line()+memp.Addr(n*memp.LineSize)) {
		n++
	}
	return n
}

// diff describes the first difference between two outcomes, "" if none.
func (o sweepOutcome) diff(p sweepOutcome) string {
	switch {
	case o.value != p.value:
		return fmt.Sprintf("value %#x vs %#x", o.value, p.value)
	case !bytes.Equal(o.block, p.block):
		return "LoadBlock bytes differ"
	case !bytes.Equal(o.mem, p.mem):
		return "DS memory contents differ"
	case o.ctr != p.ctr:
		return fmt.Sprintf("counters %+v vs %+v", o.ctr, p.ctr)
	case o.events != p.events:
		return "attacker event streams differ"
	}
	return o.diffFootprint(p)
}

// diffFootprint compares what an attacker or the timing model can see
// of a run: report, bitmap savings, cache metadata and BIA state.
func (o sweepOutcome) diffFootprint(p sweepOutcome) string {
	switch {
	case o.report != p.report:
		return fmt.Sprintf("report %v vs %v", o.report, p.report)
	case o.ds != p.ds:
		return fmt.Sprintf("DS stats %+v vs %+v", o.ds, p.ds)
	case o.bitmaps != p.bitmaps:
		return "BIA bitmaps differ"
	case o.biaStat != p.biaStat:
		return fmt.Sprintf("BIA stats %+v vs %+v", o.biaStat, p.biaStat)
	}
	for i := range o.levels {
		if !o.levels[i].Equal(p.levels[i]) {
			return fmt.Sprintf("level %d snapshots differ", i+1)
		}
	}
	return ""
}
