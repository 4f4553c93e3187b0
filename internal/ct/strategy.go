package ct

import (
	"ctbia/internal/cpu"
	"ctbia/internal/memp"
)

// Strategy performs protected (or deliberately unprotected) memory
// accesses on behalf of a workload. The caller supplies the dataflow
// linearization set of the access; the strategy decides what actually
// touches the memory system.
//
// Contract: Load returns the value of width w at addr; Store writes v of
// width w at addr and changes no other address's value. For the
// protected strategies the cache footprint is a function of (ds, page
// offset of addr, prior cache state) only — never of which DS element
// addr is.
type Strategy interface {
	// Name identifies the strategy in experiment tables
	// ("insecure", "ct", "ct-avx", "bia", ...).
	Name() string
	// NeedsBIA reports whether the strategy requires the proposed
	// hardware (machine must have a BIA attached).
	NeedsBIA() bool
	// Load performs a protected load of width w at addr ∈ ds.
	Load(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64
	// Store performs a protected store of width w at addr ∈ ds.
	Store(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width)
	// LoadBlock performs a protected gather of nLines consecutive
	// cache lines starting at the line-aligned blockAddr, all within
	// ds, returning their bytes. This is the oblivious bulk fetch an
	// optimized constant-time transform emits for row/segment reads
	// (e.g. Dijkstra's adjacency row): one linearized sweep extracts
	// the whole block instead of one sweep per element.
	LoadBlock(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte
}

// Instruction-cost constants for the software loops around the memory
// accesses, in ALU instructions. These model the x86 address
// generation, compare, cmov and loop-control work that Constantine's
// linearized loops execute per element; the cachegrind-style motivation
// table in the paper (L1i refs ~7x L1d refs in the secure version)
// calibrates them.
const (
	// opsDirect is the overhead of an ordinary array access (index
	// scale + add).
	opsDirect = 2
	// opsLinearIter is charged per DS line in the scalar linearized
	// loop: address gen, compare, cmov, increment, branch.
	opsLinearIter = 6
	// opsLinearStoreIter adds the blend before the write-back.
	opsLinearStoreIter = 7
	// opsVecIterPerLine is the amortized per-line cost of the AVX2
	// gather/blend variant (one 4-lane vector op bundle per 4 lines,
	// plus scalar loop control). Calibrated against the paper's
	// motivation table: the avx build's L1i/L1d ratio is ~4.4 vs ~7.3
	// for the scalar build.
	opsVecIterPerLine = 3
	// opsBlockIter is charged per DS line in a scalar block-gather
	// sweep: address gen, in-block test, wide blend, loop control.
	opsBlockIter = 8
	// opsBlockVecIter is its vectorized counterpart.
	opsBlockVecIter = 3
	// opsPageSetup is charged per page span: regenerate addr_to_read,
	// fetch Bitmask, combine with existence (Alg. 2 lines 4-7).
	opsPageSetup = 5
	// opsFetchIter is charged per fetched line in Alg. 2/3: bit scan,
	// generateAddrs arithmetic, compare, cmov.
	opsFetchIter = 6
	// opsFetchStoreIter adds the blend before STORE in Alg. 3.
	opsFetchStoreIter = 7
	// opsSelect is one branch-free select (cmov).
	opsSelect = 1
)

// Direct is the insecure baseline: a plain access. Its footprint leaks
// addr — exactly what the attacker in Sec. 2 exploits.
type Direct struct{}

// Name implements Strategy.
func (Direct) Name() string { return "insecure" }

// NeedsBIA implements Strategy.
func (Direct) NeedsBIA() bool { return false }

// Load implements Strategy.
func (Direct) Load(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64 {
	m.Op(opsDirect)
	return m.LoadW(addr, w)
}

// Store implements Strategy.
func (Direct) Store(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width) {
	m.Op(opsDirect)
	m.StoreW(addr, v, w)
}

// Linear is Constantine-style software dataflow linearization: touch
// every line of the DS with the target's line offset, selecting the real
// value with a cmov. This is the paper's "CT" comparison point.
type Linear struct{}

// Name implements Strategy.
func (Linear) Name() string { return "ct" }

// NeedsBIA implements Strategy.
func (Linear) NeedsBIA() bool { return false }

// sweepMode is how the linearization sweeps touch the DS: no LRU
// update (secret-relevant) and pipelined as an independent loop.
const sweepMode = cpu.ModeNoLRU | cpu.ModeStreaming

// Load implements Strategy: one sweep per contiguous run of DS lines,
// each iteration loading the line at the target's line offset. The
// loop's cmov keeps only the target's word, so that word is the one
// read.
func (Linear) Load(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64 {
	ds.mustContain(addr)
	off := memp.Addr(addr.Offset())
	for _, r := range ds.runs {
		m.SweepLoad(r.base+off, memp.LineSize, r.n, opsLinearIter, w, sweepMode)
	}
	return m.ReadW(addr, w)
}

// Store implements Strategy: every DS line is read and written back,
// with the new value blended in at the target only, so every line ends
// up dirty regardless of the secret. Write-backs of unchanged values
// move no data; only the target's word is written.
func (Linear) Store(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width) {
	ds.mustContain(addr)
	off := memp.Addr(addr.Offset())
	for _, r := range ds.runs {
		m.SweepRMW(r.base+off, memp.LineSize, r.n, opsLinearStoreIter, w, sweepMode)
	}
	m.WriteW(addr, v, w)
}

// LinearVec is the AVX2-accelerated linearization the paper's
// "secure with avx" rows use: the same cache traffic as Linear, but the
// address-generation/compare/blend work is vectorized four lanes wide,
// shrinking the instruction count (the paper's motivation table: L1i
// refs drop from 138M to 83M while L1d refs stay put).
type LinearVec struct{}

// Name implements Strategy.
func (LinearVec) Name() string { return "ct-avx" }

// NeedsBIA implements Strategy.
func (LinearVec) NeedsBIA() bool { return false }

// vecBundles is how many 4-line vector bundles a vectorized sweep over
// ds issues.
func vecBundles(ds *LinSet) int { return (ds.NumLines() + 3) / 4 }

// Load implements Strategy: Linear's sweep with the per-line work
// issued as one vector bundle per 4 lines, charged up front (ALU
// charging is additive, so the bundles need not interleave the loads).
func (LinearVec) Load(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64 {
	ds.mustContain(addr)
	off := memp.Addr(addr.Offset())
	m.OpStream(vecBundles(ds) * 4 * opsVecIterPerLine)
	for _, r := range ds.runs {
		m.SweepLoad(r.base+off, memp.LineSize, r.n, 0, w, sweepMode)
	}
	return m.ReadW(addr, w)
}

// Store implements Strategy.
func (LinearVec) Store(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width) {
	ds.mustContain(addr)
	off := memp.Addr(addr.Offset())
	m.OpStream(vecBundles(ds) * (4*opsVecIterPerLine + 2)) // gather + blend + scatter bundles
	for _, r := range ds.runs {
		m.SweepRMW(r.base+off, memp.LineSize, r.n, 0, w, sweepMode)
	}
	m.WriteW(addr, v, w)
}

// checkBlock validates LoadBlock arguments: line alignment and full DS
// membership of the block. Violations are transformation bugs.
func checkBlock(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) {
	if blockAddr.Offset() != 0 {
		panic("ct: LoadBlock address not line-aligned")
	}
	if nLines <= 0 {
		panic("ct: LoadBlock needs at least one line")
	}
	for i := 0; i < nLines; i++ {
		ds.mustContain(blockAddr + memp.Addr(i*memp.LineSize))
	}
}

// readBlock copies the block's bytes out of backing memory; the timing
// and footprint were already charged by the caller's accesses.
func readBlock(m *cpu.Machine, blockAddr memp.Addr, nLines int) []byte {
	buf := make([]byte, nLines*memp.LineSize)
	m.Mem.Read(blockAddr, buf)
	return buf
}

// LoadBlock implements Strategy: the insecure program reads the block's
// elements directly (one 4-byte load per element, like the original
// row-scan loop).
func (Direct) LoadBlock(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
	checkBlock(m, ds, blockAddr, nLines)
	m.SweepLoad(blockAddr, 4, nLines*memp.LineSize/4, opsDirect, cpu.W32, cpu.ModeStreaming)
	return readBlock(m, blockAddr, nLines)
}

// LoadBlock implements Strategy: one linearized sweep over the whole DS
// with a wide blend capturing the lines that belong to the block.
func (Linear) LoadBlock(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
	checkBlock(m, ds, blockAddr, nLines)
	for _, r := range ds.runs {
		m.SweepLoad(r.base, memp.LineSize, r.n, opsBlockIter, cpu.W64, sweepMode)
	}
	return readBlock(m, blockAddr, nLines)
}

// LoadBlock implements Strategy: the vectorized sweep.
func (LinearVec) LoadBlock(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
	checkBlock(m, ds, blockAddr, nLines)
	m.OpStream(vecBundles(ds) * 4 * opsBlockVecIter)
	for _, r := range ds.runs {
		m.SweepLoad(r.base, memp.LineSize, r.n, 0, cpu.W64, sweepMode)
	}
	return readBlock(m, blockAddr, nLines)
}

// Compile-time interface checks.
var (
	_ Strategy = Direct{}
	_ Strategy = Linear{}
	_ Strategy = LinearVec{}
)
