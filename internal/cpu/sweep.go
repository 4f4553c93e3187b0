package cpu

import (
	"math/bits"

	"ctbia/internal/cache"
	"ctbia/internal/memp"
)

// Linearization sweeps — Constantine-style loops that touch every line
// of a dataflow linearization set, and the BIA algorithms' fetch loops
// — are the dominant instruction stream of every protected
// configuration. SweepLoad and SweepRMW charge such a loop in one call,
// and SweepSlots a bitmap-driven fetch loop in one call per run of set
// bits: the per-iteration ALU ops in bulk and the accesses through the
// hierarchy's closed-form batch walk.
//
// Sweeps move no data. In the loops they replace, every access but the
// target's is a read whose value a cmov discards, or a write-back of
// the value just read, so only the target's word changes hands; the
// caller moves it with ReadW/WriteW.

// SweepLoad charges n loads of width w at base, base+stride, ..., each
// preceded by preStream streaming ALU ops: exactly what
//
//	for k := 0; k < n; k++ {
//		m.OpStream(preStream)
//		m.LoadModeW(base+memp.Addr(k*stride), w, mode)
//	}
//
// charges and emits, without reading any data.
func (m *Machine) SweepLoad(base memp.Addr, stride int64, n, preStream int, w Width, mode AccessMode) {
	m.sweep(base, stride, n, preStream, w, m.modeFlags(mode), false)
}

// SweepRMW charges n read-modify-write pairs: per iteration preStream
// streaming ALU ops, a load of width w at base+k*stride, then a store
// back to the same address — the body of every linearized store sweep,
// without moving any data (the caller writes the blended target word).
func (m *Machine) SweepRMW(base memp.Addr, stride int64, n, preStream int, w Width, mode AccessMode) {
	m.sweep(base, stride, n, preStream, w, m.modeFlags(mode), true)
}

// SweepSlots is a fetch loop over a line-slot bitmap (a BIA bitmap or a
// DS Bitmask, Alg. 2/3): for every set slot i of slots, one access of
// width w at base + i<<6 + target's offset within its line, each
// preceded by preStream streaming ALU ops; load+store pairs when rmw.
// Each run of consecutive set slots is one SweepLoad/SweepRMW.
func (m *Machine) SweepSlots(base memp.Addr, slots uint64, target memp.Addr, preStream int, w Width, mode AccessMode, rmw bool) {
	flags := m.modeFlags(mode)
	for slots != 0 {
		slot := bits.TrailingZeros64(slots)
		n := bits.TrailingZeros64(^(slots >> uint(slot))) // the run's length
		slots &^= (uint64(1)<<uint(n) - 1) << uint(slot)
		m.sweep(memp.GenAddrAt(base, uint(slot), target), memp.LineSize, n, preStream, w, flags, rmw)
	}
}

// sweep validates a sweep and charges it: a strided run of n accesses
// (n load+store pairs when rmw), each preceded by preStream streaming
// ALU ops. The ops are charged in bulk up front, which is exact:
// OpStream accounting is additive and the wide-issue slop carry is
// untouched by accesses, so interleaving order cannot change any
// counter.
//
// With no listener that wants per-access events and neither uncached
// nor bypassing flags, the accesses take Hierarchy.AccessBatch(RMW):
// one flat loop with the bookkeeping (retire, load/store counts,
// streaming-hit cycle parity) applied in closed form, bit-exact with
// the scalar loop. Otherwise every access goes through access, so
// attacker telemetry sees the exact per-access event stream.
func (m *Machine) sweep(base memp.Addr, stride int64, n, preStream int, w Width, flags cache.Flags, rmw bool) {
	w.check()
	if n < 0 || preStream < 0 {
		panic("cpu: negative sweep length or op count")
	}
	if n == 0 {
		return
	}
	m.OpStream(preStream * n)
	if m.Hier.BatchSafe() && flags&(cache.FlagUncached|flagBypassToBIA) == 0 {
		streaming := flags&flagStreaming != 0
		f := flags &^ flagStreaming
		var hits, miss int
		switch {
		case rmw:
			m.retire(2 * n)
			m.C.Loads += uint64(n)
			m.C.Stores += uint64(n)
			hits, miss = m.Hier.AccessBatchRMW(base, stride, n, f)
		case f&cache.FlagWrite != 0:
			m.retire(n)
			m.C.Stores += uint64(n)
			hits, miss = m.Hier.AccessBatch(base, stride, n, f)
		default:
			m.retire(n)
			m.C.Loads += uint64(n)
			hits, miss = m.Hier.AccessBatch(base, stride, n, f)
		}
		m.chargeBatch(hits, miss, streaming)
		return
	}
	addr := base
	for k := 0; k < n; k++ {
		m.access(addr, flags)
		if rmw {
			m.access(addr, flags|cache.FlagWrite)
		}
		addr += memp.Addr(stride)
	}
}

// chargeBatch applies the cycle cost of a batch: start-level hits at
// either the start level's latency or, for streaming runs, the L1
// dual-port parity sequence (whose sum depends only on the hit count
// and the entry parity, not on which accesses hit), plus the misses'
// full latencies.
func (m *Machine) chargeBatch(startHits, missCycles int, streaming bool) {
	if streaming {
		if m.streamParity == 0 {
			m.C.Cycles += uint64((startHits + 1) / 2)
		} else {
			m.C.Cycles += uint64(startHits / 2)
		}
		m.streamParity ^= startHits & 1
	} else {
		m.C.Cycles += uint64(startHits * m.Hier.Level(1).Latency())
	}
	m.C.Cycles += uint64(missCycles)
}
