package ct

import (
	"math/bits"

	"ctbia/internal/cpu"
	"ctbia/internal/memp"
)

// HookPoint identifies where in Algorithms 2/3 an interference hook
// fires; failure-injection tests use it to emulate the paper's Fig. 6
// scenarios (another process evicting or prefetching lines between the
// CT micro-ops).
type HookPoint int

// Hook points.
const (
	// HookAfterCTLoad fires right after the CTLoad of a page span, in
	// both the load and store algorithms (between Fig. 6's left and
	// right halves).
	HookAfterCTLoad HookPoint = iota
	// HookAfterCTStore fires right after the CTStore of a page span.
	HookAfterCTStore
	// HookBeforeFetch fires before the fetchset loop of a page span.
	HookBeforeFetch
)

// Hook receives interference callbacks. page is the span's base
// address. Hooks run outside the victim's cost accounting — they model
// *other* processes sharing the cache.
type Hook func(point HookPoint, page memp.Addr)

// BIA executes the paper's Algorithm 2 (load) and Algorithm 3 (store)
// on a machine equipped with the proposed hardware.
type BIA struct {
	// Threshold, when positive, enables the Sec. 6.5 granularity
	// optimization: if a page span's fetchset exceeds Threshold
	// lines, the span is serviced by direct DRAM accesses instead,
	// avoiding the cache-thrashing worst case when the DS exceeds the
	// cache. Page-granular DS management makes this safe because the
	// memory controller leaks at ≥page granularity.
	Threshold int
	// Hook, when non-nil, receives interference callbacks.
	Hook Hook
}

// Name implements Strategy.
func (s BIA) Name() string {
	if s.Threshold > 0 {
		return "bia-thresh"
	}
	return "bia"
}

// NeedsBIA implements Strategy.
func (BIA) NeedsBIA() bool { return true }

func (s BIA) hook(p HookPoint, page memp.Addr) {
	if s.Hook != nil {
		s.Hook(p, page)
	}
}

// fetchMode is how Alg. 2/3's follow-up accesses hit the memory system:
// no LRU update (secret-relevant), bypassing levels above the BIA, and
// pipelined like any other linearization sweep.
const fetchMode = cpu.ModeNoLRU | cpu.ModeBypassToBIA | cpu.ModeStreaming

// geom resolves the machine's DS-management granularity (the paper's
// M): the chunk-offset mask for addr_to_read generation. M is the
// machine BIA's chunk shift, 12 (page) on the default configuration.
func geom(m *cpu.Machine) (shift int, offMask memp.Addr) {
	shift = m.BIA.ChunkShift()
	return shift, memp.Addr(1)<<uint(shift) - 1
}

// fetch runs Alg. 2/3's fetch loop over the set slots of tofetch in the
// chunk at base, each access at the target's offset within its line and
// preceded by pre streaming ops; read-modify-write pairs when rmw. Past
// Threshold the lines are fetched uncached (Sec. 6.5).
func (s BIA) fetch(m *cpu.Machine, base memp.Addr, tofetch uint64, target memp.Addr, pre int, w cpu.Width, rmw bool) {
	mode := cpu.AccessMode(fetchMode)
	if s.Threshold > 0 && bits.OnesCount64(tofetch) > s.Threshold {
		mode |= cpu.ModeUncached
	}
	m.SweepSlots(base, tofetch, target, pre, w, mode, rmw)
}

// fetched reports whether the fetch loop of the chunk holding addr
// touched addr's line, i.e. its slot is set in tofetch.
func fetched(tofetch uint64, addr, offMask memp.Addr) bool {
	return tofetch>>uint((addr&offMask)>>memp.LineShift)&1 != 0
}

// Load implements Strategy with the paper's Algorithm 2.
func (s BIA) Load(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64 {
	ds.mustContain(addr)
	shift, offMask := geom(m)
	var ret uint64
	for _, span := range ds.SpansAt(shift) {
		// Line 4: addr_to_read = chunk | ld_addr[M-1:0].
		addrToRead := span.Base | (addr & offMask)
		m.Op(opsPageSetup)
		// Line 6: one CTLoad per span.
		data, existence := m.CTLoadW(addrToRead, w)
		s.hook(HookAfterCTLoad, span.Base)
		// Line 7: tofetch = Bitmask & ~existence.
		tofetch := span.Mask &^ existence
		m.NoteDSSpan(bits.OnesCount64(span.Mask)-bits.OnesCount64(tofetch), bits.OnesCount64(span.Mask))
		s.hook(HookBeforeFetch, span.Base)
		// Lines 8-11: fetch the lines the cache does not hold.
		s.fetch(m, span.Base, tofetch, addr, opsFetchIter, w, false)
		// Line 12: keep this span's data iff the target is here — the
		// fetched word when line 11's cmov took it (addr_to_read is
		// addr itself in the target's span), else CTLoad's.
		m.Op(opsSelect)
		if addr&^offMask == span.Base {
			if fetched(tofetch, addr, offMask) {
				data = m.ReadW(addr, w)
			}
			ret = data
		}
	}
	return ret
}

// Store implements Strategy with the paper's Algorithm 3. The CTLoad
// before the CTStore is the paper's corruption guard: CTStore writes
// only lines that are already dirty, and for those the preceding CTLoad
// returned the authentic value, so writing ld_data back is a no-op for
// non-target lines (Fig. 6(a)); for absent or clean lines CTStore does
// nothing and the fetchset read-modify-write completes the store.
func (s BIA) Store(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width) {
	ds.mustContain(addr)
	shift, offMask := geom(m)
	for _, span := range ds.SpansAt(shift) {
		// Line 5: addr_to_write = chunk | st_addr[M-1:0].
		addrToWrite := span.Base | (addr & offMask)
		m.Op(opsPageSetup)
		// Line 7: CTLoad first (the anti-corruption trick).
		ldData, _ := m.CTLoadW(addrToWrite, w)
		s.hook(HookAfterCTLoad, span.Base)
		// Line 8: st_data_tmp = (st_addr in span) ? st_data : ld_data.
		m.Op(opsSelect)
		stTmp := ldData
		if addr&^offMask == span.Base {
			stTmp = v
		}
		// Line 9: CTStore returns the dirtiness bitmap.
		dirtiness := m.CTStoreW(addrToWrite, stTmp, w)
		s.hook(HookAfterCTStore, span.Base)
		// Line 10: tofetch = Bitmask & ~dirtiness.
		tofetch := span.Mask &^ dirtiness
		m.NoteDSSpan(bits.OnesCount64(span.Mask)-bits.OnesCount64(tofetch), bits.OnesCount64(span.Mask))
		s.hook(HookBeforeFetch, span.Base)
		// Lines 12-15: read-modify-write every non-dirty DS line of
		// the page, blending the new value in at the target (line 14's
		// cmov); every other write-back stores the value just read.
		s.fetch(m, span.Base, tofetch, addr, opsFetchStoreIter, w, true)
		if addr&^offMask == span.Base && fetched(tofetch, addr, offMask) {
			m.WriteW(addr, v, w)
		}
	}
}

// LoadBlock implements Strategy with a block-wide Algorithm 2: per page
// span, one CTLoad probe reveals the page's existence bitmap, the
// missing DS lines are fetched, and the block's lines — guaranteed
// present afterwards — are extracted obliviously.
func (s BIA) LoadBlock(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
	checkBlock(m, ds, blockAddr, nLines)
	shift, offMask := geom(m)
	for _, span := range ds.SpansAt(shift) {
		addrToRead := span.Base | (blockAddr & offMask)
		m.Op(opsPageSetup)
		_, existence := m.CTLoadW(addrToRead, cpu.W64)
		s.hook(HookAfterCTLoad, span.Base)
		tofetch := span.Mask &^ existence
		m.NoteDSSpan(bits.OnesCount64(span.Mask)-bits.OnesCount64(tofetch), bits.OnesCount64(span.Mask))
		s.hook(HookBeforeFetch, span.Base)
		s.fetch(m, span.Base, tofetch, blockAddr, opsFetchIter, cpu.W64, false)
		// Oblivious extraction of the block lines overlapping this
		// span (wide blends; no extra memory traffic — the lines were
		// just probed or fetched).
		m.Op(opsBlockVecIter * nLines / len(ds.SpansAt(shift)))
	}
	return readBlock(m, blockAddr, nLines)
}

var _ Strategy = BIA{}
