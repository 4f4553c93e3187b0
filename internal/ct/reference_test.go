package ct

import (
	"math/bits"

	"ctbia/internal/cpu"
	"ctbia/internal/memp"
)

// The per-line reference: every linearization sweep and fetch loop as
// it was written before the strategies moved to Machine.SweepLoad and
// SweepRMW — one OpStream and one LoadModeW/StoreModeW per DS line,
// reading and writing back every line's data. Test-only; the
// differential tests and FuzzSweepMatchesPerLine hold the batched
// strategies to bit-identical results against these.

type refDirect struct{ Direct }

func (refDirect) LoadBlock(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
	checkBlock(m, ds, blockAddr, nLines)
	for i := 0; i < nLines*memp.LineSize/4; i++ {
		m.OpStream(opsDirect)
		m.LoadModeW(blockAddr+memp.Addr(4*i), cpu.W32, cpu.ModeStreaming)
	}
	return readBlock(m, blockAddr, nLines)
}

type refLinear struct{ Linear }

func (refLinear) Load(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64 {
	ds.mustContain(addr)
	off := memp.Addr(addr.Offset())
	var ret uint64
	for _, la := range ds.Lines() {
		a := la + off
		m.OpStream(opsLinearIter)
		v := m.LoadModeW(a, w, cpu.ModeNoLRU|cpu.ModeStreaming)
		if a == addr { // constant-time select, cost in opsLinearIter
			ret = v
		}
	}
	return ret
}

func (refLinear) Store(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width) {
	ds.mustContain(addr)
	off := memp.Addr(addr.Offset())
	for _, la := range ds.Lines() {
		a := la + off
		m.OpStream(opsLinearStoreIter)
		old := m.LoadModeW(a, w, cpu.ModeNoLRU|cpu.ModeStreaming)
		nv := old
		if a == addr {
			nv = v
		}
		m.StoreModeW(a, nv, w, cpu.ModeNoLRU|cpu.ModeStreaming)
	}
}

func (refLinear) LoadBlock(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
	checkBlock(m, ds, blockAddr, nLines)
	for _, la := range ds.Lines() {
		m.OpStream(opsBlockIter)
		m.LoadModeW(la, cpu.W64, cpu.ModeNoLRU|cpu.ModeStreaming)
	}
	return readBlock(m, blockAddr, nLines)
}

type refLinearVec struct{ LinearVec }

func (refLinearVec) Load(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64 {
	ds.mustContain(addr)
	off := memp.Addr(addr.Offset())
	var ret uint64
	lines := ds.Lines()
	for i, la := range lines {
		a := la + off
		if i%4 == 0 { // one vector bundle per 4 lines
			m.OpStream(4 * opsVecIterPerLine)
		}
		v := m.LoadModeW(a, w, cpu.ModeNoLRU|cpu.ModeStreaming)
		if a == addr {
			ret = v
		}
	}
	return ret
}

func (refLinearVec) Store(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width) {
	ds.mustContain(addr)
	off := memp.Addr(addr.Offset())
	for i, la := range ds.Lines() {
		a := la + off
		if i%4 == 0 {
			m.OpStream(4*opsVecIterPerLine + 2) // gather + blend + scatter bundle
		}
		old := m.LoadModeW(a, w, cpu.ModeNoLRU|cpu.ModeStreaming)
		nv := old
		if a == addr {
			nv = v
		}
		m.StoreModeW(a, nv, w, cpu.ModeNoLRU|cpu.ModeStreaming)
	}
}

func (refLinearVec) LoadBlock(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
	checkBlock(m, ds, blockAddr, nLines)
	for i, la := range ds.Lines() {
		if i%4 == 0 {
			m.OpStream(4 * opsBlockVecIter)
		}
		m.LoadModeW(la, cpu.W64, cpu.ModeNoLRU|cpu.ModeStreaming)
	}
	return readBlock(m, blockAddr, nLines)
}

type refBIA struct{ BIA }

func (s refBIA) Load(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64 {
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
		uncached := s.Threshold > 0 && bits.OnesCount64(tofetch) > s.Threshold
		// Lines 8-11: fetch the lines the cache does not hold.
		for tf := tofetch; tf != 0; tf &= tf - 1 {
			slot := uint(bits.TrailingZeros64(tf))
			a := memp.GenAddrAt(span.Base, slot, addr)
			m.OpStream(opsFetchIter)
			var tmp uint64
			if uncached {
				tmp = m.LoadModeW(a, w, fetchMode|cpu.ModeUncached)
			} else {
				tmp = m.LoadModeW(a, w, fetchMode)
			}
			if a == addrToRead { // line 11 cmov
				data = tmp
			}
		}
		// Line 12: keep this span's data iff the target is here.
		m.Op(opsSelect)
		if addr&^offMask == span.Base {
			ret = data
		}
	}
	return ret
}

func (s refBIA) Store(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width) {
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
		uncached := s.Threshold > 0 && bits.OnesCount64(tofetch) > s.Threshold
		// Lines 12-15: read-modify-write every non-dirty DS line of
		// the page, blending the new value in at the target.
		for tf := tofetch; tf != 0; tf &= tf - 1 {
			slot := uint(bits.TrailingZeros64(tf))
			a := memp.GenAddrAt(span.Base, slot, addr)
			m.OpStream(opsFetchStoreIter)
			mode := cpu.AccessMode(fetchMode)
			if uncached {
				mode |= cpu.ModeUncached
			}
			tmp := m.LoadModeW(a, w, mode)
			if a == addr { // line 14 cmov
				tmp = v
			}
			m.StoreModeW(a, tmp, w, mode)
		}
	}
}

func (s refBIA) LoadBlock(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
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
		uncached := s.Threshold > 0 && bits.OnesCount64(tofetch) > s.Threshold
		for tf := tofetch; tf != 0; tf &= tf - 1 {
			slot := uint(bits.TrailingZeros64(tf))
			a := memp.GenAddrAt(span.Base, slot, blockAddr)
			m.OpStream(opsFetchIter)
			if uncached {
				m.LoadModeW(a, cpu.W64, fetchMode|cpu.ModeUncached)
			} else {
				m.LoadModeW(a, cpu.W64, fetchMode)
			}
		}
		// Oblivious extraction of the block lines overlapping this
		// span (wide blends; no extra memory traffic — the lines were
		// just probed or fetched).
		m.Op(opsBlockVecIter * nLines / len(ds.SpansAt(shift)))
	}
	return readBlock(m, blockAddr, nLines)
}

type refPreload struct{ Preload }

func (s refPreload) preload(m *cpu.Machine, ds *LinSet) {
	for _, la := range ds.Lines() {
		m.OpStream(2)
		m.LoadModeW(la, cpu.W64, cpu.ModeStreaming)
	}
	if s.Hook != nil {
		s.Hook(HookBeforeFetch, 0)
	}
}

func (s refPreload) Load(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64 {
	ds.mustContain(addr)
	s.preload(m, ds)
	m.Op(opsDirect)
	return m.LoadW(addr, w)
}

func (s refPreload) Store(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width) {
	ds.mustContain(addr)
	s.preload(m, ds)
	m.Op(opsDirect)
	m.StoreW(addr, v, w)
}

func (s refPreload) LoadBlock(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
	checkBlock(m, ds, blockAddr, nLines)
	s.preload(m, ds)
	for i := 0; i < nLines*memp.LineSize/4; i++ {
		m.OpStream(opsDirect)
		m.LoadModeW(blockAddr+memp.Addr(4*i), cpu.W32, cpu.ModeStreaming)
	}
	return readBlock(m, blockAddr, nLines)
}

// refBIAMacro drives refMacroCTLoad/refMacroCTStore, the per-line
// macro-ops. The machine's micro-coded headers are rebuilt from the
// public CT micro-ops: a MacroCTLoad header charges exactly a CTLoad,
// and a MacroCTStore header is a CTLoad probe plus a CTStore retiring
// as one macro-op, so the reference takes back the second retirement
// and the CTLoad count.
type refBIAMacro struct{ BIAMacro }

const macroFetchMode = cpu.ModeNoLRU | cpu.ModeBypassToBIA | cpu.ModeStreaming

func refMacroCTLoad(m *cpu.Machine, pageBase, addr memp.Addr, bitmask uint64, w cpu.Width) (data uint64, inPage bool) {
	addrToRead := pageBase.Page() | memp.Addr(addr.PageOffset())
	data, existence := m.CTLoadW(addrToRead, w)
	tofetch := bitmask &^ existence
	m.NoteDSSpan(bits.OnesCount64(bitmask)-bits.OnesCount64(tofetch), bits.OnesCount64(bitmask))
	for tf := tofetch; tf != 0; tf &= tf - 1 {
		slot := uint(bits.TrailingZeros64(tf))
		a := memp.GenAddr(pageBase, slot, addr)
		tmp := m.LoadModeW(a, w, macroFetchMode)
		if a == addrToRead {
			data = tmp
		}
	}
	return data, memp.SamePage(addr, pageBase)
}

func refMacroCTStore(m *cpu.Machine, pageBase, addr memp.Addr, bitmask uint64, v uint64, w cpu.Width) {
	addrToWrite := pageBase.Page() | memp.Addr(addr.PageOffset())
	ldData, _ := m.CTLoadW(addrToWrite, w)
	m.C.Insts--
	m.C.L1IRefs--
	m.C.CTLoads--
	stTmp := ldData
	if memp.SamePage(addr, pageBase) {
		stTmp = v
	}
	dirtiness := m.CTStoreW(addrToWrite, stTmp, w)
	tofetch := bitmask &^ dirtiness
	m.NoteDSSpan(bits.OnesCount64(bitmask)-bits.OnesCount64(tofetch), bits.OnesCount64(bitmask))
	for tf := tofetch; tf != 0; tf &= tf - 1 {
		slot := uint(bits.TrailingZeros64(tf))
		a := memp.GenAddr(pageBase, slot, addr)
		tmp := m.LoadModeW(a, w, macroFetchMode)
		if a == addr {
			tmp = v
		}
		m.StoreModeW(a, tmp, w, macroFetchMode)
	}
}

func (refBIAMacro) Load(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64 {
	ds.mustContain(addr)
	var ret uint64
	for _, span := range ds.Pages() {
		m.Op(opsSelect) // per-span macro-op dispatch + result select
		data, inPage := refMacroCTLoad(m, span.Base, addr, span.Mask, w)
		if inPage {
			ret = data
		}
	}
	return ret
}

func (refBIAMacro) Store(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width) {
	ds.mustContain(addr)
	for _, span := range ds.Pages() {
		m.Op(opsSelect)
		refMacroCTStore(m, span.Base, addr, span.Mask, v, w)
	}
}

func (refBIAMacro) LoadBlock(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
	checkBlock(m, ds, blockAddr, nLines)
	for _, span := range ds.Pages() {
		m.Op(opsSelect)
		refMacroCTLoad(m, span.Base, blockAddr, span.Mask, cpu.W64)
	}
	return readBlock(m, blockAddr, nLines)
}
