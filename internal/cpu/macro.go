package cpu

import (
	"math/bits"

	"ctbia/internal/memp"
)

// This file implements the paper's Sec. 6.2 proposal, left as future
// work there: packing the whole of Algorithms 2 and 3 into X86-64
// macro-operations so that "the sensitive bitmap reading instructions
// CTLoad/CTStore cannot be called directly, and the loaded
// existence/dirtiness information remains invisible to users".
//
// MacroCTLoad and MacroCTStore execute one page span of the respective
// algorithm entirely inside the "hardware": the existence/dirtiness
// bitmaps never reach an architectural register — the methods do not
// return them, and the sequencing (probe, mask, fetch loop, blends) is
// performed by the machine. Cost model: identical memory traffic to the
// software algorithms, but the per-iteration software overhead (bit
// scanning, address generation, cmovs) retires as micro-code — charged
// at streaming width without instruction-fetch cost, which is the
// architectural point of macro-fusion.

// macroFetchMode is the micro-coded fetch loops' access mode, that of
// Alg. 2/3's follow-up DS accesses.
const macroFetchMode = ModeNoLRU | ModeBypassToBIA | ModeStreaming

// MacroCTLoad performs Algorithm 2 for one page span: addr is the
// (secret) target address, pageBase the span's page, bitmask the DS
// Bitmask of the page. It returns the loaded value at addr's offset if
// addr lies in this page (data is only meaningful then; the inPage
// result says so). Misses in the DS are fetched exactly like the
// software algorithm — same footprint, same security argument.
func (m *Machine) MacroCTLoad(pageBase, addr memp.Addr, bitmask uint64, w Width) (data uint64, inPage bool) {
	w.check()
	if m.BIA == nil {
		panic("cpu: MacroCTLoad on a machine without BIA")
	}
	if m.BIA.ChunkShift() != memp.PageShift {
		panic("cpu: macro ops are defined at page granularity (M=12)")
	}
	addrToRead := pageBase.Page() | memp.Addr(addr.PageOffset())
	m.retire(1) // the macro-op itself
	m.C.CTLoads++
	existence, _ := m.BIA.LookupOrInstall(addrToRead)
	hit, cyc := m.Hier.CTProbeLoad(m.cfg.BIALevel, addrToRead)
	m.noteProbe(hit)
	if m.BIA.Latency() > cyc {
		cyc = m.BIA.Latency()
	}
	m.C.Cycles += uint64(cyc)
	if hit {
		data = m.ReadW(addrToRead, w)
	}
	tofetch := bitmask &^ existence
	m.NoteDSSpan(bits.OnesCount64(bitmask)-bits.OnesCount64(tofetch), bits.OnesCount64(bitmask))
	// Micro-coded fetch loop: memory traffic identical to Alg. 2
	// lines 8-11; sequencing cost folded into the streaming model. The
	// fetched word at addr_to_read supersedes the probe's.
	m.SweepSlots(pageBase.Page(), tofetch, addr, 0, w, macroFetchMode, false)
	if tofetch>>addrToRead.LineInPage()&1 != 0 {
		data = m.ReadW(addrToRead, w)
	}
	return data, memp.SamePage(addr, pageBase)
}

// MacroCTStore performs Algorithm 3 for one page span: the CTLoad-
// before-CTStore corruption guard, the conditional CTStore, and the
// read-modify-write of the non-dirty DS lines, all as one operation.
func (m *Machine) MacroCTStore(pageBase, addr memp.Addr, bitmask uint64, v uint64, w Width) {
	w.check()
	if m.BIA == nil {
		panic("cpu: MacroCTStore on a machine without BIA")
	}
	addrToWrite := pageBase.Page() | memp.Addr(addr.PageOffset())
	m.retire(1)
	m.C.CTStores++

	// Internal CTLoad (Alg. 3 line 7).
	_, _ = m.BIA.LookupOrInstall(addrToWrite)
	hitLd, cycLd := m.Hier.CTProbeLoad(m.cfg.BIALevel, addrToWrite)
	m.noteProbe(hitLd)
	if m.BIA.Latency() > cycLd {
		cycLd = m.BIA.Latency()
	}
	m.C.Cycles += uint64(cycLd)
	var ldData uint64
	if hitLd {
		ldData = m.ReadW(addrToWrite, w)
	}
	stTmp := ldData
	if memp.SamePage(addr, pageBase) {
		stTmp = v
	}

	// Internal CTStore (Alg. 3 line 9).
	_, dirtiness := m.BIA.LookupOrInstall(addrToWrite)
	wrote, cycSt := m.Hier.CTProbeStore(m.cfg.BIALevel, addrToWrite)
	m.noteProbe(wrote)
	if m.BIA.Latency() > cycSt {
		cycSt = m.BIA.Latency()
	}
	m.C.Cycles += uint64(cycSt)
	if wrote {
		m.WriteW(addrToWrite, stTmp, w)
	}

	// Micro-coded RMW loop (Alg. 3 lines 12-15).
	tofetch := bitmask &^ dirtiness
	m.NoteDSSpan(bits.OnesCount64(bitmask)-bits.OnesCount64(tofetch), bits.OnesCount64(bitmask))
	// Only the target's word changes; the other write-backs store the
	// value just read.
	m.SweepSlots(pageBase.Page(), tofetch, addr, 0, w, macroFetchMode, true)
	if memp.SamePage(addr, pageBase) && tofetch>>addr.LineInPage()&1 != 0 {
		m.WriteW(addr, v, w)
	}
}
