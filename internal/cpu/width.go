package cpu

import (
	"fmt"

	"ctbia/internal/cache"
	"ctbia/internal/memp"
)

// writeFlag aliases the cache store flag for brevity in this file.
const writeFlag = cache.FlagWrite

// Width is an access width in bytes (1, 2, 4 or 8). The timing model
// charges all widths identically (one cache access); width only matters
// for data movement.
type Width int

// Supported access widths.
const (
	W8  Width = 1
	W16 Width = 2
	W32 Width = 4
	W64 Width = 8
)

func (w Width) check() {
	switch w {
	case W8, W16, W32, W64:
	default:
		panic(fmt.Sprintf("cpu: invalid access width %d", int(w)))
	}
}

// ReadW returns the w-wide word at addr without charging or recording
// anything: pure data movement, for callers that charged the access
// separately (a sweep's cmov-selected target word, see SweepLoad).
func (m *Machine) ReadW(addr memp.Addr, w Width) uint64 {
	switch w {
	case W8:
		return uint64(m.Mem.Read8(addr))
	case W16:
		return uint64(m.Mem.Read16(addr))
	case W32:
		return uint64(m.Mem.Read32(addr))
	default:
		return m.Mem.Read64(addr)
	}
}

// WriteW stores the w-wide word v at addr without charging or
// recording anything (the blended target write of SweepRMW).
func (m *Machine) WriteW(addr memp.Addr, v uint64, w Width) {
	switch w {
	case W8:
		m.Mem.Write8(addr, byte(v))
	case W16:
		m.Mem.Write16(addr, uint16(v))
	case W32:
		m.Mem.Write32(addr, uint32(v))
	default:
		m.Mem.Write64(addr, v)
	}
}

// LoadW performs a normal load of the given width.
func (m *Machine) LoadW(addr memp.Addr, w Width) uint64 {
	w.check()
	m.access(addr, 0)
	return m.ReadW(addr, w)
}

// StoreW performs a normal store of the given width.
func (m *Machine) StoreW(addr memp.Addr, v uint64, w Width) {
	w.check()
	m.access(addr, m.modeFlags(0)|writeFlag)
	m.WriteW(addr, v, w)
}

// LoadModeW is LoadW with access-mode control (the protected runtime's
// follow-up DS accesses use NoLRU and, for lower-level BIAs, bypass).
func (m *Machine) LoadModeW(addr memp.Addr, w Width, mode AccessMode) uint64 {
	w.check()
	m.access(addr, m.modeFlags(mode))
	return m.ReadW(addr, w)
}

// StoreModeW is StoreW with access-mode control.
func (m *Machine) StoreModeW(addr memp.Addr, v uint64, w Width, mode AccessMode) {
	w.check()
	m.access(addr, m.modeFlags(mode)|writeFlag)
	m.WriteW(addr, v, w)
}

// CTLoadW is CTLoad64 at the given data width.
func (m *Machine) CTLoadW(addr memp.Addr, w Width) (data uint64, existence uint64) {
	w.check()
	if m.BIA == nil {
		panic("cpu: CTLoad on a machine without BIA")
	}
	m.retire(1)
	m.C.CTLoads++
	existence, _ = m.BIA.LookupOrInstall(addr)
	hit, cyc := m.Hier.CTProbeLoad(m.cfg.BIALevel, addr)
	m.noteProbe(hit)
	if m.BIA.Latency() > cyc {
		cyc = m.BIA.Latency()
	}
	m.C.Cycles += uint64(cyc)
	if hit {
		data = m.ReadW(addr, w)
	}
	return data, existence
}

// CTStoreW is CTStore64 at the given data width.
func (m *Machine) CTStoreW(addr memp.Addr, v uint64, w Width) (dirtiness uint64) {
	w.check()
	if m.BIA == nil {
		panic("cpu: CTStore on a machine without BIA")
	}
	m.retire(1)
	m.C.CTStores++
	_, dirtiness = m.BIA.LookupOrInstall(addr)
	wrote, cyc := m.Hier.CTProbeStore(m.cfg.BIALevel, addr)
	m.noteProbe(wrote)
	if m.BIA.Latency() > cyc {
		cyc = m.BIA.Latency()
	}
	m.C.Cycles += uint64(cyc)
	if wrote {
		m.WriteW(addr, v, w)
	}
	return dirtiness
}
