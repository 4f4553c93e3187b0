package cpu

import (
	"fmt"

	"ctbia/internal/memp"
)

// Scratchpad models a software-managed on-chip SRAM in the style of
// GhostRider (paper Sec. 8): data explicitly copied in, fixed access
// latency, no tags, no evictions — and therefore no attacker-visible
// cache events at all. Its security is bought with dedicated area: to
// protect a dataflow linearization set the WHOLE set must fit, which is
// the paper's argument against scratchpads for large DSes ("it usually
// takes a large memory space to put a whole dataflow linearization set
// in").
type Scratchpad struct {
	latency  int
	capacity int // bytes
	used     int
	loaded   map[memp.Addr]bool // line-granular residency
}

// NewScratchpad attaches a scratchpad of the given capacity to the
// machine. Latency is per access in cycles.
func (m *Machine) NewScratchpad(capacity, latency int) *Scratchpad {
	if capacity <= 0 || latency <= 0 {
		panic("cpu: scratchpad needs positive capacity and latency")
	}
	return &Scratchpad{latency: latency, capacity: capacity, loaded: make(map[memp.Addr]bool)}
}

// Capacity returns the scratchpad size in bytes.
func (sp *Scratchpad) Capacity() int { return sp.capacity }

// Used returns the bytes currently occupied.
func (sp *Scratchpad) Used() int { return sp.used }

// Holds reports whether addr's line is resident.
func (sp *Scratchpad) Holds(addr memp.Addr) bool { return sp.loaded[addr.Line()] }

// CopyIn stages [base, base+size) into the scratchpad: one DRAM read
// plus one scratchpad write per line, charged to the machine. The copy
// pattern is the full region, independent of any secret. Exceeding the
// capacity panics — a scratchpad cannot spill, which is exactly its
// limitation versus the BIA.
func (m *Machine) CopyIn(sp *Scratchpad, base memp.Addr, size uint64) {
	if size == 0 {
		return
	}
	last := (base + memp.Addr(size-1)).Line()
	for la := base.Line(); la <= last; la += memp.LineSize {
		if sp.loaded[la] {
			continue
		}
		if sp.used+memp.LineSize > sp.capacity {
			panic(fmt.Sprintf("cpu: scratchpad overflow: %d B capacity cannot hold region of %d B",
				sp.capacity, size))
		}
		sp.loaded[la] = true
		sp.used += memp.LineSize
		// DRAM fetch (uncached: the scratchpad path does not touch
		// the cache hierarchy) + scratchpad write.
		m.retire(2)
		m.C.Loads++
		m.Hier.Stats.DRAMReads++
		m.C.Cycles += uint64(m.Hier.DRAMLatency() + sp.latency)
	}
}

// ScratchLoad reads width w at addr from the scratchpad. The access is
// invisible to the cache hierarchy (no events, no state), so it cannot
// leak to a cache-observing attacker.
func (m *Machine) ScratchLoad(sp *Scratchpad, addr memp.Addr, w Width) uint64 {
	w.check()
	if !sp.Holds(addr) {
		panic(fmt.Sprintf("cpu: scratchpad access to non-resident line %v", addr.Line()))
	}
	m.retire(1)
	m.C.Loads++
	m.C.Cycles += uint64(sp.latency)
	return m.ReadW(addr, w)
}

// ScratchStore writes width w at addr in the scratchpad.
func (m *Machine) ScratchStore(sp *Scratchpad, addr memp.Addr, v uint64, w Width) {
	w.check()
	if !sp.Holds(addr) {
		panic(fmt.Sprintf("cpu: scratchpad access to non-resident line %v", addr.Line()))
	}
	m.retire(1)
	m.C.Stores++
	m.C.Cycles += uint64(sp.latency)
	m.WriteW(addr, v, w)
}
