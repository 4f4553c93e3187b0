// Package ct is the constant-time programming runtime: dataflow
// linearization sets, the software-mitigation strategies (Constantine-
// style full linearization, its vectorized variant, and the paper's
// BIA-assisted Algorithms 2 and 3), and branch-free select helpers for
// control-flow linearization.
//
// Every strategy exposes the same Load/Store contract: perform the
// access at addr, which the caller guarantees lies within the given
// dataflow linearization set, leaving a memory-system footprint that is
// identical for every possible addr within the set.
package ct

import (
	"fmt"
	"math/bits"
	"sort"

	"ctbia/internal/memp"
)

// PageSpan is the per-page slice of a dataflow linearization set: the
// page's base address plus the paper's Bitmask — bit i set iff line i of
// the page belongs to the set.
type PageSpan struct {
	Base memp.Addr // page-aligned
	Mask uint64
}

// Lines returns how many DS lines the span covers.
func (p PageSpan) Lines() int { return bits.OnesCount64(p.Mask) }

// LinSet is a dataflow linearization set: "the set of all possible
// addresses for a memory access", held at cache-line granularity (the
// threat-model stride) and pre-grouped by page as the paper's
// algorithms require.
type LinSet struct {
	name    string
	lines   []memp.Addr // line-aligned, ascending, unique
	runs    []lineRun   // maximal contiguous runs of lines, ascending
	pages   []PageSpan  // ascending by base
	spansAt map[int][]PageSpan
}

// lineRun is a maximal run of consecutive DS lines: the unit one
// linearization sweep charges in a single Machine.SweepLoad/SweepRMW.
type lineRun struct {
	base memp.Addr
	n    int
}

// NewContiguous builds the common case: the DS of an access into a
// dense array [base, base+size). All lines overlapping the byte range
// are included.
func NewContiguous(name string, base memp.Addr, size uint64) *LinSet {
	if size == 0 {
		panic("ct: empty linearization set")
	}
	first := base.Line()
	last := (base + memp.Addr(size-1)).Line()
	var lines []memp.Addr
	for la := first; la <= last; la += memp.LineSize {
		lines = append(lines, la)
	}
	return FromLines(name, lines)
}

// FromLines builds a DS from arbitrary line addresses (duplicates and
// misaligned inputs are normalized). The paper's sets are usually
// contiguous but nothing requires it.
func FromLines(name string, lines []memp.Addr) *LinSet {
	if len(lines) == 0 {
		panic("ct: empty linearization set")
	}
	norm := make([]memp.Addr, 0, len(lines))
	seen := make(map[memp.Addr]bool, len(lines))
	for _, a := range lines {
		la := a.Line()
		if !seen[la] {
			seen[la] = true
			norm = append(norm, la)
		}
	}
	sort.Slice(norm, func(i, j int) bool { return norm[i] < norm[j] })

	var runs []lineRun
	var pages []PageSpan
	for _, la := range norm {
		if k := len(runs) - 1; k >= 0 && runs[k].base+memp.Addr(runs[k].n*memp.LineSize) == la {
			runs[k].n++
		} else {
			runs = append(runs, lineRun{base: la, n: 1})
		}
		pb := la.Page()
		if len(pages) == 0 || pages[len(pages)-1].Base != pb {
			pages = append(pages, PageSpan{Base: pb})
		}
		pages[len(pages)-1].Mask |= uint64(1) << la.LineInPage()
	}
	return &LinSet{name: name, lines: norm, runs: runs, pages: pages}
}

// FromRegion builds the DS covering an allocator region.
func FromRegion(r memp.Region) *LinSet {
	return NewContiguous(r.Name, r.Base, r.Size)
}

// Name labels the set in diagnostics.
func (ds *LinSet) Name() string { return ds.name }

// NumLines returns the DS size in cache lines — the |DS| the paper's
// overhead scales with.
func (ds *LinSet) NumLines() int { return len(ds.lines) }

// NumPages returns the number of page spans (CTLoad/CTStore issues per
// protected access).
func (ds *LinSet) NumPages() int { return len(ds.pages) }

// Pages returns the page spans in ascending order. Callers must not
// mutate the result.
func (ds *LinSet) Pages() []PageSpan { return ds.pages }

// SpansAt regroups the set at a non-default management granularity
// 2^shift (the paper's M, Sec. 6.4: an LLC-resident BIA on a machine
// whose slice hash consumes bit LS_Hash < 12 must manage the DS at
// M = LS_Hash). shift must be in (LineShift, PageShift]. Results are
// memoized; callers must not mutate them.
func (ds *LinSet) SpansAt(shift int) []PageSpan {
	if shift == memp.PageShift {
		return ds.pages
	}
	if shift <= memp.LineShift || shift > memp.PageShift {
		panic(fmt.Sprintf("ct: management granularity 2^%d out of range", shift))
	}
	if ds.spansAt == nil {
		ds.spansAt = make(map[int][]PageSpan)
	}
	if spans, ok := ds.spansAt[shift]; ok {
		return spans
	}
	chunkMask := memp.Addr(1)<<uint(shift) - 1
	lineMask := uint64(1)<<uint(shift-memp.LineShift) - 1
	var spans []PageSpan
	for _, la := range ds.lines {
		base := la &^ chunkMask
		if len(spans) == 0 || spans[len(spans)-1].Base != base {
			spans = append(spans, PageSpan{Base: base})
		}
		slot := (uint64(la) >> memp.LineShift) & lineMask
		spans[len(spans)-1].Mask |= uint64(1) << slot
	}
	ds.spansAt[shift] = spans
	return spans
}

// Lines returns the line addresses in ascending order. Callers must not
// mutate the result.
func (ds *LinSet) Lines() []memp.Addr { return ds.lines }

// ContainsLine reports whether addr's cache line belongs to the set.
func (ds *LinSet) ContainsLine(addr memp.Addr) bool {
	la := addr.Line()
	i := sort.Search(len(ds.lines), func(i int) bool { return ds.lines[i] >= la })
	return i < len(ds.lines) && ds.lines[i] == la
}

// mustContain panics when addr is outside the set. A DS by definition
// covers every possible address of the protected access, so a violation
// is a transformation bug, and the panic condition is independent of
// *which* in-set address was requested — it leaks nothing.
func (ds *LinSet) mustContain(addr memp.Addr) {
	if !ds.ContainsLine(addr) {
		panic(fmt.Sprintf("ct: address %v outside linearization set %q", addr, ds.name))
	}
}

// String summarizes the set.
func (ds *LinSet) String() string {
	return fmt.Sprintf("LinSet(%s: %d lines, %d pages)", ds.name, len(ds.lines), len(ds.pages))
}
