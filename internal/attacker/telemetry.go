// Package attacker models the adversary of the paper's threat model
// (Sec. 2.4): an access-driven attacker sharing the cache with the
// victim, observing cache-set state via Prime+Probe, plus the
// whole-cache telemetry used for the paper's security test (Fig. 10:
// per-cache-set access counts across secrets).
package attacker

import (
	"encoding/binary"

	"ctbia/internal/cache"
)

// SetCounter tallies attacker-visible accesses per cache set at one
// level — the instrumentation behind the paper's Fig. 10 ("we modified
// Gem5 to output the number of accesses to each cache set"). CT probe
// events are excluded: they change no architectural cache state, so no
// cache-observing attacker can count them.
type SetCounter struct {
	level  int
	counts []uint64
}

// NewSetCounter subscribes a counter for the given level.
func NewSetCounter(h *cache.Hierarchy, level int) *SetCounter {
	sc := &SetCounter{level: level, counts: make([]uint64, h.Level(level).Sets())}
	h.Subscribe(sc)
	return sc
}

// CacheEvent implements cache.Listener.
func (sc *SetCounter) CacheEvent(ev cache.Event) {
	if ev.Probe || ev.Level != sc.level || ev.Kind != cache.EvAccess {
		return
	}
	sc.counts[ev.Set]++
}

// WantsEvent implements cache.KindFilter: only per-set access counts
// matter, so the hierarchy need not construct hit/fill/evict/dirty
// events on this counter's behalf.
func (sc *SetCounter) WantsEvent(k cache.EventKind) bool { return k == cache.EvAccess }

// WantsLevel implements cache.LevelFilter: the counter watches exactly
// one cache level.
func (sc *SetCounter) WantsLevel(level int) bool { return level == sc.level }

// Counts returns the per-set access counts. The caller must not mutate
// the result without copying.
func (sc *SetCounter) Counts() []uint64 { return sc.counts }

// Range returns counts[from:to] copied, for Fig. 10's sets 320-325 view.
func (sc *SetCounter) Range(from, to int) []uint64 {
	out := make([]uint64, to-from)
	copy(out, sc.counts[from:to])
	return out
}

// Reset zeroes all counters.
func (sc *SetCounter) Reset() {
	for i := range sc.counts {
		sc.counts[i] = 0
	}
}

// Equal reports whether two count vectors are identical — the paper's
// pass criterion ("the number of accesses is identical across all 10
// samples tested").
func Equal(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Trace records the complete attacker-visible event stream, the
// strongest observational model: full sequences, not just counts.
// Events are only ever compared, never read back, so each one is
// appended as a fixed-width binary record (see traceRecord) rather
// than formatted.
type Trace struct {
	levelMask uint64 // bit i: record level i
	b         []byte
}

// traceRecord is the byte width of one recorded event: level, kind,
// a write/dirty flag byte, then the line address as a little-endian
// uint64. Records are fixed-width, so two buffers are equal exactly
// when their event sequences are.
const traceRecord = 3 + 8

// Flag bits of a record's third byte.
const (
	traceWrite = 1 << iota
	traceDirty
)

// NewTrace subscribes a recorder for the given levels (empty = all).
func NewTrace(h *cache.Hierarchy, levels ...int) *Trace {
	tr := &Trace{}
	if len(levels) == 0 {
		for i := 1; i <= h.Levels(); i++ {
			tr.levelMask |= 1 << uint(i)
		}
	}
	for _, l := range levels {
		tr.levelMask |= 1 << uint(l)
	}
	h.Subscribe(tr)
	return tr
}

// CacheEvent implements cache.Listener. A recorded level is below 64
// (the mask's width) and kinds are the five cache.EventKind values, so
// each fits its byte.
func (tr *Trace) CacheEvent(ev cache.Event) {
	if ev.Probe || tr.levelMask&(1<<uint(ev.Level)) == 0 {
		return
	}
	var f byte
	if ev.Write {
		f |= traceWrite
	}
	if ev.Dirty {
		f |= traceDirty
	}
	tr.b = append(tr.b, byte(ev.Level), byte(ev.Kind), f)
	tr.b = binary.LittleEndian.AppendUint64(tr.b, uint64(ev.Line))
}

// WantsLevel implements cache.LevelFilter, so a trace pinned to one
// level does not force event construction at the others.
func (tr *Trace) WantsLevel(level int) bool { return tr.levelMask&(1<<uint(level)) != 0 }

// Len returns the number of recorded events.
func (tr *Trace) Len() int { return len(tr.b) / traceRecord }

// Key returns an opaque comparison key for the recorded trace: two
// keys are equal exactly when the recorded event sequences are. It is
// binary, not readable text.
func (tr *Trace) Key() string { return string(tr.b) }
