package attacker

import (
	"fmt"
	"strings"
	"testing"

	"ctbia/internal/cache"
	"ctbia/internal/memp"
)

// traceEventBytes is the input width of one fuzzed event: level, kind,
// a flag byte (write, dirty, probe, and five high line-address bits),
// then two low line-index bytes.
const traceEventBytes = 5

// fuzzEvents decodes data into cache events. Levels run 0..5, so some
// fall outside any mask over a 3-level hierarchy; kinds cover every
// cache.EventKind; line addresses are line-aligned with both their low
// and their top bits driven by the input.
func fuzzEvents(data []byte) []cache.Event {
	var evs []cache.Event
	for ; len(data) >= traceEventBytes; data = data[traceEventBytes:] {
		f := data[2]
		line := uint64(data[3]) | uint64(data[4])<<8 | uint64(f>>3)<<(64-5-memp.LineShift)
		evs = append(evs, cache.Event{
			Level: int(data[0] % 6),
			Kind:  cache.EventKind(data[1] % 5),
			Line:  memp.Addr(line << memp.LineShift),
			Set:   int(data[3]),
			Write: f&1 != 0,
			Dirty: f&2 != 0,
			Probe: f&4 != 0,
		})
	}
	return evs
}

// observed is what an attacker watching levels sees of evs: probes and
// unwatched levels drop out, and the set index (a function of the line)
// is not part of an event's identity.
func observed(evs []cache.Event, levels map[int]bool) []cache.Event {
	var out []cache.Event
	for _, ev := range evs {
		if ev.Probe || !levels[ev.Level] {
			continue
		}
		ev.Set = 0
		out = append(out, ev)
	}
	return out
}

func sameEvents(a, b []cache.Event) bool {
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

// textKey is the formatted trace key the recorder produced before keys
// became binary; equality of binary keys must track it exactly, so
// every trace-equality verdict is unchanged.
func textKey(evs []cache.Event) string {
	var b strings.Builder
	for _, ev := range evs {
		fmt.Fprintf(&b, "%d%v%x%v%v;", ev.Level, ev.Kind, uint64(ev.Line), ev.Write, ev.Dirty)
	}
	return b.String()
}

func traceHierarchy() *cache.Hierarchy {
	return cache.NewHierarchy(100,
		cache.Config{Name: "L1d", Size: 512, Ways: 2, Latency: 2},
		cache.Config{Name: "L2", Size: 2048, Ways: 4, Latency: 15},
		cache.Config{Name: "LLC", Size: 8192, Ways: 4, Latency: 40},
	)
}

// FuzzTraceKey holds the trace key to injectivity: two traces' keys are
// equal exactly when the attacker-observed event sequences are, and Len
// counts the observed events. The second input also drives a trace fed
// the first sequence with unobservable events (probes, unwatched
// levels) spliced in, whose key must not move. The seed corpus in
// testdata/fuzz/FuzzTraceKey differs from a base sequence in one field
// at a time.
func FuzzTraceKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, x, y []byte) {
		levels := map[int]bool{1: true, 3: true}
		h := traceHierarchy()
		ex, ey := fuzzEvents(x), fuzzEvents(y)
		tx, ty, tn := NewTrace(h, 1, 3), NewTrace(h, 1, 3), NewTrace(h, 1, 3)
		for _, ev := range ex {
			tx.CacheEvent(ev)
		}
		for _, ev := range ey {
			ty.CacheEvent(ev)
		}
		// tn: x's events with y's unobservable ones interleaved.
		for i := 0; i < len(ex) || i < len(ey); i++ {
			if i < len(ey) && (ey[i].Probe || !levels[ey[i].Level]) {
				tn.CacheEvent(ey[i])
			}
			if i < len(ex) {
				tn.CacheEvent(ex[i])
			}
		}
		ox, oy := observed(ex, levels), observed(ey, levels)
		if tx.Len() != len(ox) || ty.Len() != len(oy) {
			t.Fatalf("Len = %d/%d, observed events %d/%d", tx.Len(), ty.Len(), len(ox), len(oy))
		}
		same := sameEvents(ox, oy)
		if got := tx.Key() == ty.Key(); got != same {
			t.Fatalf("keys equal = %v, observed sequences equal = %v\nx: %v\ny: %v", got, same, ox, oy)
		}
		if text := textKey(ox) == textKey(oy); text != same {
			t.Fatalf("text keys equal = %v, observed sequences equal = %v", text, same)
		}
		if tn.Key() != tx.Key() || tn.Len() != tx.Len() {
			t.Fatalf("unobservable events changed the trace: %d events vs %d", tn.Len(), tx.Len())
		}
	})
}

// warmTraceAllocs returns the allocations of recording 256 events into
// a trace whose buffer has already grown to hold them.
func warmTraceAllocs() float64 {
	const runs, events = 50, 256
	tr := NewTrace(traceHierarchy())
	tr.b = make([]byte, 0, (runs+1)*events*traceRecord) // AllocsPerRun adds a warm-up run
	evs := fuzzEvents([]byte{1, 0, 1, 7, 0, 2, 2, 2, 9, 1, 3, 3, 0x80, 3, 4})
	return testing.AllocsPerRun(runs, func() {
		for i := 0; i < events; i++ {
			tr.CacheEvent(evs[i%len(evs)])
		}
	})
}

// Recording an event appends one fixed-width record to a buffer that
// has already grown: no allocation per event.
func TestTraceCacheEventZeroAllocs(t *testing.T) {
	if allocs := warmTraceAllocs(); allocs != 0 {
		t.Errorf("Trace.CacheEvent: %.1f allocs per 256 events, want 0", allocs)
	}
}

// BenchmarkTraceCacheEvent measures one recorded event into a trace
// sized for 4096 events (one buffer per 4096, so allocs/op reads 0) and
// fails if recording into a grown buffer allocates.
func BenchmarkTraceCacheEvent(b *testing.B) {
	const events = 4096
	tr := NewTrace(traceHierarchy())
	ev := cache.Event{Level: 2, Kind: cache.EvFill, Line: 0x12340, Set: 13, Dirty: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%events == 0 {
			tr.b = make([]byte, 0, events*traceRecord)
		}
		tr.CacheEvent(ev)
	}
	b.StopTimer()
	if allocs := warmTraceAllocs(); allocs != 0 {
		b.Fatalf("Trace.CacheEvent: %.1f allocs per 256 events, want 0", allocs)
	}
}
