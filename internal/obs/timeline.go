package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// The timeline tracer records harness phases (experiment → strategy →
// simulation point, and cache lookups) as complete ("X") events in
// Chrome trace-event format, so `ctbench -timeline out.json` produces
// a file Perfetto or chrome://tracing opens directly.
//
// Go exposes no cheap goroutine identity, so spans are laid out on
// lanes instead: a span takes the lowest free lane number as its
// Chrome "tid" for its lifetime and returns it when it ends.
// Concurrent spans therefore stack on separate rows while a serial run
// collapses onto lane 0 — exactly the visual a trace viewer needs.

// timelineOn gates span collection independently of the metric
// registry (metrics without a -timeline file shouldn't buffer events).
var timelineOn atomic.Bool

// EnableTimeline starts collecting spans.
func EnableTimeline() { timelineOn.Store(true) }

// DisableTimeline stops collecting spans (buffered events remain until
// ResetTimeline).
func DisableTimeline() { timelineOn.Store(false) }

// TimelineEnabled reports whether spans are being collected.
func TimelineEnabled() bool { return timelineOn.Load() }

// Span is one open timeline interval. The zero value (returned by
// StartSpan when the timeline is disabled) is inert: End on it does
// nothing, so call sites need no conditionals and the disabled path
// allocates nothing.
type Span struct {
	start int64 // ns; 0 marks the inert zero value
	lane  int32
	cat   string
	name  string
}

// event is one completed span, buffered until WriteTimeline.
type event struct {
	name string
	cat  string
	ts   int64 // ns since process start of the event
	dur  int64 // ns
	lane int32
}

// maxTimelineEvents bounds the buffer (~12 MB of events); a run long
// enough to exceed it keeps its first events, which is where the
// interesting cold-path structure lives anyway.
const maxTimelineEvents = 1 << 18

var timeline = struct {
	mu      sync.Mutex
	events  []event
	free    []int32 // returned lanes, reused lowest-first
	nextLan int32
	dropped uint64
}{}

// acquireLane returns the lowest free lane number.
func acquireLane() int32 {
	timeline.mu.Lock()
	defer timeline.mu.Unlock()
	if n := len(timeline.free); n > 0 {
		// free is kept sorted descending, so the lowest lane is last.
		l := timeline.free[n-1]
		timeline.free = timeline.free[:n-1]
		return l
	}
	timeline.nextLan++
	return timeline.nextLan - 1
}

func releaseLane(l int32) {
	timeline.free = append(timeline.free, l)
	// Insertion-sort descending; lane counts are tiny (≈ worker count).
	for i := len(timeline.free) - 1; i > 0 && timeline.free[i] > timeline.free[i-1]; i-- {
		timeline.free[i], timeline.free[i-1] = timeline.free[i-1], timeline.free[i]
	}
}

// StartSpan opens a timeline interval under the given category and
// name. Disabled, it returns the inert zero Span after one atomic load.
func StartSpan(cat, name string) Span {
	if !timelineOn.Load() {
		return Span{}
	}
	return Span{start: time.Now().UnixNano(), lane: acquireLane(), cat: cat, name: name}
}

// End closes the span and buffers its event. Safe on the zero Span.
func (s Span) End() {
	if s.start == 0 {
		return
	}
	now := time.Now().UnixNano()
	timeline.mu.Lock()
	if len(timeline.events) < maxTimelineEvents {
		timeline.events = append(timeline.events, event{
			name: s.name, cat: s.cat, ts: s.start, dur: now - s.start, lane: s.lane,
		})
	} else {
		timeline.dropped++
	}
	releaseLane(s.lane)
	timeline.mu.Unlock()
}

// TimelineEventCount returns the number of buffered completed spans
// (local and imported).
func TimelineEventCount() int {
	timeline.mu.Lock()
	n := len(timeline.events)
	timeline.mu.Unlock()
	imported.mu.Lock()
	n += imported.total
	imported.mu.Unlock()
	return n
}

// ResetTimeline drops all buffered events and lane state, local and
// imported.
func ResetTimeline() {
	timeline.mu.Lock()
	timeline.events = nil
	timeline.free = nil
	timeline.nextLan = 0
	timeline.dropped = 0
	timeline.mu.Unlock()
	imported.mu.Lock()
	imported.sources = nil
	imported.events = make(map[string][]event)
	imported.total = 0
	imported.mu.Unlock()
}

// WireEvent is one completed span in wire form: the shape a fleet
// worker ships its buffered timeline in when uploading a result. Field
// names are shortened — a quick sweep buffers thousands of spans per
// unit and the whole batch rides in one JSON body.
type WireEvent struct {
	Name string `json:"n"`
	Cat  string `json:"c,omitempty"`
	TS   int64  `json:"t"` // ns, in the emitting process's clock
	Dur  int64  `json:"d"` // ns
	Lane int32  `json:"l"`
}

// TakeWireEvents drains the local span buffer into wire form (nil when
// empty). A fleet worker calls it at result upload: spans accumulate
// per unit, ship once, and the buffer restarts empty for the next
// lease. Imported events are untouched — they belong to the merging
// side.
func TakeWireEvents() []WireEvent {
	timeline.mu.Lock()
	defer timeline.mu.Unlock()
	if len(timeline.events) == 0 {
		return nil
	}
	out := make([]WireEvent, len(timeline.events))
	for i, e := range timeline.events {
		out[i] = WireEvent{Name: e.name, Cat: e.cat, TS: e.ts, Dur: e.dur, Lane: e.lane}
	}
	timeline.events = timeline.events[:0]
	return out
}

// imported holds spans merged from other processes, keyed by source
// (fleet worker id). WriteTimeline renders each source as its own
// Chrome process row, so a merged timeline shows one lane group per
// worker next to the coordinator's own.
var imported = struct {
	mu      sync.Mutex
	sources []string // insertion order — stable pids across a run
	events  map[string][]event
	total   int
}{events: make(map[string][]event)}

// ImportWireEvents merges spans shipped by a named source into the
// timeline. offsetNS is added to every timestamp — the merging side's
// estimate of (local clock − source clock), typically derived from
// heartbeat RTT midpoints — so the rendered file lines the fleet up on
// one clock. Bounded by the same cap as local collection.
func ImportWireEvents(source string, offsetNS int64, evs []WireEvent) {
	if len(evs) == 0 {
		return
	}
	imported.mu.Lock()
	defer imported.mu.Unlock()
	if _, ok := imported.events[source]; !ok {
		imported.sources = append(imported.sources, source)
	}
	buf := imported.events[source]
	for _, e := range evs {
		if imported.total >= maxTimelineEvents {
			break
		}
		buf = append(buf, event{name: e.Name, cat: e.Cat, ts: e.TS + offsetNS, dur: e.Dur, lane: e.Lane})
		imported.total++
	}
	imported.events[source] = buf
}

// TimelineImportedCount returns the number of imported spans buffered.
func TimelineImportedCount() int {
	imported.mu.Lock()
	defer imported.mu.Unlock()
	return imported.total
}

// traceEvent is the Chrome trace-event JSON shape (ts/dur in
// microseconds; "X" = complete event, "M" = metadata).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON-object trace container Perfetto accepts.
type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// WriteTimeline renders every buffered span — local and imported — as
// a Chrome trace-event JSON object. Timestamps are rebased to the
// earliest span across all processes so the viewer opens at t=0; the
// local process renders as pid 1 and each imported source (a fleet
// worker) as its own named process, one lane group per worker.
func WriteTimeline(w io.Writer) error {
	timeline.mu.Lock()
	events := append([]event(nil), timeline.events...)
	dropped := timeline.dropped
	timeline.mu.Unlock()
	imported.mu.Lock()
	sources := append([]string(nil), imported.sources...)
	srcEvents := make(map[string][]event, len(sources))
	for _, s := range sources {
		srcEvents[s] = append([]event(nil), imported.events[s]...)
	}
	imported.mu.Unlock()

	var base int64
	first := true
	minTS := func(evs []event) {
		for _, e := range evs {
			if first || e.ts < base {
				base = e.ts
				first = false
			}
		}
	}
	minTS(events)
	for _, s := range sources {
		minTS(srcEvents[s])
	}
	tf := traceFile{TraceEvents: make([]traceEvent, 0, len(events)+len(sources)+2)}
	tf.TraceEvents = append(tf.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "ctbia"},
	})
	if dropped > 0 {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "dropped_events", Ph: "M", PID: 1,
			Args: map[string]any{"dropped": dropped},
		})
	}
	appendEvents := func(pid int, evs []event) {
		for _, e := range evs {
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: e.name, Cat: e.cat, Ph: "X",
				TS:  float64(e.ts-base) / 1e3,
				Dur: float64(e.dur) / 1e3,
				PID: pid, TID: e.lane,
			})
		}
	}
	appendEvents(1, events)
	for i, s := range sources {
		pid := 2 + i
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": "worker " + s},
		})
		appendEvents(pid, srcEvents[s])
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&tf)
}
