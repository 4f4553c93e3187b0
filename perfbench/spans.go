package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Its name is "<layer>.<call>", e.g. "cpu.build".
type span struct {
	name       string
	start, end time.Duration // offsets from the recorder's origin
	parent     int           // index of the enclosing span, -1 at top level
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	return l
}

// recorder keeps the spans of one traced run in memory. The untraced
// run uses a nil recorder, whose methods do nothing, so measuring with
// tracing off costs one nil check per call site.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.origin), parent: parent})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	return i
}

// end closes the span begin returned, and any span opened inside it
// that a panic left open.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin)
	for len(r.open) > 0 {
		top := r.open[len(r.open)-1]
		r.open = r.open[:len(r.open)-1]
		r.spans[top].end = now
		if top == i {
			break
		}
	}
}

// now is the recorder's clock, for window bounds.
func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.origin)
}

// durations lists the durations of every span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// selfTimes attributes the window [from, to) to layers. A span's self
// time is its duration minus the part its children cover; a layer's
// self time sums its spans'. unattributed is the part of the window no
// top-level span covers. Only spans that start inside the window count.
func selfTimes(spans []span, from, to time.Duration) (self map[string]time.Duration, unattributed time.Duration) {
	self = make(map[string]time.Duration)
	children := make(map[int][]span)
	var roots []span
	for _, s := range spans {
		if s.start < from || s.start >= to {
			continue
		}
		if s.parent < 0 {
			roots = append(roots, s)
		} else {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for i, s := range spans {
		if s.start < from || s.start >= to {
			continue
		}
		self[s.layer()] += s.end - s.start - covered(children[i], s.start, s.end)
	}
	return self, (to - from) - covered(roots, from, to)
}

// covered is the length of the union of the spans' intervals, clipped
// to [from, to).
func covered(spans []span, from, to time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, from), min(s.end, to)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentileAllowed reports whether n samples support reporting the
// pct-th percentile: nearest-rank, with at least minBeyond samples
// above it. beyond is the number of samples above it.
func percentileAllowed(n int, pct float64) (ok bool, beyond int) {
	if n <= 0 {
		return false, 0
	}
	rank := nearestRank(n, pct)
	return n-rank >= minBeyond, n - rank
}

// tailPercentile is the highest of the candidate percentiles that n
// samples support, or 0 when not even the median is supported.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90, 50} {
		if ok, _ := percentileAllowed(n, p); ok {
			return p
		}
	}
	return 0
}

// nearestRank is the 1-based rank of the pct-th percentile of n
// samples: ceil(pct/100 * n), computed in per-mille to stay exact.
func nearestRank(n int, pct float64) int {
	permille := int(pct*10 + 0.5)
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank pct-th percentile of xs.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), pct)-1]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// meanMS is the mean of ds in milliseconds, 0 for none.
func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / 1e6
}
