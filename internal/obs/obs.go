// Package obs is the simulator's zero-cost-when-disabled observability
// layer: a process-wide registry of named counters, gauges and
// histograms, a span/timeline tracer that renders a whole ctbench run
// as a Chrome trace-event file (openable in Perfetto), progress
// accounting for long sweeps, and an HTTP endpoint serving expvar,
// pprof and Prometheus text exposition.
//
// Like internal/faultinject, the package is armed explicitly; disarmed
// (the default), every probe compiled into the hot layers costs a
// single atomic load and allocates nothing — the repository's
// alloc-budget benchmarks enforce that the access and sweep paths
// stay zero-alloc with the layer present but disarmed, and the
// experiment tables are byte-identical either way (observation never
// feeds back into simulation).
//
// The write side is sharded (see shard.go): names intern once into
// dense IDs, each worker updates a private Shard with no shared state,
// and snapshots merge every shard on pull. The name-based Add/Set
// remain as the compat path for cold call sites; high-frequency
// producers hold a shard and use handles.
//
// The simulator's layers do not push into this package directly: the
// machine model keeps its existing per-machine statistics and the
// harness harvests them into the registry (cpu.Machine.EmitMetrics)
// after each completed run, so internal/cpu and below never import
// obs. Pull-only producers (the result cache, the manifest)
// register a Source instead and are read at snapshot time.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// armed gates every push-side probe. Snapshot/export always work —
// reading a disarmed registry just sees whatever was collected while
// armed (or nothing).
var armed atomic.Bool

// Arm enables metric collection.
func Arm() { armed.Store(true) }

// Disarm disables metric collection (the default state).
func Disarm() { armed.Store(false) }

// Enabled reports whether metric collection is armed. Hot call sites
// with harvest work to do (building metric names, reading clocks)
// check it first; the package's own Add/Observe probes re-check it, so
// forgetting the guard costs allocations, never correctness.
func Enabled() bool { return armed.Load() }

// Add increments the named counter by v through the shared compat
// shard. Disarmed it is a single atomic load; armed it pays one name
// interning (RLock + map hit) per call — hot producers should Intern
// once and Add through a private Shard instead. The signature matches
// cpu.Machine.EmitMetrics's emit callback, so a whole machine harvests
// with m.EmitMetrics(obs.Add).
func Add(name string, v uint64) {
	if !armed.Load() {
		return
	}
	global.cell(Intern(name)).Add(v)
}

// gauges hold last-write-wins values. Gauges stay unsharded: merging
// per-worker "last writes" has no meaningful winner, and every Set
// call site is low-rate.
var gauges = struct {
	mu sync.RWMutex
	m  map[string]*atomic.Uint64
}{m: make(map[string]*atomic.Uint64)}

// Set stores v as the named gauge (last write wins).
func Set(name string, v uint64) {
	if !armed.Load() {
		return
	}
	gauges.mu.RLock()
	g := gauges.m[name]
	gauges.mu.RUnlock()
	if g == nil {
		gauges.mu.Lock()
		if g = gauges.m[name]; g == nil {
			g = new(atomic.Uint64)
			gauges.m[name] = g
		}
		gauges.mu.Unlock()
	}
	g.Store(v)
}

// histBuckets is the bucket count of a power-of-two histogram: bucket
// i holds values v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
const histBuckets = 65

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int { return bits.Len64(v) }

// Histogram counts observations in power-of-two buckets, exported as
// cumulative le_* counters plus count and sum — enough resolution to
// see a latency distribution's shape without per-observation storage.
// The histogram itself is a handle: observations land in the caller's
// shard (Shard.Observe) or the shared compat shard (Observe), and
// snapshots merge all of them.
type Histogram struct {
	name string
	hid  ID // dense histogram index into each shard's hist chunks
	// leNames precomputes the exported bucket key for every bucket
	// index, so merging a snapshot allocates no strings.
	leNames   [histBuckets]string
	countName string
	sumName   string
	// qNames are the export-time quantile summary keys (p50/p95/p99).
	// They appear only in WriteJSON/WritePrometheus output, never in
	// Snapshot, so Delta and MergeFlat stay exact.
	qNames [len(quantileQs)]string
}

var histograms = struct {
	mu  sync.Mutex
	all []*Histogram
}{}

// NewHistogram registers a power-of-two-bucket histogram under name.
// Call once per name at package init; duplicate names return the
// existing histogram.
func NewHistogram(name string) *Histogram {
	histograms.mu.Lock()
	defer histograms.mu.Unlock()
	for _, h := range histograms.all {
		if h.name == name {
			return h
		}
	}
	if len(histograms.all) >= histChunks*histChunkSize {
		panic(fmt.Sprintf("obs: more than %d histograms", histChunks*histChunkSize))
	}
	h := &Histogram{name: name, hid: ID(len(histograms.all))}
	for i := range h.leNames {
		h.leNames[i] = fmt.Sprintf("%s.le_%d", name, boundOf(i))
	}
	h.countName = name + ".count"
	h.sumName = name + ".sum"
	for i, q := range quantileQs {
		h.qNames[i] = fmt.Sprintf("%s.p%d", name, int(q*100))
	}
	histograms.all = append(histograms.all, h)
	return h
}

// registeredHistograms snapshots the registration list (registration is
// rare; the copy keeps callers off histograms.mu while they walk keys).
func registeredHistograms() []*Histogram {
	histograms.mu.Lock()
	all := append([]*Histogram(nil), histograms.all...)
	histograms.mu.Unlock()
	return all
}

// Observe records one value into the shared compat shard. Disarmed it
// is a single atomic load. High-frequency producers should go through
// Shard.Observe instead.
func (h *Histogram) Observe(v uint64) {
	if !armed.Load() {
		return
	}
	global.hcells(h.hid).observe(v)
}

// Source is a pull-side metrics producer: called at snapshot time with
// an emit callback. The result cache and manifest register sources
// so their internal counters appear in every export without the hot
// paths pushing per-event.
type Source func(emit func(name string, v uint64))

var sources = struct {
	mu  sync.Mutex
	fns []Source
}{}

// RegisterSource adds a pull-side producer to every future snapshot.
// A Source must not call Snapshot/SnapshotInto or RegisterSource.
func RegisterSource(s Source) {
	sources.mu.Lock()
	sources.fns = append(sources.fns, s)
	sources.mu.Unlock()
}

// snapMu serializes snapshot merges so the shared emitter below needs
// no per-call closure (a top-level func value allocates nothing).
var (
	snapMu  sync.Mutex
	snapDst map[string]uint64
)

func snapEmit(name string, v uint64) { snapDst[name] = v }

// Snapshot returns every known metric as a flat name->value map:
// merged shard counters, gauges, histogram decompositions (name.count,
// name.sum, name.le_<bound> cumulative buckets) and registered
// sources.
func Snapshot() map[string]uint64 {
	return SnapshotInto(make(map[string]uint64))
}

// SnapshotInto is Snapshot merging into a caller-owned map: dst is
// cleared, filled and returned. Reusing one map across calls keeps a
// polling exporter's steady state allocation-free — map writes to
// existing keys allocate nothing, and the merge itself builds no
// strings (bucket names are precomputed, counter names interned).
func SnapshotInto(dst map[string]uint64) map[string]uint64 {
	snapMu.Lock()
	defer snapMu.Unlock()
	clear(dst)
	snapDst = dst
	defer func() { snapDst = nil }()

	// Counters: every interned name, summed across every shard. The
	// name table only grows while armed (disarmed adds don't intern),
	// so like the old registry a name appears once touched and stays.
	nameTab.mu.RLock()
	names := nameTab.list
	nameTab.mu.RUnlock()
	shards.mu.Lock()
	for ci := 0; ci*countChunkSize < len(names); ci++ {
		for _, sh := range shards.all {
			ch := sh.counts[ci].Load()
			if ch == nil {
				continue
			}
			base := ci * countChunkSize
			top := len(names) - base
			if top > countChunkSize {
				top = countChunkSize
			}
			for off := 0; off < top; off++ {
				if v := ch[off].Load(); v != 0 {
					dst[names[base+off]] += v
				}
			}
		}
	}
	// Zero-valued but interned names still appear (the old registry
	// listed every created counter); fill the gaps.
	for _, n := range names {
		if _, ok := dst[n]; !ok {
			dst[n] = 0
		}
	}

	// Histograms: merge buckets across shards into cumulative counts.
	histograms.mu.Lock()
	for _, h := range histograms.all {
		var count, sum uint64
		for _, sh := range shards.all {
			if ch := sh.hists[int(h.hid)>>histChunkBits].Load(); ch != nil {
				c := &ch[int(h.hid)&(histChunkSize-1)]
				count += c.count.Load()
				sum += c.sum.Load()
			}
		}
		if count == 0 {
			continue
		}
		dst[h.countName] = count
		dst[h.sumName] = sum
		var cum uint64
		for i := 0; i < histBuckets; i++ {
			var b uint64
			for _, sh := range shards.all {
				if ch := sh.hists[int(h.hid)>>histChunkBits].Load(); ch != nil {
					b += ch[int(h.hid)&(histChunkSize-1)].buckets[i].Load()
				}
			}
			if b == 0 {
				continue
			}
			cum += b
			dst[h.leNames[i]] = cum
		}
	}
	histograms.mu.Unlock()
	shards.mu.Unlock()

	gauges.mu.RLock()
	for name, g := range gauges.m {
		dst[name] = g.Load()
	}
	gauges.mu.RUnlock()

	sources.mu.Lock()
	for _, fn := range sources.fns {
		fn(snapEmit)
	}
	sources.mu.Unlock()
	return dst
}

// boundOf maps a bits.Len64 bucket index to its exclusive upper bound.
func boundOf(i int) uint64 {
	if i >= 64 {
		return ^uint64(0)
	}
	return uint64(1) << uint(i)
}

// quantileQs are the tail summaries appended to exports for every
// registered histogram with observations.
var quantileQs = [...]float64{0.50, 0.95, 0.99}

// appendQuantiles injects p50/p95/p99 summary keys for every registered
// histogram present in snap. The reported value is the exclusive upper
// bound of the smallest bucket whose cumulative count reaches the
// quantile rank — conservative within one power of two, which is the
// histogram's resolution anyway. Export-time only: Snapshot itself
// never contains quantile keys, so deltas and merges stay exact.
func appendQuantiles(snap map[string]uint64) {
	for _, h := range registeredHistograms() {
		count := snap[h.countName]
		if count == 0 {
			continue
		}
		for qi, q := range quantileQs {
			rank := uint64(float64(count) * q)
			if rank < 1 {
				rank = 1
			}
			var cum uint64
			for i := 0; i < histBuckets; i++ {
				v, ok := snap[h.leNames[i]]
				if !ok {
					continue
				}
				cum = v
				if cum >= rank {
					snap[h.qNames[qi]] = boundOf(i)
					break
				}
			}
			if cum < rank {
				// Rounding put the rank past the last bucket; the max
				// bucket bound is still the honest answer.
				snap[h.qNames[qi]] = boundOf(histBuckets - 1)
			}
		}
	}
}

// Delta subtracts a prior snapshot from a later one, dropping zero and
// regressed entries — the per-experiment attribution the harness
// journals into manifest.json. With concurrent experiments the windows
// overlap, so per-experiment deltas are approximate there (exactly
// like the machine-count attribution); run-level totals stay exact.
//
// Registered histograms get special handling: their exported le_*
// buckets are cumulative, and naively subtracting cumulative keys does
// not yield a valid cumulative decomposition (a bucket whose le_ key
// was absent before — all-zero prefix — would absorb the whole earlier
// tail). Delta decodes both snapshots back to per-bucket counts, diffs
// those, and re-encodes the difference, so a Delta is itself a
// well-formed snapshot that MergeFlat folds in exactly.
func Delta(before, after map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64)
	var skip map[string]struct{}
	for _, h := range registeredHistograms() {
		ac, ok := after[h.countName]
		if !ok {
			continue
		}
		if skip == nil {
			skip = make(map[string]struct{})
		}
		h.markKeys(skip)
		bc := before[h.countName]
		if ac <= bc {
			continue // no new observations
		}
		out[h.countName] = ac - bc
		if as, bs := after[h.sumName], before[h.sumName]; as > bs {
			out[h.sumName] = as - bs
		}
		var ab, bb [histBuckets]uint64
		decodeBuckets(after, h, &ab)
		decodeBuckets(before, h, &bb)
		var cum uint64
		for i := range ab {
			d := ab[i] - bb[i] // buckets are monotonic, never regress
			if d == 0 {
				continue
			}
			cum += d
			out[h.leNames[i]] = cum
		}
	}
	for name, v := range after {
		if skip != nil {
			if _, ok := skip[name]; ok {
				continue
			}
		}
		if b := before[name]; v > b {
			out[name] = v - b
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// markKeys adds every snapshot key this histogram owns to set.
func (h *Histogram) markKeys(set map[string]struct{}) {
	set[h.countName] = struct{}{}
	set[h.sumName] = struct{}{}
	for i := range h.leNames {
		set[h.leNames[i]] = struct{}{}
	}
}

// decodeBuckets recovers per-bucket counts from a snapshot's cumulative
// le_* keys. The emitter writes a key only for buckets with a nonzero
// own count, so each present key's increment over the previous present
// key is exactly that bucket's count.
func decodeBuckets(snap map[string]uint64, h *Histogram, dst *[histBuckets]uint64) {
	var prev uint64
	for i := 0; i < histBuckets; i++ {
		if v, ok := snap[h.leNames[i]]; ok {
			dst[i] = v - prev
			prev = v
		}
	}
}

// MergeFlat folds a flat snapshot produced by another process's
// registry — a fleet worker's Snapshot, or a Delta of two such
// snapshots — into this registry as if the work had happened here:
// plain entries Add into the shared compat shard, and the
// count/sum/le_* decomposition of each locally registered histogram is
// decoded back into per-bucket observations, so merged bucket counts
// (and the quantiles computed from them) stay exact. Decomposition
// keys of histograms this binary never registered merge as plain
// counters. Unlike the armed-gated probes MergeFlat always applies
// (it is a pull-side merge, not a hot-path probe); idempotence is the
// caller's job — the fleet coordinator merges each accepted unit's
// delta exactly once. Returns the number of entries folded in
// (counting a histogram decomposition as one).
func MergeFlat(snap map[string]uint64) int {
	if len(snap) == 0 {
		return 0
	}
	merged := 0
	var skip map[string]struct{}
	for _, h := range registeredHistograms() {
		count, ok := snap[h.countName]
		if !ok {
			continue
		}
		if skip == nil {
			skip = make(map[string]struct{})
		}
		h.markKeys(skip)
		if count == 0 {
			continue
		}
		cells := global.hcells(h.hid)
		var prev uint64
		for i := 0; i < histBuckets; i++ {
			if v, ok := snap[h.leNames[i]]; ok {
				if v > prev {
					cells.buckets[i].Add(v - prev)
				}
				prev = v
			}
		}
		cells.count.Add(count)
		cells.sum.Add(snap[h.sumName])
		merged++
	}
	for name, v := range snap {
		if skip != nil {
			if _, ok := skip[name]; ok {
				continue
			}
		}
		if v == 0 {
			continue
		}
		global.cell(Intern(name)).Add(v)
		merged++
	}
	return merged
}

// Reset zeroes every counter, gauge and histogram across every shard
// (sources keep their own state). Benchmarks use it to separate
// measurement phases; tests use it for isolation.
func Reset() {
	shards.mu.Lock()
	for _, sh := range shards.all {
		sh.reset()
	}
	shards.mu.Unlock()
	gauges.mu.Lock()
	for _, g := range gauges.m {
		g.Store(0)
	}
	gauges.mu.Unlock()
}

// sortedNames returns the snapshot's keys in deterministic order, so
// every export is diffable run-to-run.
func sortedNames(snap map[string]uint64) []string {
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes the current snapshot as a sorted JSON object, with
// p50/p95/p99 summary keys appended for every populated histogram.
func WriteJSON(w io.Writer) error {
	snap := Snapshot()
	appendQuantiles(snap)
	names := sortedNames(snap)
	var b strings.Builder
	b.WriteString("{\n")
	for i, n := range names {
		key, _ := json.Marshal(n)
		fmt.Fprintf(&b, "  %s: %d", key, snap[n])
		if i < len(names)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// promName sanitizes a dotted metric name into Prometheus's
// [a-zA-Z_][a-zA-Z0-9_]* grammar under the ctbia_ namespace.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("ctbia_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus writes the current snapshot in Prometheus text
// exposition format (untyped samples; names sanitized and prefixed
// with ctbia_), with p50/p95/p99 summary samples for every populated
// histogram.
func WritePrometheus(w io.Writer) error {
	snap := Snapshot()
	appendQuantiles(snap)
	var b strings.Builder
	for _, n := range sortedNames(snap) {
		fmt.Fprintf(&b, "%s %d\n", promName(n), snap[n])
	}
	_, err := io.WriteString(w, b.String())
	return err
}
