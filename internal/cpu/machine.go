// Package cpu provides the machine model the workloads execute on: an
// in-order cycle-cost core in front of the cache hierarchy, with the
// paper's two new micro-ops (CTLoad/CTStore) wired to a BIA.
//
// Timing model. Each ALU instruction costs one cycle and each memory
// instruction costs the hierarchy access latency; instruction fetches
// always hit the L1i and are overlapped (they are counted, not timed).
// This deliberately simple model exposes exactly the quantities the
// paper reports — cycles, instruction count, L1i/L1d references and DRAM
// accesses — while keeping runs deterministic. Out-of-order overlap
// would scale absolute numbers, not the relative shapes the evaluation
// is about.
package cpu

import (
	"fmt"
	"strings"
	"sync/atomic"

	"ctbia/internal/bia"
	"ctbia/internal/cache"
	"ctbia/internal/memp"
)

// Config describes a full machine.
type Config struct {
	// Levels are the cache levels innermost-first (L1d, L2, LLC).
	Levels []cache.Config
	// DRAMLatency is the miss-to-memory latency in cycles.
	DRAMLatency int
	// BIA configures the bitmap table; ignored when BIALevel is 0.
	BIA bia.Config
	// BIALevel is the 1-based cache level hosting the BIA (paper
	// Sec. 4.2/6.4: L1d, L2 or LLC). Zero disables the BIA, modelling
	// stock hardware for the insecure and software-CT runs.
	BIALevel int
	// Inclusive enforces inclusion with back-invalidation (the
	// cross-core attack setting; see cache.Hierarchy.Inclusive).
	Inclusive bool
}

// DefaultConfig mirrors the paper's Table 1: 64 KiB L1d @2 cycles, 1 MiB
// L2 @15 cycles, 16 MiB LLC @41 cycles, and a 1 KiB 1-cycle BIA in the
// L1d. The L2 geometry (8-way) yields the 2048 sets visible in the
// paper's Fig. 10 security test.
func DefaultConfig() Config {
	return Config{
		Levels: []cache.Config{
			{Name: "L1d", Size: 64 << 10, Ways: 8, Latency: 2},
			{Name: "L2", Size: 1 << 20, Ways: 8, Latency: 15},
			{Name: "LLC", Size: 16 << 20, Ways: 16, Latency: 41},
		},
		DRAMLatency: 200,
		BIA:         bia.DefaultConfig(),
		BIALevel:    1,
	}
}

// Validate checks the configuration without building anything,
// mirroring every geometry panic New (via cache.NewCache and bia.New)
// would hit plus the machine-level constraints, as one friendly error.
// CLIs validate flag-derived configs up front so a bad combination is
// an exit-code-2 usage error, never a panic stack mid-sweep.
func (c Config) Validate() error {
	if len(c.Levels) == 0 {
		return fmt.Errorf("cpu: config needs at least one cache level")
	}
	for i, l := range c.Levels {
		name := l.Name
		if name == "" {
			name = fmt.Sprintf("level %d", i+1)
		}
		if l.Size <= 0 {
			return fmt.Errorf("cpu: cache %s: size %d must be positive", name, l.Size)
		}
		if l.Ways <= 0 {
			return fmt.Errorf("cpu: cache %s: ways %d must be positive", name, l.Ways)
		}
		if l.Latency < 0 {
			return fmt.Errorf("cpu: cache %s: negative latency %d", name, l.Latency)
		}
		nlines := l.Size / memp.LineSize
		if nlines <= 0 || l.Size%memp.LineSize != 0 {
			return fmt.Errorf("cpu: cache %s: size %d is not a positive multiple of the %d-byte line", name, l.Size, memp.LineSize)
		}
		if nlines%l.Ways != 0 {
			return fmt.Errorf("cpu: cache %s: %d lines not divisible by %d ways", name, nlines, l.Ways)
		}
		if l.Slices > 1 && (nlines/l.Ways)%l.Slices != 0 {
			return fmt.Errorf("cpu: cache %s: %d sets not divisible by %d slices", name, nlines/l.Ways, l.Slices)
		}
	}
	if c.DRAMLatency < 0 {
		return fmt.Errorf("cpu: negative DRAM latency %d", c.DRAMLatency)
	}
	if c.BIALevel < 0 || c.BIALevel > len(c.Levels) {
		return fmt.Errorf("cpu: BIA level %d out of range 0..%d", c.BIALevel, len(c.Levels))
	}
	if c.BIALevel > 0 {
		b := c.BIA
		if b.Entries <= 0 || b.Ways <= 0 || b.Entries%b.Ways != 0 {
			return fmt.Errorf("cpu: invalid BIA geometry entries=%d ways=%d", b.Entries, b.Ways)
		}
		if b.Latency < 0 {
			return fmt.Errorf("cpu: negative BIA latency %d", b.Latency)
		}
		if b.ChunkShift != 0 && (b.ChunkShift <= memp.LineShift || b.ChunkShift > memp.PageShift) {
			return fmt.Errorf("cpu: BIA chunk shift %d out of range (%d, %d]", b.ChunkShift, memp.LineShift, memp.PageShift)
		}
	}
	return nil
}

// Counters aggregates the core-side statistics. Cache-side counts live
// in the hierarchy's per-level stats.
type Counters struct {
	// Cycles is the simulated execution time.
	Cycles uint64
	// Insts counts retired instructions (ALU + memory + CT micro-ops).
	Insts uint64
	// L1IRefs counts instruction fetches; with the always-hit L1i
	// model this equals Insts, reported separately because the paper's
	// motivation table reports "L1i ref" as its own column.
	L1IRefs uint64
	// Loads and Stores count demand data-memory instructions.
	Loads  uint64
	Stores uint64
	// CTLoads and CTStores count the new micro-ops.
	CTLoads  uint64
	CTStores uint64
	// CTProbeHits and CTProbeMisses count the CT probes' outcomes at
	// the BIA's cache level (a CTStore "hit" means the line was present
	// and dirty, so the store applied).
	CTProbeHits   uint64
	CTProbeMisses uint64
}

// DSStats counts the existence/dirtiness-bitmap savings the paper's
// Algorithms 2/3 realize: per page span, how many DS lines the bitmap
// let the runtime skip versus the whole-DS touch a software-only
// implementation pays. These are strategy-front-end observations — the
// sweep code computes them while deciding what to fetch — so they live
// outside Counters.
type DSStats struct {
	// LinesSkipped counts DS lines not touched thanks to set
	// existence/dirtiness bits.
	LinesSkipped uint64
	// LinesTotal counts DS lines a bitmap-less implementation would
	// have touched for the same spans.
	LinesTotal uint64
	// Spans counts page spans processed.
	Spans uint64
}

// Machine is one simulated core with its memory system.
type Machine struct {
	Mem   *memp.Memory
	Alloc *memp.Allocator
	Hier  *cache.Hierarchy
	BIA   *bia.Table

	cfg Config
	C   Counters

	// DS aggregates bitmap-savings observations (see DSStats).
	DS DSStats

	// baseListeners is the hierarchy's listener count right after
	// construction (the BIA subscription, if any); Reset truncates the
	// listener list back to it so telemetry subscribed by one borrower
	// of a pooled machine never leaks into the next run.
	baseListeners int

	// streamParity halves the charged cost of streaming hits (two
	// loads per cycle through the L1's dual ports).
	streamParity int
	// opSlop accumulates sub-cycle wide-issue op cost.
	opSlop int
	// modeLUT precomputes modeFlags for every AccessMode combination
	// (four mode bits, sixteen combos); the sweep loops resolve their
	// constant mode with one load instead of four branch tests.
	modeLUT [16]cache.Flags
}

// machinesBuilt counts Machine constructions process-wide; the harness
// records it in benchmark trajectories (a proxy for experiment scale
// that is independent of host speed).
var machinesBuilt atomic.Uint64

// MachinesBuilt returns the number of Machines constructed so far in
// this process. Deltas around an experiment attribute machines to it;
// with concurrent experiments the windows overlap, so per-experiment
// deltas are approximate there while whole-run deltas stay exact.
func MachinesBuilt() uint64 { return machinesBuilt.Load() }

// machinesReset counts Machine.Reset calls process-wide; built + reset
// together count machine *uses*, the scale proxy the benchmark
// trajectories record (pooling turns constructions into resets, so
// neither count alone is comparable across PRs).
var machinesReset atomic.Uint64

// MachinesReset returns the number of Machine resets so far in this
// process (see MachinesBuilt for the delta-attribution caveats).
func MachinesReset() uint64 { return machinesReset.Load() }

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	machinesBuilt.Add(1)
	m := &Machine{
		Mem:   memp.NewMemory(),
		Alloc: memp.NewAllocator(),
		Hier:  cache.NewHierarchy(cfg.DRAMLatency, cfg.Levels...),
		cfg:   cfg,
	}
	m.Hier.Inclusive = cfg.Inclusive
	if cfg.BIALevel > 0 {
		m.BIA = bia.New(cfg.BIA)
		m.BIA.AttachTo(m.Hier, cfg.BIALevel)
	}
	for mode := range m.modeLUT {
		m.modeLUT[mode] = m.computeModeFlags(AccessMode(mode))
	}
	m.baseListeners = m.Hier.ListenerCount()
	return m
}

// Reset restores the machine to the state New left it in — cold caches,
// empty BIA, zeroed memory and counters, allocator rewound — without
// reallocating anything. A workload run on a Reset machine is
// bit-identical to the same run on a fresh machine (the harness's
// reset-equivalence test enforces this for every workload × strategy),
// which is what makes pooling machines across experiment points safe.
func (m *Machine) Reset() {
	m.C = Counters{}
	m.DS = DSStats{}
	m.opSlop = 0
	m.streamParity = 0
	m.Mem.Reset()
	m.Alloc.Reset()
	m.Hier.TruncateListeners(m.baseListeners)
	m.Hier.Reset()
	m.Hier.Inclusive = m.cfg.Inclusive
	if m.BIA != nil {
		m.BIA.Reset()
	}
	machinesReset.Add(1)
}

// NewDefault builds a machine with DefaultConfig.
func NewDefault() *Machine { return New(DefaultConfig()) }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Fingerprint renders the configuration as a deterministic string for
// content-addressed result caching. Every field that changes simulated
// behaviour is included except custom SliceHash functions, which are
// not introspectable — experiments that install one hard-code it, so
// the harness's simulator-version salt covers those changes.
func (c Config) Fingerprint() string {
	var b strings.Builder
	for _, l := range c.Levels {
		fmt.Fprintf(&b, "%s:%d:%d:%d:%s:%d:%d;", l.Name, l.Size, l.Ways, l.Latency, l.Policy, l.Slices, l.Seed)
	}
	fmt.Fprintf(&b, "dram=%d;bia=%d/%d/%d/%d@L%d;incl=%v",
		c.DRAMLatency, c.BIA.Entries, c.BIA.Ways, c.BIA.Latency, c.BIA.ChunkShift, c.BIALevel, c.Inclusive)
	return b.String()
}

// BIALevel returns the cache level hosting the BIA, 0 if none.
func (m *Machine) BIALevel() int { return m.cfg.BIALevel }

// HasBIA reports whether the machine has the proposed hardware.
func (m *Machine) HasBIA() bool { return m.BIA != nil }

// retire accounts n instructions (fetch + issue), without cycles.
func (m *Machine) retire(n int) {
	m.C.Insts += uint64(n)
	m.C.L1IRefs += uint64(n)
}

// Op executes n ALU instructions: n cycles, n instruction fetches. All
// workload arithmetic, address generation and branch overhead is
// accounted through Op, so the instruction-count comparisons in the
// paper's Fig. 8 are meaningful. Op models dependent scalar work (one
// per cycle); for the independent address arithmetic inside
// linearization sweeps use OpStream.
func (m *Machine) Op(n int) {
	if n < 0 {
		panic("cpu: negative op count")
	}
	m.retire(n)
	m.C.Cycles += uint64(n)
}

// streamIssueWidth is how many independent ALU ops retire per cycle in
// a streaming loop (a wide out-of-order core keeps sweep address
// arithmetic entirely off the critical path).
const streamIssueWidth = 1 << streamIssueShift

// streamIssueShift is log2(streamIssueWidth), for shift/mask accounting.
const streamIssueShift = 3

// OpStream executes n ALU instructions belonging to an independent
// streaming loop (the DS linearization sweeps): the instructions are
// counted in full — the paper's motivation table shows the instruction
// stream itself is a major cost — but they issue streamIssueWidth wide,
// so their cycle cost is n/8 (fractions accumulate across calls).
func (m *Machine) OpStream(n int) {
	if n < 0 {
		panic("cpu: negative op count")
	}
	m.retire(n)
	// opSlop is non-negative, so / and % of the power-of-two issue
	// width reduce to shift and mask (this runs on every ALU bundle).
	m.opSlop += n
	m.C.Cycles += uint64(m.opSlop >> streamIssueShift)
	m.opSlop &= streamIssueWidth - 1
}

// access runs one data access and charges its latency. Streaming
// accesses that hit the first level probed are charged at the L1's
// dual-port throughput (two per cycle) instead of their latency —
// out-of-order execution fully pipelines a linearization sweep; misses
// always pay their full latency.
func (m *Machine) access(addr memp.Addr, flags cache.Flags) cache.Result {
	m.retire(1)
	start := 1
	if flags&flagBypassToBIA != 0 {
		start = m.cfg.BIALevel
		flags &^= flagBypassToBIA
	}
	streaming := flags&flagStreaming != 0
	flags &^= flagStreaming
	r := m.Hier.AccessFrom(start, addr, flags)
	if streaming && r.HitLevel == start {
		m.streamParity ^= 1
		m.C.Cycles += uint64(m.streamParity)
	} else {
		m.C.Cycles += uint64(r.Cycles)
	}
	if flags&cache.FlagWrite != 0 {
		m.C.Stores++
	} else {
		m.C.Loads++
	}
	return r
}

// flagBypassToBIA is a machine-internal flag: route the access to the
// BIA's cache level, skipping the levels above it ("bypass the L1 cache
// ... for security" with an L2/LLC-resident BIA). It must not collide
// with cache package flags.
const flagBypassToBIA cache.Flags = 1 << 16

// flagStreaming is a machine-internal flag marking pipelined sweep
// accesses (see access).
const flagStreaming cache.Flags = 1 << 17

// Load64 performs a normal 64-bit load.
func (m *Machine) Load64(addr memp.Addr) uint64 { return m.LoadW(addr, W64) }

// Load32 performs a normal 32-bit load.
func (m *Machine) Load32(addr memp.Addr) uint32 { return uint32(m.LoadW(addr, W32)) }

// Load8 performs a normal 8-bit load.
func (m *Machine) Load8(addr memp.Addr) byte { return byte(m.LoadW(addr, W8)) }

// Store64 performs a normal 64-bit store.
func (m *Machine) Store64(addr memp.Addr, v uint64) { m.StoreW(addr, v, W64) }

// Store32 performs a normal 32-bit store.
func (m *Machine) Store32(addr memp.Addr, v uint32) { m.StoreW(addr, uint64(v), W32) }

// Store8 performs a normal 8-bit store.
func (m *Machine) Store8(addr memp.Addr, v byte) { m.StoreW(addr, uint64(v), W8) }

// AccessMode tunes the protected runtime's follow-up DS accesses.
type AccessMode uint32

// Access modes for LoadMode/StoreMode.
const (
	// ModeNoLRU suppresses replacement-state updates (secret-relevant
	// touches must not perturb LRU bits, paper Sec. 3.2).
	ModeNoLRU AccessMode = 1 << iota
	// ModeBypassToBIA starts the access at the BIA's level.
	ModeBypassToBIA
	// ModeUncached goes straight to DRAM (Sec. 6.5 optimization).
	ModeUncached
	// ModeStreaming marks an access belonging to an independent sweep
	// loop: hits are charged at dual-port throughput, not latency.
	ModeStreaming
)

func (m *Machine) modeFlags(mode AccessMode) cache.Flags {
	return m.modeLUT[mode&15]
}

// computeModeFlags derives the cache flags for one mode combination; New
// tabulates it into modeLUT.
func (m *Machine) computeModeFlags(mode AccessMode) cache.Flags {
	var f cache.Flags
	if mode&ModeNoLRU != 0 {
		f |= cache.FlagNoLRU
	}
	if mode&ModeBypassToBIA != 0 && m.cfg.BIALevel > 1 {
		f |= flagBypassToBIA
	}
	if mode&ModeUncached != 0 {
		f |= cache.FlagUncached
	}
	if mode&ModeStreaming != 0 {
		f |= flagStreaming
	}
	return f
}

// LoadMode64 is Load64 with explicit access-mode control.
func (m *Machine) LoadMode64(addr memp.Addr, mode AccessMode) uint64 {
	m.access(addr, m.modeFlags(mode))
	return m.Mem.Read64(addr)
}

// StoreMode64 is Store64 with explicit access-mode control.
func (m *Machine) StoreMode64(addr memp.Addr, v uint64, mode AccessMode) {
	m.access(addr, m.modeFlags(mode)|cache.FlagWrite)
	m.Mem.Write64(addr, v)
}

// CTLoad64 is the paper's CTLoad micro-op (Sec. 4.1): one input
// (address), two outputs (data, existence bitmap). If the line hits at
// the BIA's cache level the 64-bit word at addr is returned; otherwise
// data is 0 and the miss is NOT forwarded. The existence bitmap covers
// the 64 lines of addr's page; a BIA entry is installed (all zeros) if
// the page is not tracked yet. Latency is the maximum of the cache-probe
// and BIA lookup latencies — they run in parallel (Fig. 5).
func (m *Machine) CTLoad64(addr memp.Addr) (data uint64, existence uint64) {
	return m.CTLoadW(addr, W64)
}

// CTStore64 is the paper's CTStore micro-op (Sec. 4.1): two inputs
// (address, data), one output (dirtiness bitmap). The store is applied
// only if the line is present AND dirty at the BIA's level; otherwise
// DO NOTHING. The dirtiness bitmap covers addr's page.
func (m *Machine) CTStore64(addr memp.Addr, data uint64) (dirtiness uint64) {
	return m.CTStoreW(addr, data, W64)
}

// Report bundles the counters the experiments consume.
type Report struct {
	Cycles   uint64
	Insts    uint64
	L1IRefs  uint64
	L1DRefs  uint64 // accesses to the innermost data cache
	L2Refs   uint64
	LLCRefs  uint64
	LLMisses uint64 // misses at the last level = main-memory reads
	DRAM     uint64 // total DRAM accesses (reads + writes)
}

// ResetStats zeroes every counter in the machine, hierarchy and BIA
// without touching any architectural state. Workloads call it after
// warming their data, so measurements cover the kernel's steady state —
// the paper's programs touch their inputs during (unmeasured-here)
// initialization, leaving the caches warm when the kernel starts.
func (m *Machine) ResetStats() {
	m.C = Counters{}
	m.DS = DSStats{}
	m.opSlop = 0
	m.streamParity = 0
	m.Mem.ResetStats()
	m.Hier.ResetStats()
	if m.BIA != nil {
		m.BIA.ResetStats()
	}
}

// WarmRegion touches every cache line of [base, base+size) with
// untimed, uncounted demand reads, installing the lines bottom-to-top.
// Pair with ResetStats for warm-start measurement.
func (m *Machine) WarmRegion(base memp.Addr, size uint64) {
	if size == 0 {
		return
	}
	last := (base + memp.Addr(size-1)).Line()
	for la := base.Line(); la <= last; la += memp.LineSize {
		m.Hier.Access(la, 0)
	}
}

// Report snapshots all counters.
func (m *Machine) Report() Report {
	r := Report{
		Cycles:  m.C.Cycles,
		Insts:   m.C.Insts,
		L1IRefs: m.C.L1IRefs,
		L1DRefs: m.Hier.Level(1).Stats.Accesses,
		DRAM:    m.Hier.Stats.DRAMAccesses(),
	}
	if m.Hier.Levels() >= 2 {
		r.L2Refs = m.Hier.Level(2).Stats.Accesses
	}
	llc := m.Hier.LLC()
	r.LLCRefs = llc.Stats.Accesses
	r.LLMisses = llc.Stats.Misses
	return r
}

// String renders the report as a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("cycles=%d insts=%d l1i=%d l1d=%d l2=%d llc=%d llmiss=%d dram=%d",
		r.Cycles, r.Insts, r.L1IRefs, r.L1DRefs, r.L2Refs, r.LLCRefs, r.LLMisses, r.DRAM)
}
