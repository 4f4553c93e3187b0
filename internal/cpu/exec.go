package cpu

import (
	"io"

	"ctbia/internal/cache"
	"ctbia/internal/memp"
	"ctbia/internal/trace"
)

// This file is the machine side of the trace-replay engine: recording
// hooks are in the primitive ops (Op, OpStream, access, the sweeps, the
// CT headers, WarmRegion, ResetStats, the scratchpad ops); ExecTrace
// re-executes a captured stream against a cold machine with
// bit-identical effects on every counter, cache level, BIA table and
// subscribed listener — the harness's trace-equivalence tests enforce
// this for every workload × strategy.
//
// Run and read-modify-write records are charged by run (sweep.go), the
// same body that charges a direct SweepLoad/SweepRMW, so direct
// execution and replay share one batch path. It has two regimes. With
// a listener that wants per-access events subscribed (attacker
// telemetry), every access re-enters the scalar charge path so event
// emission is reproduced exactly. Otherwise — the insecure and
// software-CT configurations, and BIA-attached machines, whose bitmaps
// the batch walk keeps exact through its run-record snoop port — whole
// runs go through Hierarchy.AccessBatch: one flat loop, the start-level
// probe inlined, no Result construction, no per-access event-filter
// checks, and the per-iteration bookkeeping applied in closed form per
// run rather than per access.

// SetRecorder attaches (or, with nil, detaches) a trace recorder. Every
// stat-relevant primitive executed while attached is appended to r.
// Recording does not change the machine's behaviour; it only observes.
func (m *Machine) SetRecorder(r *trace.Recorder) { m.rec = r }

// The trace package folds read-modify-write pairs assuming the write
// flag is bit 0; this fails to compile if cache.FlagWrite moves.
var _ [1]struct{} = [cache.FlagWrite]struct{}{}

// ExecTrace replays a compressed operation stream recorded by a
// trace.Recorder. The machine should be in the state recording started
// from (cold, for harness traces); replaying while a recorder is
// attached is a bug.
func (m *Machine) ExecTrace(ops []trace.Op) {
	if m.rec != nil {
		panic("cpu: ExecTrace on a machine with a recorder attached")
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case trace.KOps:
			m.Op(int(op.Arg))
		case trace.KOpStream:
			m.OpStream(int(op.Arg))
		case trace.KAccess:
			m.chargePre(op.Pre, int(op.PreN))
			m.access(memp.Addr(op.Addr), cache.Flags(op.Flags))
		case trace.KRun, trace.KRMW:
			m.run(memp.Addr(op.Addr), op.Stride, int(op.Arg), op.Pre, int(op.PreN),
				cache.Flags(op.Flags), op.Kind == trace.KRMW)
		case trace.KCTLoad:
			m.replayCTLoad(memp.Addr(op.Addr))
		case trace.KCTStore:
			m.replayCTStore(memp.Addr(op.Addr))
		case trace.KMacroStoreHdr:
			m.replayMacroStoreHdr(memp.Addr(op.Addr))
		case trace.KScratchCopy:
			n := op.Arg
			m.retire(int(2 * n))
			m.C.Loads += n
			m.Hier.Stats.DRAMReads += n
			m.C.Cycles += n * uint64(m.Hier.DRAMLatency()+int(op.Flags))
		case trace.KScratchLoad:
			m.retire(int(op.Arg))
			m.C.Loads += op.Arg
			m.C.Cycles += op.Arg * uint64(op.Flags)
		case trace.KScratchStore:
			m.retire(int(op.Arg))
			m.C.Stores += op.Arg
			m.C.Cycles += op.Arg * uint64(op.Flags)
		case trace.KWarm:
			m.WarmRegion(memp.Addr(op.Addr), op.Arg)
		case trace.KReset:
			m.ResetStats()
		default:
			panic("cpu: unknown trace op kind")
		}
	}
}

// ExecTraceReader replays a trace streamed from a v2 on-disk file,
// chunk by chunk: each Reader.Next block is fed straight through
// ExecTrace, so the whole-file op slice is never materialized and the
// resident footprint stays bounded by the reader's single chunk
// buffer. Op records never span chunks and ExecTrace keeps no
// cross-call state outside the machine, so chunked replay is
// bit-identical to replaying the concatenated stream.
func (m *Machine) ExecTraceReader(r *trace.Reader) error {
	for {
		ops, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		m.ExecTrace(ops)
	}
}

// ExecTraceFanout charges one decoded op slice to every machine in ms,
// in order. Each machine's replay is independent (ExecTrace touches
// only the machine it runs on), so fanning out is bit-identical to
// calling ExecTrace on each machine separately — the point is that the
// caller decoded the ops exactly once for the whole group.
func ExecTraceFanout(ms []*Machine, ops []trace.Op) {
	for _, m := range ms {
		m.ExecTrace(ops)
	}
}

// ExecTraceFanoutReader streams a trace and charges every machine in
// ms per chunk: each CRC-framed chunk is decoded exactly once, then
// applied to all machines before the next chunk is read. Chunks are
// validated (CRC + op kinds) before any machine is charged, so a torn
// or corrupt chunk surfaces as a typed error with no machine having
// consumed any part of it — but machines may already have been charged
// with earlier, intact chunks; callers treat an error as poisoning the
// whole group. Op records never span chunks and ExecTrace keeps no
// cross-call state outside the machine, so the fan-out is
// bit-identical to serial per-machine ExecTraceReader replay.
func ExecTraceFanoutReader(ms []*Machine, r *trace.Reader) error {
	for {
		ops, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		for _, m := range ms {
			m.ExecTrace(ops)
		}
	}
}

// replayCTLoad re-executes a CTLoad (or MacroCTLoad) header: identical
// BIA and cache side effects to CTLoadW, minus the data movement (which
// has no stat effect).
func (m *Machine) replayCTLoad(addr memp.Addr) {
	m.retire(1)
	m.C.CTLoads++
	m.BIA.LookupOrInstall(addr)
	hit, cyc := m.Hier.CTProbeLoad(m.cfg.BIALevel, addr)
	m.noteProbe(hit)
	if m.BIA.Latency() > cyc {
		cyc = m.BIA.Latency()
	}
	m.C.Cycles += uint64(cyc)
}

// replayCTStore re-executes a CTStore header.
func (m *Machine) replayCTStore(addr memp.Addr) {
	m.retire(1)
	m.C.CTStores++
	m.BIA.LookupOrInstall(addr)
	wrote, cyc := m.Hier.CTProbeStore(m.cfg.BIALevel, addr)
	m.noteProbe(wrote)
	if m.BIA.Latency() > cyc {
		cyc = m.BIA.Latency()
	}
	m.C.Cycles += uint64(cyc)
}

// replayMacroStoreHdr re-executes a MacroCTStore header: one retired
// macro-op, an internal CTLoad probe, then a CTStore probe.
func (m *Machine) replayMacroStoreHdr(addr memp.Addr) {
	m.retire(1)
	m.C.CTStores++
	m.BIA.LookupOrInstall(addr)
	hitLd, cycLd := m.Hier.CTProbeLoad(m.cfg.BIALevel, addr)
	m.noteProbe(hitLd)
	if m.BIA.Latency() > cycLd {
		cycLd = m.BIA.Latency()
	}
	m.C.Cycles += uint64(cycLd)
	m.BIA.LookupOrInstall(addr)
	wrote, cycSt := m.Hier.CTProbeStore(m.cfg.BIALevel, addr)
	m.noteProbe(wrote)
	if m.BIA.Latency() > cycSt {
		cycSt = m.BIA.Latency()
	}
	m.C.Cycles += uint64(cycSt)
}
