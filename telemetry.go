package ctbia

import (
	"ctbia/internal/attacker"
	"ctbia/internal/harness"
	"ctbia/internal/memp"
)

// Telemetry counts attacker-visible accesses per cache set at one
// level — the instrumentation behind the paper's Fig. 10 security test.
type Telemetry struct {
	sc    *attacker.SetCounter
	level int
}

// NewTelemetry attaches a per-set access counter at the given cache
// level (1 = L1d, 2 = L2, 3 = LLC).
func (s *System) NewTelemetry(level int) *Telemetry {
	return &Telemetry{sc: attacker.NewSetCounter(s.m.Hier, level), level: level}
}

// Counts returns a copy of the per-set access counts.
func (t *Telemetry) Counts() []uint64 {
	src := t.sc.Counts()
	out := make([]uint64, len(src))
	copy(out, src)
	return out
}

// Reset zeroes the counters.
func (t *Telemetry) Reset() { t.sc.Reset() }

// SetOf maps an address to its set index at the telemetry's level.
func (s *System) SetOf(level int, addr uint64) int {
	return s.m.Hier.Level(level).SetOf(memp.Addr(addr))
}

// EqualCounts reports whether two count vectors are identical — the
// security pass criterion.
func EqualCounts(a, b []uint64) bool { return attacker.Equal(a, b) }

// Trace records the full attacker-visible cache event stream; equality
// of traces across secrets is this repository's strongest observational
// security check.
type Trace struct{ tr *attacker.Trace }

// NewTrace attaches a trace recorder (all levels).
func (s *System) NewTrace() *Trace {
	return &Trace{tr: attacker.NewTrace(s.m.Hier)}
}

// Key returns an opaque comparison key: two keys are equal exactly when
// the recorded event sequences are. It is binary, not readable text.
func (t *Trace) Key() string { return t.tr.Key() }

// Len returns the number of recorded events.
func (t *Trace) Len() int { return t.tr.Len() }

// PrimeProbe is the paper's Algorithm 1 attacker sharing this system's
// caches.
type PrimeProbe struct{ pp *attacker.PrimeProbe }

// NewPrimeProbe builds an attacker against the given cache level; its
// filler memory is carved from this system's address space (the shared-
// machine threat model).
func (s *System) NewPrimeProbe(level int) *PrimeProbe {
	return &PrimeProbe{pp: attacker.NewPrimeProbe(s.m.Hier, level, s.m.Alloc)}
}

// NewCrossCorePrimeProbe builds the other-core attacker of the paper's
// threat model: it shares only the LLC with the victim. Configure the
// system with Inclusive=true to give its evictions reach into the
// victim's private caches (real inclusive-LLC CPUs behave this way).
func (s *System) NewCrossCorePrimeProbe() *PrimeProbe {
	return &PrimeProbe{pp: attacker.NewCrossCorePrimeProbe(s.m.Hier, s.m.Alloc)}
}

// Prime fills every way of every set with attacker lines.
func (p *PrimeProbe) Prime() { p.pp.Prime() }

// Probe re-times every set and returns per-set cycles.
func (p *PrimeProbe) Probe() []int { return p.pp.Probe() }

// HotSets returns the sets whose probe was slower than the all-hit
// baseline — the victim's footprint.
func (p *PrimeProbe) HotSets(times []int) []int { return p.pp.HotSets(times) }

// Sets returns the number of sets at the attacked level.
func (p *PrimeProbe) Sets() int { return p.pp.Sets() }

// SetOfVictim maps a victim address to its set at the attacked level.
func (p *PrimeProbe) SetOfVictim(addr uint64) int {
	return p.pp.SetOfVictim(memp.Addr(addr))
}

// Experiment runs one of the registered paper/ablation experiments by
// id ("fig2", "fig7a", ..., "pinning") and returns the rendered table.
// Quick shrinks problem sizes. See cmd/ctbench for the list.
func Experiment(id string, quick bool) (string, error) {
	e, err := harness.ByID(id)
	if err != nil {
		return "", err
	}
	return e.Run(harness.Options{Quick: quick}).Render(), nil
}

// ExperimentIDs lists the registered experiment identifiers.
func ExperimentIDs() []string { return harness.IDs() }
