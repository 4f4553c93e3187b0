package main

import (
	"fmt"
	"math/rand"

	"ctbia/internal/attacker"
	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/harness"
	"ctbia/internal/obs"
	"ctbia/internal/workloads"
)

// auditConfig is one audited configuration: a strategy and the cache
// level hosting the BIA (0 = none).
type auditConfig struct {
	name     string
	s        ct.Strategy
	biaLevel int
}

var auditConfigs = []auditConfig{
	{"insecure", ct.Direct{}, 0},
	{"bia@1", ct.BIA{}, 1},
	{"bia@2", ct.BIA{}, 2},
	{"ct", ct.Linear{}, 0},
	{"ct-avx", ct.LinearVec{}, 0},
}

// auditOps caps the protected operations per run, as ctsec does.
const auditOps = 8

// auditInputs draws the secrets from the seed: distinct input seeds, the
// same for every workload and configuration.
func auditInputs(seed int64, sc scale) (secrets []int64, size, dijkstraSize int) {
	n, size, dijkstraSize := 6, 1000, 64
	if sc.quick {
		n, size, dijkstraSize = 3, 200, 16
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int64]bool)
	for len(secrets) < n {
		s := rng.Int63n(1 << 30)
		if !seen[s] {
			seen[s] = true
			secrets = append(secrets, s)
		}
	}
	return secrets, size, dijkstraSize
}

// auditJob is a ctsec-shaped security audit: every workload under every
// configuration with every secret, each point on a fresh Table 1
// machine with an attacker trace listening to every cache level. A
// protected configuration passes when its attacker trace is the same
// for every secret.
type auditJob struct {
	secrets      []int64
	size, dijkSz int

	errs   []string
	sum    cpu.Report
	events int
	points int
}

func newAudit(seed int64, sc scale) (job, error) {
	secrets, size, dijkSz := auditInputs(seed, sc)
	return &auditJob{secrets: secrets, size: size, dijkSz: dijkSz}, nil
}

func (j *auditJob) run(rec *recorder) (attempted, failed int) {
	for _, w := range workloads.All() {
		size := j.size
		if w.Name() == "dijkstra" {
			size = j.dijkSz
		}
		for _, c := range auditConfigs {
			var base string
			differs := false
			for i, secret := range j.secrets {
				p := workloads.Params{Size: size, Seed: secret, Ops: auditOps}
				var key string
				err := safely(func() { key = j.point(rec, w, c, p) })
				attempted++
				if err != nil {
					failed++
					j.errs = append(j.errs, fmt.Sprintf("audit: %s/%s secret %d failed: %v", w.Name(), c.name, secret, err))
					continue
				}
				if i == 0 {
					base = key
				} else if key != base {
					differs = true
				}
			}
			insecure := c.name == "insecure"
			if insecure && !differs {
				j.errs = append(j.errs, fmt.Sprintf("audit: %s/insecure traces do not differ across %d secrets", w.Name(), len(j.secrets)))
			}
			if !insecure && differs {
				j.errs = append(j.errs, fmt.Sprintf("audit: %s/%s LEAKS: attacker traces differ across secrets", w.Name(), c.name))
			}
		}
	}
	return attempted, failed
}

// point runs one audit point and returns its attacker trace.
func (j *auditJob) point(rec *recorder, w workloads.Workload, c auditConfig, p workloads.Params) string {
	sp := rec.begin("bench.point")
	defer rec.end(sp)

	s := rec.begin("cpu.build")
	m := harness.MachineFor(c.biaLevel)
	rec.end(s)

	s = rec.begin("attacker.subscribe")
	tr := attacker.NewTrace(m.Hier)
	rec.end(s)

	s = rec.begin("workloads.run")
	got := w.Run(m, c.s, p)
	rec.end(s)

	s = rec.begin("workloads.reference")
	want := w.Reference(p)
	rec.end(s)
	if got != want {
		j.errs = append(j.errs, fmt.Sprintf("audit: %s/%s seed %d checksum %#x, reference %#x", w.Name(), c.name, p.Seed, got, want))
	}

	s = rec.begin("attacker.key")
	key := tr.Key()
	rec.end(s)

	j.sum = addReports(j.sum, m.Report())
	j.events += tr.Len()
	j.points++
	if obs.Enabled() {
		m.EmitMetrics(obs.Add)
	}
	return key
}

func (j *auditJob) check() []string { return j.errs }

func (j *auditJob) layers(rec *recorder, add func(string, float64)) {
	pointLayers(rec.durations("bench.point"), add)
	reportLayers(j.sum, add)
	add("workloads.run_ms", meanMS(rec.durations("workloads.run")))
	add("workloads.reference_ms", meanMS(rec.durations("workloads.reference")))
	add("attacker.key_ms", meanMS(rec.durations("attacker.key")))
	add("attacker.events_per_point", ratio(j.events, j.points))
}

func (j *auditJob) close() {}
