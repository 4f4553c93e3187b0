package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ManifestName is the journal file RunAll maintains next to the result
// cache: one entry per completed (or failed) experiment, so an
// interrupted or partially failed sweep can be resumed with
// `ctbench -resume` instead of re-run from scratch.
const ManifestName = "manifest.json"

// legacyWALSuffix names the append-only journal tail older binaries
// kept next to the snapshot (manifest.json.wal). The journal no longer
// reads it; every snapshot deletes it.
const legacyWALSuffix = ".wal"

// ManifestEntry is one experiment's journaled outcome.
type ManifestEntry struct {
	// Status is "ok" or "failed".
	Status string `json:"status"`
	// Key is the result-cache key the experiment ran under; a resume
	// only trusts entries whose key still matches (a salt bump or a
	// -quick flip changes the key and invalidates the entry).
	Key string `json:"key"`
	// Error holds the first line of the failure for failed entries.
	Error string `json:"error,omitempty"`
	// WallMS is the experiment's wall time.
	WallMS float64 `json:"wall_ms"`
	// Completed is the RFC3339 completion time.
	Completed string `json:"completed"`
	// Metrics is the observability delta attributed to this experiment
	// (present only when the layer was armed for the run).
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

// manifestData is the snapshot's on-disk layout.
type manifestData struct {
	Salt    string                   `json:"salt"`
	Quick   bool                     `json:"quick"`
	Updated string                   `json:"updated"`
	Entries map[string]ManifestEntry `json:"entries"`
	// Provenance stamps the run that produced (or last touched) the
	// journal. Absent in journals from older binaries — not part of
	// staleness (the salt already gates simulator compatibility).
	Provenance *Provenance `json:"provenance,omitempty"`
}

// Manifest journals per-experiment completion for checkpoint-resume.
// It is write-through: every Record rewrites the full snapshot via
// temp file + rename before returning, so a process crash (even a
// SIGKILL between two records) loses nothing committed and a reader
// never sees a torn file. The file is not fsynced: an OS crash may
// lose the latest records, which costs only their re-run on -resume.
// A sweep records one entry per experiment, so the O(n) rewrite per
// record stays a few milliseconds per sweep. Safe for concurrent use
// by RunAll's workers.
type Manifest struct {
	mu   sync.Mutex
	path string
	data manifestData

	// Commit accounting (read via EmitMetrics/WriteFailures).
	records       uint64
	commits       uint64
	bytesJournal  uint64
	writeFailures uint64
}

// NewManifest starts an empty journal at path (previous contents, if
// any, are superseded on the first commit).
func NewManifest(path string, quick bool) *Manifest {
	return &Manifest{
		path: path,
		data: manifestData{
			Salt:    SimVersionSalt,
			Quick:   quick,
			Entries: make(map[string]ManifestEntry),
		},
	}
}

// LoadManifest reads an existing journal for a -resume run. A missing
// snapshot is an error (there is nothing to resume); a journal written
// under a different simulator salt or Quick setting is stale —
// resuming from it would mix incompatible results — so it comes back
// empty with stale=true and the caller decides whether to warn. A
// manifest.json.wal left by an older binary is ignored: its outcomes
// re-run, as cache hits.
func LoadManifest(path string, quick bool) (m *Manifest, stale bool, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("harness: no manifest to resume from: %w", err)
	}
	var data manifestData
	if err := json.Unmarshal(buf, &data); err != nil {
		// A torn or corrupted journal must not kill the resume — it
		// just cannot skip anything.
		return NewManifest(path, quick), true, nil
	}
	if data.Salt != SimVersionSalt || data.Quick != quick || data.Entries == nil {
		return NewManifest(path, quick), true, nil
	}
	m = NewManifest(path, quick)
	m.data = data
	return m, false, nil
}

// SetProvenance stamps the journal with the producing run's provenance
// (committed with the next snapshot).
func (m *Manifest) SetProvenance(p Provenance) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.data.Provenance = &p
	m.mu.Unlock()
}

// Record journals one experiment outcome and commits it before
// returning.
func (m *Manifest) Record(id string, e ManifestEntry) {
	if m == nil {
		return
	}
	e.Completed = time.Now().UTC().Format(time.RFC3339)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records++
	m.data.Entries[id] = e
	m.snapshotLocked()
}

// snapshotLocked rewrites the full snapshot via temp file + rename so
// a reader (or a crash) never sees a torn file, and deletes any
// legacy WAL. Best-effort: a failed write costs resumability, never
// results, and is counted in manifest.write_failures.
func (m *Manifest) snapshotLocked() {
	m.data.Updated = time.Now().UTC().Format(time.RFC3339)
	buf, err := json.MarshalIndent(&m.data, "", " ")
	if err != nil {
		m.writeFailures++
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(m.path), "tmp-manifest-*")
	if err != nil {
		m.writeFailures++
		return
	}
	_, werr := tmp.Write(append(buf, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), m.path) != nil {
		os.Remove(tmp.Name())
		m.writeFailures++
		return
	}
	m.commits++
	m.bytesJournal += uint64(len(buf)) + 1
	os.Remove(m.path + legacyWALSuffix)
}

// Flush is a no-op: every Record is already durable when it returns.
func (m *Manifest) Flush() {}

// Close writes one final snapshot, so a run that recorded nothing
// still stamps its provenance on disk. The journal stays usable
// afterwards.
func (m *Manifest) Close() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.snapshotLocked()
	m.mu.Unlock()
}

// Entry returns the journaled outcome for one experiment.
func (m *Manifest) Entry(id string) (ManifestEntry, bool) {
	if m == nil {
		return ManifestEntry{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.data.Entries[id]
	return e, ok
}

// Done reports whether id completed successfully under the given cache
// key — the test a -resume run uses to decide what to skip.
func (m *Manifest) Done(id, key string) bool {
	e, ok := m.Entry(id)
	return ok && e.Status == "ok" && e.Key == key
}

// Summary counts journaled outcomes.
func (m *Manifest) Summary() (ok, failed int) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.data.Entries {
		if e.Status == "ok" {
			ok++
		} else {
			failed++
		}
	}
	return ok, failed
}

// WriteFailures returns how many snapshot commits failed (an
// unwritable or full journal directory): each one is an outcome a
// -resume may not find.
func (m *Manifest) WriteFailures() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writeFailures
}

// EmitMetrics enumerates the journal's commit accounting as flat
// dotted names — the pull-side hook a CLI registers as an
// observability Source. Safe on a nil manifest.
func (m *Manifest) EmitMetrics(emit func(name string, v uint64)) {
	if m == nil {
		return
	}
	m.mu.Lock()
	records, commits, bytes, failures := m.records, m.commits, m.bytesJournal, m.writeFailures
	m.mu.Unlock()
	emit("manifest.records", records)
	emit("manifest.commits", commits)
	emit("manifest.bytes_written", bytes)
	emit("manifest.write_failures", failures)
}
