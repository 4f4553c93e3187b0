package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The journal's durability contract, exercised by simulated crashes:
// every Record is on disk when it returns, so a run that dies without
// Flush/Close loses nothing it committed, and a resume never sees a
// committed row twice.

func okEntry(i int) (string, ManifestEntry) {
	id := fmt.Sprintf("exp-%d", i)
	return id, ManifestEntry{Status: "ok", Key: "key-" + id, WallMS: 1}
}

// mustLoad reloads the journal at path the way a -resume does and
// fails the test unless it is present and current.
func mustLoad(t *testing.T, path string) *Manifest {
	t.Helper()
	got, stale, err := LoadManifest(path, true)
	if err != nil || stale {
		t.Fatalf("reload: stale=%v err=%v", stale, err)
	}
	return got
}

// writeLegacyWAL leaves a manifest.json.wal as an older binary would
// after a crash: one complete line and a torn tail.
func writeLegacyWAL(t *testing.T, path string) string {
	t.Helper()
	wal := path + legacyWALSuffix
	body := `{"id":"exp-wal","e":{"status":"ok","key":"key-exp-wal"}}` + "\n" + `{"id":"exp-torn","e":{"status":"ok`
	if err := os.WriteFile(wal, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return wal
}

// A crash at any point loses nothing: after every Record, with no
// Flush or Close, a reload finds every outcome recorded so far.
func TestManifestCrashLosesAtMostOneBatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	m := NewManifest(path, true)
	const total = 10
	for i := 0; i < total; i++ {
		m.Record(okEntry(i))
		// Crash here — no Flush, no Close.
		got := mustLoad(t, path)
		if okN, failedN := got.Summary(); okN != i+1 || failedN != 0 {
			t.Fatalf("after record %d: reload found %d ok / %d failed, want %d/0", i, okN, failedN, i+1)
		}
	}
	got := mustLoad(t, path)
	for i := 0; i < total; i++ {
		id, e := okEntry(i)
		if !got.Done(id, e.Key) {
			t.Errorf("committed entry %s missing after crash", id)
		}
	}
}

// A journal abandoned mid-sweep (a simulated SIGKILL: concurrent
// recorders, then no Flush or Close) reloads with every outcome.
func TestManifestCrashLosesNothingCommitted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	m := NewManifest(path, true)
	const workers, per = 4, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Record(okEntry(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	// Abandon m here: nothing else reaches the disk.
	got := mustLoad(t, path)
	if okN, failedN := got.Summary(); okN != workers*per || failedN != 0 {
		t.Fatalf("reload found %d ok / %d failed, want %d/0", okN, failedN, workers*per)
	}
	for i := 0; i < workers*per; i++ {
		id, e := okEntry(i)
		if !got.Done(id, e.Key) {
			t.Errorf("entry %s lost", id)
		}
	}
}

// A manifest.json.wal left by an older binary — complete lines and a
// torn tail alike — is ignored on load (its outcomes simply re-run)
// and removed by the first snapshot.
func TestManifestTornWALTailDropped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	NewManifest(path, true).Record(okEntry(0))
	wal := writeLegacyWAL(t, path)

	got := mustLoad(t, path)
	if okN, _ := got.Summary(); okN != 1 {
		t.Fatalf("reload found %d entries, want only the snapshot's 1", okN)
	}
	for _, id := range []string{"exp-wal", "exp-torn"} {
		if _, ok := got.Entry(id); ok {
			t.Errorf("legacy WAL line %s surfaced as an entry", id)
		}
	}
	if _, err := os.Stat(wal); err != nil {
		t.Fatalf("loading must not touch the legacy WAL: %v", err)
	}
	got.Record(okEntry(1))
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Errorf("legacy WAL survived a snapshot (stat err %v)", err)
	}
	if okN, _ := mustLoad(t, path).Summary(); okN != 2 {
		t.Errorf("reload after resume found %d entries, want 2", okN)
	}
}

// A failed outcome is committed like any other: everything recorded
// up to and including the failure survives a crash right after it.
func TestManifestTerminalOutcomeCommitsImmediately(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	m := NewManifest(path, true)
	for i := 0; i < 5; i++ {
		m.Record(okEntry(i))
	}
	m.Record("exp-bad", ManifestEntry{Status: "failed", Key: "kb", Error: "boom"})
	// Crash immediately after the failure.
	okN, failedN := mustLoad(t, path).Summary()
	if okN != 5 || failedN != 1 {
		t.Fatalf("reload found %d/%d entries, want 5 ok + 1 failed", okN, failedN)
	}
	// The snapshot is the whole journal: no side file to replay.
	if _, err := os.Stat(path + legacyWALSuffix); !os.IsNotExist(err) {
		t.Errorf("WAL file exists next to the snapshot (stat err %v)", err)
	}
}

// A lone outcome is on disk the moment Record returns: there is no
// deadline timer to wait for, and every record is its own commit.
func TestManifestDeadlineFlush(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	m := NewManifest(path, true)
	m.Record(okEntry(0))
	if okN, _ := mustLoad(t, path).Summary(); okN != 1 {
		t.Fatalf("record not durable on return: %d entries on disk", okN)
	}
	metrics := map[string]uint64{}
	m.EmitMetrics(func(name string, v uint64) { metrics[name] = v })
	if metrics["manifest.records"] != 1 || metrics["manifest.commits"] != 1 {
		t.Errorf("records/commits = %d/%d, want 1/1", metrics["manifest.records"], metrics["manifest.commits"])
	}
}

// Entry size does not matter either: an entry past the old 64 KiB
// byte threshold commits on return and reloads intact.
func TestManifestByteThreshold(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	m := NewManifest(path, true)
	big := strings.Repeat("x", 80<<10)
	m.Record("exp-big", ManifestEntry{Status: "ok", Key: big, WallMS: 1})
	got := mustLoad(t, path)
	if !got.Done("exp-big", big) {
		t.Fatal("large entry not durable on return")
	}
	m.Record(okEntry(0))
	if okN, _ := mustLoad(t, path).Summary(); okN != 2 {
		t.Fatalf("%d entries on disk after a small record, want 2", okN)
	}
}

// Re-recording an id across a crash/resume boundary must not
// duplicate it: the journal is keyed by id, last record wins, and
// Close leaves one snapshot row.
func TestManifestResumeNeverDuplicates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	m := NewManifest(path, true)
	id, e := okEntry(0)
	m.Record(id, e)
	m.Record(id, ManifestEntry{Status: "ok", Key: e.Key, WallMS: 2}) // same id again

	got := mustLoad(t, path)
	if okN, failedN := got.Summary(); okN != 1 || failedN != 0 {
		t.Fatalf("duplicate rows after reload: %d ok / %d failed, want 1/0", okN, failedN)
	}
	ent, ok := got.Entry(id)
	if !ok || ent.WallMS != 2 {
		t.Fatalf("reload not last-wins: %+v", ent)
	}

	// The resumed journal records the id once more and closes; a fresh
	// load still sees exactly one row.
	got.Record(id, ManifestEntry{Status: "ok", Key: e.Key, WallMS: 3})
	got.Close()
	final := mustLoad(t, path)
	if okN, _ := final.Summary(); okN != 1 {
		t.Fatalf("%d rows after resume+Close, want 1", okN)
	}
	if ent, _ := final.Entry(id); ent.WallMS != 3 {
		t.Fatalf("final row not the latest record: %+v", ent)
	}
	// Close leaves no WAL behind: the snapshot alone is the journal.
	if _, err := os.Stat(path + legacyWALSuffix); !os.IsNotExist(err) {
		t.Errorf("WAL survived Close (stat err %v)", err)
	}
}

// A stale snapshot (salt or quick mismatch) comes back empty, a
// leftover legacy WAL cannot resurrect old-lineage entries, and the
// fresh lineage's first snapshot removes it.
func TestManifestStaleSnapshotIgnoresWAL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	NewManifest(path, true).Record(okEntry(0))
	wal := writeLegacyWAL(t, path)
	// Load under the other quick setting: stale, empty.
	got, stale, err := LoadManifest(path, false)
	if err != nil || !stale {
		t.Fatalf("want stale reload, got stale=%v err=%v", stale, err)
	}
	if okN, failedN := got.Summary(); okN != 0 || failedN != 0 {
		t.Fatalf("stale reload carried %d/%d entries", okN, failedN)
	}
	got.Close()
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Errorf("legacy WAL survived the fresh lineage's snapshot (stat err %v)", err)
	}
}

// A journal that cannot be written (its directory is missing) never
// panics, and every failed commit is counted for the CLI to report.
func TestManifestWriteFailuresCounted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-such-dir", ManifestName)
	m := NewManifest(path, true)
	for i := 0; i < 3; i++ {
		m.Record(okEntry(i))
	}
	if n := m.WriteFailures(); n != 3 {
		t.Errorf("WriteFailures = %d, want 3", n)
	}
	metrics := map[string]uint64{}
	m.EmitMetrics(func(name string, v uint64) { metrics[name] = v })
	if metrics["manifest.write_failures"] != 3 || metrics["manifest.commits"] != 0 {
		t.Errorf("write_failures/commits = %d/%d, want 3/0",
			metrics["manifest.write_failures"], metrics["manifest.commits"])
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("journal appeared under a missing directory (stat err %v)", err)
	}
}
