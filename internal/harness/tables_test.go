package harness

import (
	"os"
	"strings"
	"testing"
)

// quickTablesGolden holds every experiment's -quick table, rendered as
// ctbench prints them minus the per-experiment timing lines. A change
// to any simulated count shows up here as a byte difference; one that
// is meant to change results must regenerate the file (and bump
// SimVersionSalt) on purpose.
const quickTablesGolden = "testdata/quick_tables.golden"

// renderQuickTables runs every experiment at -quick scale and renders
// the tables in registration order, each followed by a blank line.
func renderQuickTables(t *testing.T, parallel int) string {
	t.Helper()
	var b strings.Builder
	for _, r := range RunAll(nil, Options{Quick: true, Parallel: parallel}) {
		if r.Failed() {
			t.Fatalf("%s failed: %v", r.Experiment.ID, Failures([]Result{r}))
		}
		b.WriteString(r.Table.Render())
		b.WriteString("\n")
	}
	return b.String()
}

// TestQuickTablesGolden pins the -quick tables byte for byte, serial
// and with two workers.
func TestQuickTablesGolden(t *testing.T) {
	want, err := os.ReadFile(quickTablesGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 2} {
		if got := renderQuickTables(t, parallel); got != string(want) {
			t.Errorf("Parallel=%d: tables differ from %s\ngot:\n%s", parallel, quickTablesGolden, got)
		}
	}
}

// TestGeoSweepTableByteIdentical runs the geometry sweep serially and
// with a worker per group: its rows are assembled geometry-major from
// per-group reports, so scheduling must never reorder or change them.
func TestGeoSweepTableByteIdentical(t *testing.T) {
	serial := runGeoSweep(Options{Quick: true, Parallel: 1})
	parallel := runGeoSweep(Options{Quick: true, Parallel: 8})
	if serial.Failed() || parallel.Failed() {
		t.Fatalf("geosweep failed: %v %v", serial.Failures, parallel.Failures)
	}
	if s, p := serial.Render(), parallel.Render(); s != p {
		t.Errorf("geosweep table differs between serial and parallel\nserial:\n%s\nparallel:\n%s", s, p)
	}
}
