package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestInputsFollowSeed(t *testing.T) {
	for _, sc := range []scale{paperScale, {quick: true}} {
		g1, p1 := geometryInputs(1, sc)
		g1b, p1b := geometryInputs(1, sc)
		g2, p2 := geometryInputs(2, sc)
		if !reflect.DeepEqual(g1, g1b) || !reflect.DeepEqual(p1, p1b) {
			t.Errorf("%+v: geometry inputs differ for the same seed", sc)
		}
		if reflect.DeepEqual(g1, g2) && reflect.DeepEqual(p1, p2) {
			t.Errorf("%+v: geometry inputs equal for seeds 1 and 2", sc)
		}
		a1, _, _ := auditInputs(1, sc)
		a1b, _, _ := auditInputs(1, sc)
		a2, _, _ := auditInputs(2, sc)
		if !reflect.DeepEqual(a1, a1b) {
			t.Errorf("%+v: audit secrets differ for the same seed", sc)
		}
		if reflect.DeepEqual(a1, a2) {
			t.Errorf("%+v: audit secrets equal for seeds 1 and 2", sc)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		ok     bool
		beyond int
	}{
		{100, 90, true, 10},
		{99, 90, false, 9},
		{100, 99, false, 1},
		{1000, 99, true, 10},
		{20, 50, true, 10},
		{19, 50, false, 9},
		{0, 50, false, 0},
	} {
		ok, beyond := percentileAllowed(c.n, c.pct)
		if ok != c.ok || beyond != c.beyond {
			t.Errorf("percentileAllowed(%d, %g) = %v, %d; want %v, %d", c.n, c.pct, ok, beyond, c.ok, c.beyond)
		}
	}
	for n, want := range map[int]float64{5: 0, 20: 50, 150: 90, 999: 90, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{name: "harness.point", start: ms(1), end: ms(11), parent: -1},
		{name: "cpu.build", start: ms(2), end: ms(4), parent: 0},
		{name: "workloads.run", start: ms(3), end: ms(7), parent: 0}, // overlaps cpu.build
		{name: "cpu.build", start: ms(5), end: ms(6), parent: 2},
		{name: "harness.point", start: ms(20), end: ms(30), parent: -1}, // outside the window
	}
	self, unattributed := selfTimes(spans, 0, ms(12))
	want := map[string]time.Duration{
		"harness":   ms(10 - 5), // children cover [2,7)
		"cpu":       ms(2 + 1),
		"workloads": ms(4 - 1),
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if unattributed != ms(2) {
		t.Errorf("unattributed %v, want 2ms", unattributed)
	}

	// The recorder nests spans by call order, and end closes any span a
	// panic left open inside the one being ended.
	r := newRecorder()
	outer := r.begin("bench.point")
	r.begin("workloads.run")
	inner := r.begin("cpu.build")
	r.end(inner)
	r.end(outer)
	if got := []int{r.spans[0].parent, r.spans[1].parent, r.spans[2].parent}; !reflect.DeepEqual(got, []int{-1, 0, 1}) {
		t.Errorf("parents %v, want [-1 0 1]", got)
	}
	if len(r.open) != 0 || r.spans[1].end == 0 {
		t.Errorf("span left open: open=%v spans=%+v", r.open, r.spans)
	}
}

// TestQuickSmoke runs each workload at quick scale on a seed other than
// the one the pinned digests use, with every gate, and checks the traced
// run reports exactly the per-layer metrics BENCHMARK.json lists.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("TMPDIR", t.TempDir())
	listed := benchmarkLayerNames(t)
	for _, name := range []string{"paper", "geometry", "audit"} {
		j, err := jobs[name](2, scale{quick: true})
		if err != nil {
			t.Fatalf("%s: set-up: %v", name, err)
		}
		res := measure(j, true, 0)
		j.close()
		if len(res.Errors) > 0 || res.Failed > 0 || res.Attempted == 0 {
			t.Errorf("%s: %d/%d ops failed, gates: %v", name, res.Failed, res.Attempted, res.Errors)
		}
		var got []string
		for k, m := range res.Layers {
			got = append(got, k)
			if m.Unit != listed[k] {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", name, k, m.Unit, listed[k])
			}
		}
		sort.Strings(got)
		want := make([]string, 0, len(listed))
		for k := range listed {
			want = append(want, k)
		}
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json lists %v", name, got, want)
		}
	}
}

// TestGeometryDigestPinned checks the geometry digest gate on the seed
// it pins.
func TestGeometryDigestPinned(t *testing.T) {
	j, _ := newGeometry(digestSeed, scale{quick: true})
	j.run(nil)
	if errs := j.check(); len(errs) > 0 {
		t.Errorf("gates: %v", errs)
	}
	g := j.(*geometryJob)
	g.reports[0][0][0].Cycles++
	if len(g.check()) == 0 {
		t.Error("a changed report passed the digest gate")
	}
}

// benchmarkLayerNames reads the per-layer metric names and units from
// the repository's BENCHMARK.json.
func benchmarkLayerNames(t *testing.T) map[string]string {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, m := range spec.PerLayer {
		out[m.Name] = m.Unit
	}
	return out
}
