package faultinject

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"",
		"   ",
		"made.up.point",
		"trace.replay",    // a retired point name
		"cache.read@0",    // 1-based hit counts
		"cache.read@x",    // non-numeric
		"seed=notanumber", // bad seed
		"seed=1",          // seed alone is not a fault plan
		"worker.panic@1;bogus",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
}

func TestParseAcceptsGrammar(t *testing.T) {
	inj, err := Parse("seed=9; worker.panic@1:fig7a, cache.corrupt@2 ; cache.write")
	if err != nil {
		t.Fatal(err)
	}
	if inj.seed != 9 || len(inj.rules) != 3 {
		t.Fatalf("seed=%d rules=%d, want 9/3", inj.seed, len(inj.rules))
	}
	r := inj.rules[0]
	if r.point != "worker.panic" || r.nth != 1 || r.match != "fig7a" {
		t.Fatalf("rule 0 = %+v", r)
	}
}

func TestDisarmedIsInert(t *testing.T) {
	Disarm()
	if Armed() || Should("worker.panic", "anything") {
		t.Fatal("disarmed injector fired")
	}
	buf := []byte("unchanged")
	if got := Corrupt("cache.corrupt", "k", buf); !bytes.Equal(got, []byte("unchanged")) {
		t.Fatal("disarmed Corrupt mutated the buffer")
	}
}

func TestNthHitCounting(t *testing.T) {
	inj, err := Parse("cache.read@3")
	if err != nil {
		t.Fatal(err)
	}
	Arm(inj)
	defer Disarm()
	fired := []bool{}
	for i := 0; i < 5; i++ {
		fired = append(fired, Should("cache.read", "k"))
	}
	want := []bool{false, false, true, false, false}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("hit %d fired=%v want %v (all: %v)", i+1, fired[i], want[i], fired)
		}
	}
}

func TestMatchFiltersKeys(t *testing.T) {
	inj, err := Parse("worker.panic:fig7a")
	if err != nil {
		t.Fatal(err)
	}
	Arm(inj)
	defer Disarm()
	if Should("worker.panic", "fig2") {
		t.Fatal("fired on non-matching key")
	}
	if !Should("worker.panic", "fig7a") {
		t.Fatal("did not fire on matching key")
	}
	if Should("cache.read", "fig7a") {
		t.Fatal("fired on non-matching point")
	}
}

func TestCheckPanicsWithTypedFault(t *testing.T) {
	inj, _ := Parse("worker.panic@1")
	Arm(inj)
	defer Disarm()
	defer func() {
		f, ok := recover().(*Fault)
		if !ok {
			t.Fatalf("recovered %T, want *Fault", f)
		}
		if f.Point != "worker.panic" || f.Key != "exp" || f.Transient {
			t.Fatalf("fault = %+v", f)
		}
		if !strings.Contains(f.Error(), "permanent") {
			t.Fatalf("Error() = %q", f.Error())
		}
	}()
	Check("worker.panic", "exp", false)
	t.Fatal("Check did not panic")
}

func TestCorruptIsDeterministic(t *testing.T) {
	orig := bytes.Repeat([]byte{0xab}, 256)
	run := func() []byte {
		inj, _ := Parse("seed=42;cache.corrupt@1")
		Arm(inj)
		defer Disarm()
		buf := append([]byte(nil), orig...)
		return Corrupt("cache.corrupt", "some/key", buf)
	}
	a, b := run(), run()
	if bytes.Equal(a, orig) {
		t.Fatal("Corrupt left the buffer untouched")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("Corrupt is not deterministic across identical plans")
	}
	// A different seed corrupts differently (with 256 bytes a collision
	// across all flipped offsets is vanishingly unlikely).
	inj, _ := Parse("seed=43;cache.corrupt@1")
	Arm(inj)
	defer Disarm()
	c := Corrupt("cache.corrupt", "some/key", append([]byte(nil), orig...))
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical corruption")
	}
}
