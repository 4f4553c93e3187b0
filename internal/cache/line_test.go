package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"ctbia/internal/memp"
)

// A way's address lives only in the dense tag array; the line record
// carries flags and the policy stamp. A Table 1 machine holds ~300k
// line records, so their size is most of a fresh machine's footprint.
func TestLineRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 16 {
		t.Errorf("unsafe.Sizeof(line{}) = %d, want 16", got)
	}
}

// introspect renders what Contents, DirtyLines and SnapshotLevel report
// for every level of h.
func introspect(h *Hierarchy) string {
	var b strings.Builder
	for lvl := 1; lvl <= h.Levels(); lvl++ {
		c := h.Level(lvl)
		fmt.Fprintf(&b, "L%d\n", lvl)
		for s := 0; s < c.Sets(); s++ {
			if got := c.Contents(s); len(got) > 0 {
				fmt.Fprintf(&b, " set %d: %v\n", s, got)
			}
		}
		fmt.Fprintf(&b, " dirty: %v\n", c.DirtyLines())
		for _, ln := range h.SnapshotLevel(lvl).Lines {
			fmt.Fprintf(&b, " snap %d %v %v %d\n", ln.Set, ln.Addr, ln.Dirty, ln.Stamp)
		}
	}
	return b.String()
}

// introspectWant is introspect's output for the stream in
// TestIntrospectionAfterEvictions, as produced when each line record
// still carried its own copy of the address.
const introspectWant = `L1
 set 0: [0x600 0x100]
 set 1: [0x340 0x440]
 set 2: [0x480 0x580]
 set 3: [0x4c0 0xc0]
 dirty: [0x600 0x100 0x440 0x480 0x4c0 0xc0]
 snap 0 0x600 true 82
 snap 0 0x100 true 80
 snap 1 0x340 false 72
 snap 1 0x440 true 73
 snap 2 0x480 true 76
 snap 2 0x580 false 77
 snap 3 0x4c0 true 81
 snap 3 0xc0 true 79
L2
 set 0: [0x0 0x200 0x400 0x600]
 set 1: [0x240 0x440 0x640 0x40]
 set 2: [0x680 0x480 0x280]
 set 3: [0x2c0 0xc0 0x6c0 0x4c0]
 set 4: [0x700 0x300 0x100]
 set 5: [0x540 0x340 0x140 0x740]
 set 6: [0x580 0x180 0x380]
 set 7: [0x1c0 0x3c0 0x5c0]
 dirty: [0x0 0x240 0x440 0x640 0x40 0x480 0x2c0 0xc0 0x6c0 0x4c0 0x700 0x300 0x100 0x540 0x340 0x140 0x580 0x180 0x3c0 0x5c0]
 snap 0 0x0 true 64
 snap 0 0x200 false 68
 snap 0 0x400 false 82
 snap 0 0x600 false 86
 snap 1 0x240 true 57
 snap 1 0x440 true 76
 snap 1 0x640 true 48
 snap 1 0x40 true 69
 snap 2 0x680 false 74
 snap 2 0x480 true 79
 snap 2 0x280 false 84
 snap 3 0x2c0 true 24
 snap 3 0xc0 true 67
 snap 3 0x6c0 true 50
 snap 3 0x4c0 true 85
 snap 4 0x700 true 10
 snap 4 0x300 true 78
 snap 4 0x100 true 83
 snap 5 0x540 true 65
 snap 5 0x340 true 75
 snap 5 0x140 true 62
 snap 5 0x740 false 60
 snap 6 0x580 true 81
 snap 6 0x180 true 80
 snap 6 0x380 false 77
 snap 7 0x1c0 false 40
 snap 7 0x3c0 true 44
 snap 7 0x5c0 true 49
`

// Contents, DirtyLines and SnapshotLevel read each way's address from
// the tag array. Pin what they report after a stream that fills,
// evicts (clean and dirty), flushes and, the hierarchy being
// inclusive, back-invalidates inner copies.
func TestIntrospectionAfterEvictions(t *testing.T) {
	h := tinyInclusive()
	rng := rand.New(rand.NewSource(15))
	for step := 0; step < 120; step++ {
		a := memp.Addr(uint64(rng.Intn(32)) << memp.LineShift)
		switch rng.Intn(6) {
		case 0, 1:
			h.Access(a, FlagWrite)
		case 2:
			h.Flush(a)
		case 3:
			h.AccessFrom(2, a, 0)
		default:
			h.Access(a, 0)
		}
	}
	l1, l2 := h.Level(1).Stats, h.Level(2).Stats
	if l1.Invalidates == 0 || l2.Evictions == 0 || l2.Writebacks == 0 {
		t.Fatalf("stream too tame: L1 invalidates %d, L2 evictions %d, L2 writebacks %d",
			l1.Invalidates, l2.Evictions, l2.Writebacks)
	}
	if got := introspect(h); got != introspectWant {
		t.Errorf("introspection changed:\n%s\nwant:\n%s", got, introspectWant)
	}
}
