package iplookup

import (
	"testing"
	"testing/quick"

	"pktpredict/internal/click"
	"pktpredict/internal/mem"
	"pktpredict/internal/rng"
)

func newTrie() *RadixTrie { return New(mem.NewArena(0), nil) }

func TestLookupEmptyTrie(t *testing.T) {
	tr := newTrie()
	if got := tr.LookupPlain(0x01020304); got != NoRoute {
		t.Fatalf("empty trie returned route %d", got)
	}
}

func TestDefaultRoute(t *testing.T) {
	tr := newTrie()
	tr.Insert(0, 0, 99)
	for _, dst := range []uint32{0, 1, 0xffffffff, 0x0a000001} {
		if got := tr.LookupPlain(dst); got != 99 {
			t.Fatalf("Lookup(%#x) = %d, want default 99", dst, got)
		}
	}
}

func TestLongestPrefixWins(t *testing.T) {
	tr := newTrie()
	tr.Insert(0x0a000000, 8, 1)  // 10/8
	tr.Insert(0x0a010000, 16, 2) // 10.1/16
	tr.Insert(0x0a010200, 24, 3) // 10.1.2/24
	cases := []struct {
		dst  uint32
		want uint32
	}{
		{0x0a000001, 1}, // 10.0.0.1 → /8
		{0x0a010001, 2}, // 10.1.0.1 → /16
		{0x0a010201, 3}, // 10.1.2.1 → /24
		{0x0b000001, NoRoute},
	}
	for _, c := range cases {
		if got := tr.LookupPlain(c.dst); got != c.want {
			t.Fatalf("Lookup(%#x) = %d, want %d", c.dst, got, c.want)
		}
	}
}

func TestNonAlignedPrefixExpansion(t *testing.T) {
	tr := newTrie()
	tr.Insert(0xC0000000, 3, 7) // 110.../3 does not align to 4-bit levels
	if got := tr.LookupPlain(0xC0ffffff); got != 7 {
		t.Fatalf("inside /3 = %d, want 7", got)
	}
	if got := tr.LookupPlain(0xE0000000); got != NoRoute {
		t.Fatalf("outside /3 = %d, want NoRoute", got)
	}
	if got := tr.LookupPlain(0xBfffffff); got != NoRoute {
		t.Fatalf("below /3 = %d, want NoRoute", got)
	}
}

func TestHostRoute(t *testing.T) {
	tr := newTrie()
	tr.Insert(0x01020304, 32, 5)
	if got := tr.LookupPlain(0x01020304); got != 5 {
		t.Fatalf("host route = %d, want 5", got)
	}
	if got := tr.LookupPlain(0x01020305); got != NoRoute {
		t.Fatalf("adjacent host = %d, want NoRoute", got)
	}
}

func TestOverwriteRoute(t *testing.T) {
	tr := newTrie()
	tr.Insert(0x0a000000, 8, 1)
	tr.Insert(0x0a000000, 8, 2)
	if got := tr.LookupPlain(0x0a000001); got != 2 {
		t.Fatalf("route = %d, want overwritten value 2", got)
	}
}

func TestInsertValidation(t *testing.T) {
	tr := newTrie()
	for _, f := range []func(){
		func() { tr.Insert(0, -1, 1) },
		func() { tr.Insert(0, 33, 1) },
		func() { tr.Insert(0, 8, NoRoute) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestBadStridesPanic(t *testing.T) {
	for _, strides := range [][]int{{8, 8}, {40}, {0, 32}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("strides %v should panic", strides)
				}
			}()
			New(mem.NewArena(0), strides)
		}()
	}
}

// linearLPM is the reference implementation: scan all prefixes, keep the
// longest that covers dst.
type route struct {
	prefix uint32
	plen   int
	nh     uint32
}

func linearLPM(routes []route, dst uint32) uint32 {
	best, bestLen := NoRoute, -1
	for _, r := range routes {
		if dst&maskOf(r.plen) == r.prefix&maskOf(r.plen) && r.plen > bestLen {
			best, bestLen = r.nh, r.plen
		}
	}
	return best
}

// Property: the trie agrees with the linear scan on random tables and
// random lookups, for arbitrary prefix lengths including non-aligned ones.
func TestTrieMatchesLinearQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		tr := newTrie()
		var routes []route
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			rt := route{prefix: r.Uint32(), plen: r.Intn(33), nh: uint32(i + 1)}
			rt.prefix &= maskOf(rt.plen)
			// Later inserts overwrite: mirror that in the reference by
			// removing earlier identical prefixes.
			for j := 0; j < len(routes); j++ {
				if routes[j].plen == rt.plen && routes[j].prefix == rt.prefix {
					routes = append(routes[:j], routes[j+1:]...)
					j--
				}
			}
			routes = append(routes, rt)
			tr.Insert(rt.prefix, rt.plen, rt.nh)
		}
		for i := 0; i < 200; i++ {
			dst := r.Uint32()
			if tr.LookupPlain(dst) != linearLPM(routes, dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTableProperties(t *testing.T) {
	tr := newTrie()
	RandomTable(tr, 5000, 7)
	if tr.Routes() != 5001 { // 5000 + default
		t.Fatalf("routes = %d", tr.Routes())
	}
	// Every lookup resolves (default route).
	r := rng.New(99)
	for i := 0; i < 1000; i++ {
		if tr.LookupPlain(r.Uint32()) == NoRoute {
			t.Fatal("lookup failed despite default route")
		}
	}
	if tr.SimBytes() == 0 || tr.Nodes() < 100 {
		t.Fatalf("table suspiciously small: %d nodes, %d bytes", tr.Nodes(), tr.SimBytes())
	}
}

func TestLookupEmitsTrace(t *testing.T) {
	tr := newTrie()
	tr.Insert(0x0a010200, 24, 3)
	var ctx click.Ctx
	tr.Lookup(&ctx, 0x0a010201)
	loads := 0
	for _, op := range ctx.Ops {
		if op.Addr != 0 {
			loads++
		}
	}
	// /24 = 8-bit root + 8 levels of 2 bits = 9 visited nodes, each
	// costing a descriptor load and an entry load.
	if loads != 18 {
		t.Fatalf("trace has %d node loads, want 18", loads)
	}
}

func TestLookupTraceMatchesPlain(t *testing.T) {
	tr := newTrie()
	RandomTable(tr, 2000, 3)
	var ctx click.Ctx
	r := rng.New(4)
	for i := 0; i < 500; i++ {
		dst := r.Uint32()
		ctx.Ops = ctx.Ops[:0]
		if tr.Lookup(&ctx, dst) != tr.LookupPlain(dst) {
			t.Fatalf("traced and plain lookups disagree for %#x", dst)
		}
	}
}

func TestDeterministicTableConstruction(t *testing.T) {
	a, b := newTrie(), newTrie()
	RandomTable(a, 1000, 5)
	RandomTable(b, 1000, 5)
	if a.Nodes() != b.Nodes() || a.SimBytes() != b.SimBytes() {
		t.Fatal("same seed produced different tables")
	}
	r := rng.New(6)
	for i := 0; i < 200; i++ {
		dst := r.Uint32()
		if a.LookupPlain(dst) != b.LookupPlain(dst) {
			t.Fatalf("tables disagree at %#x", dst)
		}
	}
}

// TestReserveSizesBuildExactly checks that reserve predicts the node
// arrays a set of insertions needs: the build never regrows them, and
// the reservation exceeds the need only by allocator rounding.
func TestReserveSizesBuildExactly(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		n := 1 + r.Intn(3000)
		prefixes := make([]uint32, n)
		plens := make([]int, n)
		keys := make([]uint64, n)
		for i := range prefixes {
			prefixes[i], plens[i] = r.Uint32(), r.Intn(33)
			keys[i] = uint64(prefixes[i]&maskOf(plens[i]))<<8 | uint64(plens[i])
		}
		tr := newTrie()
		tr.reserve(keys)
		entries, nodes := cap(tr.entries), cap(tr.level)
		for i := range prefixes {
			tr.Insert(prefixes[i], plens[i], uint32(i))
		}
		if cap(tr.entries) != entries || cap(tr.level) != nodes || cap(tr.offset) < len(tr.offset) {
			t.Fatalf("seed %d: build regrew the arrays: entries cap %d -> %d, nodes cap %d -> %d",
				seed, entries, cap(tr.entries), nodes, cap(tr.level))
		}
		// Size classes round by at most 1/8, large allocations to 8 KiB.
		rounded := func(need, elemBytes int) int { return need + need/8 + 8192/elemBytes }
		if entries > rounded(len(tr.entries), 12) {
			t.Fatalf("seed %d: reserved %d entries for %d", seed, entries, len(tr.entries))
		}
		if nodes > rounded(len(tr.level), 4) {
			t.Fatalf("seed %d: reserved %d nodes for %d", seed, nodes, len(tr.level))
		}
	}
}
