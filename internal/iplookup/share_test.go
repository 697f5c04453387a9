package iplookup

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"pktpredict/internal/click"
	"pktpredict/internal/mem"
	"pktpredict/internal/rng"
)

// builds returns how many tables the shared cache has built so far.
func builds() int {
	tables.Lock()
	defer tables.Unlock()
	return tables.builds
}

// cached reports whether the shared cache holds a slot for the key.
func cached(key tableKey) bool {
	tables.Lock()
	defer tables.Unlock()
	_, ok := tables.slots[key]
	return ok
}

// newLookup constructs a RadixIPLookup element through the registry, as
// a configuration does.
func newLookup(t *testing.T, arena *mem.Arena, args ...string) *Element {
	t.Helper()
	e, err := click.NewInstance(&click.Env{Arena: arena, Seed: 1}, "RadixIPLookup", click.ParseArgs(args))
	if err != nil {
		t.Fatal(err)
	}
	return e.(*Element)
}

// TestSharedTableAcrossViews checks that two elements built while one is
// alive share one host table but each has its own simulated placement:
// distinct bases, and the same recorded footprint.
func TestSharedTableAcrossViews(t *testing.T) {
	arena := mem.NewArena(0)
	before := builds()
	a := newLookup(t, arena, "ROUTES 1500", "SEED 101")
	mark := len(arena.Bindings())
	b := newLookup(t, arena, "ROUTES 1500", "SEED 101")
	if got := builds() - before; got != 1 {
		t.Fatalf("two elements of one table built it %d times, want once", got)
	}
	if a.Trie.Table != b.Trie.Table {
		t.Fatal("elements of one table hold different host tables")
	}
	if a.Trie.base == b.Trie.base || a.Trie.hdrBase == b.Trie.hdrBase {
		t.Fatalf("views share simulated bases %#x/%#x", a.Trie.base, a.Trie.hdrBase)
	}
	first, second := arena.Bindings()[:mark], arena.Bindings()[mark:]
	if len(first) != len(second) {
		t.Fatalf("views recorded %d and %d bindings", len(first), len(second))
	}
	for i := range first {
		if first[i].Size != second[i].Size {
			t.Fatalf("binding %d: footprints %d and %d differ", i, first[i].Size, second[i].Size)
		}
	}
	c := newLookup(t, arena, "ROUTES 1500", "SEED 102")
	if c.Trie.Table == a.Trie.Table {
		t.Fatal("a different seed reused the table")
	}
}

// TestSharedTableFreedWhenUnused checks that the cache keeps no table
// alive by itself: once its last view is garbage the table is collected,
// its slot dropped, and the next user builds it again.
func TestSharedTableFreedWhenUnused(t *testing.T) {
	const n, seed = 1200, 202
	before := builds()
	wp := func() weak.Pointer[Table] {
		tab, err := sharedRandomTable(n, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(tab)
	}()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("an unused table survived a collection")
	}
	// Cleanups run on their own goroutine after the collection.
	for deadline := time.Now().Add(10 * time.Second); cached(keyOf(n, seed, DefaultStrides)); {
		if time.Now().After(deadline) {
			t.Fatal("the cache still holds the collected table's slot")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if _, err := sharedRandomTable(n, seed, nil); err != nil {
		t.Fatal(err)
	}
	if got := builds() - before; got != 2 {
		t.Fatalf("built %d times, want twice (the first table was freed)", got)
	}
}

// TestSharedTableConcurrent races builders of one key, then lookups on
// the shared table: one build serves every builder, and concurrent
// lookups through separate views agree with a serial walk.
func TestSharedTableConcurrent(t *testing.T) {
	const n, seed, workers = 2500, 303, 6
	ref := newRefTrie(mem.NewArena(0), nil)
	refRandomTable(ref, n, seed)
	dsts := make([]uint32, 2000)
	want := make([]uint32, len(dsts))
	r := rng.New(seed)
	for i := range dsts {
		dsts[i] = r.Uint32()
		want[i] = ref.LookupPlain(dsts[i])
	}

	before := builds()
	start := make(chan struct{})
	got := make([]*Table, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tab, err := sharedRandomTable(n, seed, nil)
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = tab
			tr := New(mem.NewArena(w%2), tab)
			var ctx click.Ctx
			for i, dst := range dsts {
				ctx.Ops = ctx.Ops[:0]
				if nh := tr.Lookup(&ctx, dst); nh != want[i] {
					t.Errorf("worker %d: Lookup(%#x) = %d, want %d", w, dst, nh, want[i])
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if b := builds() - before; b != 1 {
		t.Fatalf("%d concurrent builders built the table %d times, want once", workers, b)
	}
	for w, tab := range got {
		if tab != got[0] {
			t.Fatalf("worker %d got a different table", w)
		}
	}
}

// TestRouteCountBounds checks that RadixIPLookup rejects route counts it
// cannot build with an error at construction, not a panic later.
func TestRouteCountBounds(t *testing.T) {
	env := &click.Env{Arena: mem.NewArena(0), Seed: 1}
	for _, routes := range []string{"ROUTES -5", "ROUTES -1", "ROUTES 16777217", "ROUTES 1099511627776"} {
		if _, err := click.NewInstance(env, "RadixIPLookup", click.ParseArgs([]string{routes})); err == nil ||
			!strings.Contains(err.Error(), "ROUTES") {
			t.Errorf("%s: err = %v, want a ROUTES range error", routes, err)
		}
	}
	if _, err := click.ParseConfig(env, "neg", "rt :: RadixIPLookup(ROUTES -5);"); err == nil {
		t.Error("a configuration with ROUTES -5 parsed")
	}
	e := newLookup(t, env.Arena, "ROUTES 0")
	var ctx click.Ctx
	if nh := e.Trie.Lookup(&ctx, 0x0a000001); nh == NoRoute {
		t.Error("ROUTES 0 table lacks its default route")
	}
}

// TestTableCapacityChecked checks that a table too big for the simulated
// ranges a view reserves is rejected: by RandomTable before it builds
// anything, and by checkFits, which Build applies to tables filled by
// insertion.
func TestTableCapacityChecked(t *testing.T) {
	// With a 16-bit second level, every distinct /16 under a longer
	// route costs a 65536-entry node: ~1600 of them overflow 2^26.
	if _, err := RandomTable(2000, 1, []int{16, 16}); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized RandomTable: err = %v", err)
	}
	if _, err := sharedRandomTable(2000, 1, []int{16, 16}); err == nil {
		t.Fatal("oversized shared table built")
	}
	if cached(keyOf(2000, 1, []int{16, 16})) {
		t.Fatal("a failed build left its slot in the cache")
	}
	if checkFits(maxNodes, maxEntries) != nil {
		t.Fatal("a table filling the reserved ranges exactly was rejected")
	}
	if checkFits(maxNodes+1, 2) == nil || checkFits(1, maxEntries+1) == nil {
		t.Fatal("an overflowing table passed the capacity check")
	}
}
