package iplookup

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/rng"
)

// diffStrides are the level layouts the differential tests cover: the
// default one, and custom ones with wide and uneven levels.
var diffStrides = [][]int{DefaultStrides, {4, 4, 4, 4, 4, 4, 4, 4}, {16, 3, 5, 8}}

// assertSameTrie checks that tr, placed in arena, and ref, placed in
// refArena, recorded the same footprint and answer random destinations
// with the same next hops and the same trace ops (kind, address, Func,
// cycles, instructions).
func assertSameTrie(t *testing.T, tr *RadixTrie, arena *mem.Arena, ref *refTrie, refArena *mem.Arena, seed uint64) {
	t.Helper()
	if !reflect.DeepEqual(arena.Bindings(), refArena.Bindings()) {
		t.Fatalf("recorded footprints differ:\n got %+v\nwant %+v", arena.Bindings(), refArena.Bindings())
	}
	if tr.Nodes() != ref.Nodes() || tr.SimBytes() != ref.SimBytes() || tr.Routes() != ref.Routes() {
		t.Fatalf("shape differs: %d nodes, %d bytes, %d routes; reference %d, %d, %d",
			tr.Nodes(), tr.SimBytes(), tr.Routes(), ref.Nodes(), ref.SimBytes(), ref.Routes())
	}
	var got, want click.Ctx
	got.SetFunc(fnRadixLookup)
	want.SetFunc(fnRadixLookup)
	r := rng.New(seed)
	for i := 0; i < 4000; i++ {
		dst := r.Uint32()
		got.Ops, want.Ops = got.Ops[:0], want.Ops[:0]
		if g, w := tr.Lookup(&got, dst), ref.Lookup(&want, dst); g != w {
			t.Fatalf("Lookup(%#x) = %d, reference %d", dst, g, w)
		}
		if !slices.Equal(got.Ops, want.Ops) {
			t.Fatalf("Lookup(%#x) trace differs:\n got %+v\nwant %+v", dst, got.Ops, want.Ops)
		}
	}
}

// TestTrieMatchesReference replays random lookups against random tables
// built both ways, under the default and custom strides.
func TestTrieMatchesReference(t *testing.T) {
	for _, strides := range diffStrides {
		for _, n := range []int{0, 300, 4000} {
			t.Run(fmt.Sprintf("%v/%d", strides, n), func(t *testing.T) {
				seed := uint64(n)*31 + uint64(len(strides))
				tab, err := RandomTable(n, seed, strides)
				if err != nil {
					t.Fatal(err)
				}
				arena, refArena := mem.NewArena(1), mem.NewArena(1)
				arena.Alloc(192, hw.LineSize) // the views must not start at the arena base
				refArena.Alloc(192, hw.LineSize)
				tr := New(arena, tab)
				ref := newRefTrie(refArena, strides)
				refRandomTable(ref, n, seed)
				ref.recordFootprint()
				assertSameTrie(t, tr, arena, ref, refArena, seed+1)
			})
		}
	}
}

// TestInsertMatchesReference covers what RandomTable never inserts:
// arbitrary prefix lengths from /0 to /32, in any order, overwrites
// included.
func TestInsertMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		strides := diffStrides[seed%uint64(len(diffStrides))]
		r := rng.New(seed)
		b := NewBuilder(strides)
		refArena := mem.NewArena(0)
		ref := newRefTrie(refArena, strides)
		for i := 0; i < 1+r.Intn(500); i++ {
			prefix, plen, nh := r.Uint32(), r.Intn(33), uint32(r.Intn(64))
			b.Insert(prefix, plen, nh)
			ref.Insert(prefix, plen, nh)
		}
		ref.recordFootprint()
		tab, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		arena := mem.NewArena(0)
		assertSameTrie(t, New(arena, tab), arena, ref, refArena, seed)
	}
}
