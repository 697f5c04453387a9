// Package iplookup implements longest-prefix-match IPv4 route lookup with
// a multi-bit radix trie (controlled prefix expansion), the lookup
// structure behind the paper's IP-forwarding workload: "the RadixTrie
// lookup algorithm provided with the Click distribution and a routing
// table of 128000 entries".
//
// The trie's nodes live in simulated memory; every node visited during a
// lookup emits the corresponding load, so the structure's cache footprint
// — hot top levels, cold deep levels — emerges from real traversals of a
// real table. The default strides are fine (an 8-bit root, then 2-bit
// levels), giving random-destination lookups the multi-node, multi-line
// walk that makes radix-trie IP lookup cache-hungry on the paper's
// platform.
package iplookup

import (
	"fmt"
	"slices"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/rng"
)

// NoRoute is returned by Lookup when no prefix covers the address.
const NoRoute = ^uint32(0)

// DefaultStrides is the level layout of the trie: an 8-bit root followed
// by 2-bit internal levels, covering prefix lengths up to /32.
var DefaultStrides = []int{8, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}

// entry is one slot of a trie node. Entries are stored in a single flat
// array (nodes are 2^stride consecutive entries) to keep the Go-side
// memory proportional to the simulated layout.
type entry struct {
	route uint32 // NoRoute if none
	child int32  // node id, -1 if none
	plen  int8   // original prefix length of route; -1 if none
}

// simEntryBytes is each entry's simulated size.
const simEntryBytes = 8

// RadixTrie is a multi-bit trie over IPv4 prefixes. Prefix lengths that
// do not align with a level boundary are expanded into the covering level
// (controlled prefix expansion), preserving exact longest-prefix-match
// semantics.
type RadixTrie struct {
	strides []int
	bounds  []int   // cumulative prefix-length boundaries
	level   []int32 // level of each node (index into strides)
	offset  []int32 // first entry index of each node
	entries []entry
	base    hw.Addr // simulated base of the entry array
	hdrBase hw.Addr // simulated base of the node-descriptor array
	arena   *mem.Arena
	routes  int
}

// New builds an empty trie allocating node memory from arena. A nil
// strides uses DefaultStrides.
func New(arena *mem.Arena, strides []int) *RadixTrie {
	if strides == nil {
		strides = DefaultStrides
	}
	total := 0
	bounds := make([]int, len(strides))
	for i, s := range strides {
		if s < 1 || s > 16 {
			panic(fmt.Sprintf("iplookup: stride %d out of range", s))
		}
		total += s
		bounds[i] = total
	}
	if total != 32 {
		panic(fmt.Sprintf("iplookup: strides cover %d bits, want 32", total))
	}
	t := &RadixTrie{strides: strides, bounds: bounds, arena: arena}
	// Reserve generous contiguous simulated ranges for entries and node
	// descriptors; actual usage is bounded by insertions. 1<<26 entries
	// × 8 B = 512 MiB of address space, of which only allocated entries
	// are ever touched — recordFootprint reports the touched extent once
	// the table is populated, so the reservation never counts as state.
	t.base = arena.Reserve(uint64(1<<26)*simEntryBytes, hw.LineSize)
	t.hdrBase = arena.Reserve(uint64(1<<24)*8, hw.LineSize)
	t.newNode(0) // root
	return t
}

// recordFootprint reports the trie's touched extents to the arena's
// binding record: the bytes lookups actually reference, and the bytes a
// state migration would copy. Call it after the table is populated.
func (t *RadixTrie) recordFootprint() {
	t.arena.Record(t.base, uint64(len(t.entries))*simEntryBytes)
	t.arena.Record(t.hdrBase, uint64(len(t.level))*8)
}

func (t *RadixTrie) newNode(level int) int32 {
	size := 1 << t.strides[level]
	off := int32(len(t.entries))
	for i := 0; i < size; i++ {
		t.entries = append(t.entries, entry{route: NoRoute, child: -1, plen: -1})
	}
	t.level = append(t.level, int32(level))
	t.offset = append(t.offset, off)
	return int32(len(t.level) - 1)
}

// entryAddr returns the simulated address of entry index e.
func (t *RadixTrie) entryAddr(e int32) hw.Addr {
	return t.base + hw.Addr(uint64(e)*simEntryBytes)
}

// Routes returns the number of inserted prefixes.
func (t *RadixTrie) Routes() int { return t.routes }

// Nodes returns the number of allocated trie nodes.
func (t *RadixTrie) Nodes() int { return len(t.level) }

// SimBytes returns the trie's simulated memory footprint (entries
// actually allocated, not the reserved range).
func (t *RadixTrie) SimBytes() uint64 {
	return uint64(len(t.entries)) * simEntryBytes
}

// Insert adds a route for prefix/plen. Later inserts for the same prefix
// overwrite earlier ones. Inserting plen 0 sets the default route.
func (t *RadixTrie) Insert(prefix uint32, plen int, nexthop uint32) {
	if plen < 0 || plen > 32 {
		panic(fmt.Sprintf("iplookup: prefix length %d invalid", plen))
	}
	if nexthop == NoRoute {
		panic("iplookup: nexthop collides with NoRoute sentinel")
	}
	prefix &= maskOf(plen)
	t.insert(0, 0, prefix, plen, nexthop)
	t.routes++
}

func maskOf(plen int) uint32 {
	if plen == 0 {
		return 0
	}
	return ^uint32(0) << (32 - plen)
}

// insert walks to the level whose boundary covers plen, expanding the
// prefix across all entries it covers at that level.
func (t *RadixTrie) insert(node int32, depth int, prefix uint32, plen int, nexthop uint32) {
	level := int(t.level[node])
	stride := t.strides[level]
	shift := 32 - depth - stride
	index := int(prefix>>shift) & (1<<stride - 1)
	off := t.offset[node]

	if plen <= t.bounds[level] {
		// The prefix ends at or within this level: expand it over all
		// entries whose top bits match. A longer prefix expanded earlier
		// onto the same entries keeps precedence.
		low := plen - depth
		if low < 0 {
			low = 0
		}
		span := 1 << (stride - low)
		start := index &^ (span - 1)
		for i := start; i < start+span; i++ {
			e := &t.entries[off+int32(i)]
			if int(e.plen) <= plen {
				e.route = nexthop
				e.plen = int8(plen)
			}
		}
		return
	}
	child := t.entries[off+int32(index)].child
	if child < 0 {
		child = t.newNode(level + 1)
		t.entries[off+int32(index)].child = child
	}
	t.insert(child, depth+stride, prefix, plen, nexthop)
}

// Lookup returns the longest-prefix-match next hop for dst, emitting the
// trace of the traversal into ctx: each visited node costs a descriptor
// load (the stride/occupancy word a compressed multibit trie reads
// first) and an entry load, as tree-bitmap-style lookup structures do.
//
//dataplane:stamped emits under the caller's Ctx bracket (called from Element.Process)
func (t *RadixTrie) Lookup(ctx *click.Ctx, dst uint32) uint32 {
	best := NoRoute
	node := int32(0)
	depth := 0
	for {
		ctx.Load(t.hdrBase + hw.Addr(uint64(node)*8))
		level := int(t.level[node])
		stride := t.strides[level]
		shift := 32 - depth - stride
		index := int32(dst>>shift) & (1<<stride - 1)
		e := t.entries[t.offset[node]+index]
		ctx.Load(t.entryAddr(t.offset[node] + index))
		ctx.Compute(7, 9) // shift/mask/branch per level
		if e.route != NoRoute {
			best = e.route
		}
		if e.child < 0 {
			return best
		}
		node = e.child
		depth += stride
	}
}

// LookupPlain is Lookup without trace emission, for tests and table
// verification.
func (t *RadixTrie) LookupPlain(dst uint32) uint32 {
	best := NoRoute
	node := int32(0)
	depth := 0
	for {
		level := int(t.level[node])
		stride := t.strides[level]
		shift := 32 - depth - stride
		index := int32(dst>>shift) & (1<<stride - 1)
		e := t.entries[t.offset[node]+index]
		if e.route != NoRoute {
			best = e.route
		}
		if e.child < 0 {
			return best
		}
		node = e.child
		depth += stride
	}
}

// RandomTable fills the trie with n routes whose prefix lengths follow a
// backbone-like mix (20% /16, 20% /20, 60% /24), plus a default route,
// mirroring the paper's 128000-entry table loaded with random prefixes.
// Next hops index an adjacency table of n+1 entries (see Element).
func RandomTable(t *RadixTrie, n int, seed uint64) {
	type route struct {
		prefix, nexthop uint32
		plen            int
	}
	r := rng.New(seed)
	routes := make([]route, n)
	keys := make([]uint64, n)
	for i := range routes {
		var plen int
		switch p := r.Float64(); {
		case p < 0.20:
			plen = 16
		case p < 0.40:
			plen = 20
		default:
			plen = 24
		}
		prefix := r.Uint32()
		routes[i] = route{prefix, uint32(r.Intn(n)) + 1, plen}
		keys[i] = uint64(prefix&maskOf(plen))<<8 | uint64(plen)
	}
	t.reserve(keys)
	t.Insert(0, 0, 0) // default route: every lookup resolves
	for _, rt := range routes {
		t.Insert(rt.prefix, rt.plen, rt.nexthop)
	}
}

// reserve sizes the node arrays for inserting the given routes, each
// packed as masked prefix<<8 | length, so that the build allocates them
// once instead of growing them by doubling. It sorts keys.
func (t *RadixTrie) reserve(keys []uint64) {
	slices.Sort(keys)
	nodes, entries := len(t.level), len(t.entries)
	for l, b := range t.bounds[:len(t.bounds)-1] {
		// A route longer than a level's boundary descends into the child
		// its top b bits select at that level; count the distinct ones.
		count, last := 0, uint64(1)<<32
		for _, k := range keys {
			if int(k&0xff) <= b {
				continue
			}
			if top := k >> 8 >> (32 - b); top != last {
				count, last = count+1, top
			}
		}
		nodes += count
		entries += count << t.strides[l+1]
	}
	t.entries = slices.Grow(t.entries, entries-len(t.entries))
	t.level = slices.Grow(t.level, nodes-len(t.level))
	t.offset = slices.Grow(t.offset, nodes-len(t.offset))
}
