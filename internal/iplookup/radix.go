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
//
// A trie has two halves. The host-side Table is immutable once built and
// may back any number of RadixTrie views at once, from any goroutine;
// each view owns its simulated placement (its arena reservations and
// recorded footprint), so views of one Table emit the traces separate
// copies of it would.
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
// array (nodes are 2^stride consecutive entries), each the size of its
// simulated counterpart.
type entry struct {
	route uint32 // NoRoute if none
	child int32  // node id, -1 if none
}

const (
	// simEntryBytes is each entry's simulated size; simNodeBytes is each
	// node descriptor's.
	simEntryBytes = 8
	simNodeBytes  = 8
	// maxEntries and maxNodes are the extents every view reserves in
	// simulated memory (512 MiB and 128 MiB of address space, of which
	// only the built table is ever touched). A larger table would run
	// into the next reservation, so Build rejects it.
	maxEntries = 1 << 26
	maxNodes   = 1 << 24
)

// Table is the host-side half of a multi-bit trie over IPv4 prefixes:
// immutable once built, so it is safe to share across goroutines. Prefix
// lengths that do not align with a level boundary are expanded into the
// covering level (controlled prefix expansion), preserving exact
// longest-prefix-match semantics. Nodes are numbered in creation order
// and sit at the level their walk depth reaches.
type Table struct {
	strides []int
	bounds  []int   // cumulative prefix-length boundaries
	offset  []int32 // first entry index of each node
	entries []entry
	routes  int
}

// Routes returns the number of inserted prefixes.
func (t *Table) Routes() int { return t.routes }

// Nodes returns the number of allocated trie nodes.
func (t *Table) Nodes() int { return len(t.offset) }

// SimBytes returns the trie's simulated memory footprint (entries
// actually allocated, not the reserved range).
func (t *Table) SimBytes() uint64 {
	return uint64(len(t.entries)) * simEntryBytes
}

// Builder fills a Table by insertion.
type Builder struct {
	t    Table
	plen []int8 // per entry: prefix length of its route, -1 if none
}

// NewBuilder starts an empty trie with the given level layout (nil means
// DefaultStrides). It panics on a layout that does not cover exactly 32
// bits in strides of 1..16.
func NewBuilder(strides []int) *Builder {
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
	b := &Builder{t: Table{strides: strides, bounds: bounds}}
	b.newNode(0) // root
	return b
}

func (b *Builder) newNode(level int) int32 {
	size := 1 << b.t.strides[level]
	off := int32(len(b.t.entries))
	for i := 0; i < size; i++ {
		b.t.entries = append(b.t.entries, entry{route: NoRoute, child: -1})
		b.plen = append(b.plen, -1)
	}
	b.t.offset = append(b.t.offset, off)
	return int32(len(b.t.offset) - 1)
}

// Insert adds a route for prefix/plen. Later inserts for the same prefix
// overwrite earlier ones. Inserting plen 0 sets the default route.
func (b *Builder) Insert(prefix uint32, plen int, nexthop uint32) {
	if plen < 0 || plen > 32 {
		panic(fmt.Sprintf("iplookup: prefix length %d invalid", plen))
	}
	if nexthop == NoRoute {
		panic("iplookup: nexthop collides with NoRoute sentinel")
	}
	prefix &= maskOf(plen)
	b.insert(0, 0, prefix, plen, nexthop)
	b.t.routes++
}

func maskOf(plen int) uint32 {
	if plen == 0 {
		return 0
	}
	return ^uint32(0) << (32 - plen)
}

// insert walks to the level whose boundary covers plen, expanding the
// prefix across all entries it covers at that level.
func (b *Builder) insert(node int32, level int, prefix uint32, plen int, nexthop uint32) {
	stride := b.t.strides[level]
	depth := b.t.bounds[level] - stride
	index := int(prefix>>(32-depth-stride)) & (1<<stride - 1)
	off := b.t.offset[node]

	if plen <= b.t.bounds[level] {
		// The prefix ends at or within this level: expand it over all
		// entries whose top bits match. A longer prefix expanded earlier
		// onto the same entries keeps precedence.
		low := max(plen-depth, 0)
		span := 1 << (stride - low)
		start := off + int32(index&^(span-1))
		for i := start; i < start+int32(span); i++ {
			if int(b.plen[i]) <= plen {
				b.t.entries[i].route = nexthop
				b.plen[i] = int8(plen)
			}
		}
		return
	}
	child := b.t.entries[off+int32(index)].child
	if child < 0 {
		child = b.newNode(level + 1)
		b.t.entries[off+int32(index)].child = child
	}
	b.insert(child, level+1, prefix, plen, nexthop)
}

// Build finishes the trie and returns it as an immutable Table; the
// builder must not be used afterwards. It fails if the table outgrows
// the simulated range a view reserves for it.
func (b *Builder) Build() (*Table, error) {
	if err := checkFits(len(b.t.offset), len(b.t.entries)); err != nil {
		return nil, err
	}
	t := b.t
	*b = Builder{}
	return &t, nil
}

// checkFits rejects a table of the given size that would overflow the
// simulated ranges a view reserves for its entries and node descriptors.
func checkFits(nodes, entries int) error {
	if entries > maxEntries || nodes > maxNodes {
		return fmt.Errorf("iplookup: route table of %d nodes and %d entries exceeds the reserved %d nodes and %d entries",
			nodes, entries, maxNodes, maxEntries)
	}
	return nil
}

// RadixTrie is one instance of a route table in simulated memory: a view
// of a shared Table placed at its own simulated addresses.
type RadixTrie struct {
	*Table
	base    hw.Addr // simulated base of the entry array
	hdrBase hw.Addr // simulated base of the node-descriptor array
}

// New places a view of t in arena: it reserves the simulated entry and
// node-descriptor ranges and records the extents lookups touch, which are
// also the bytes a state migration copies, as the arena's bindings.
func New(arena *mem.Arena, t *Table) *RadixTrie {
	v := &RadixTrie{Table: t}
	v.base = arena.Reserve(maxEntries*simEntryBytes, hw.LineSize)
	v.hdrBase = arena.Reserve(maxNodes*simNodeBytes, hw.LineSize)
	arena.Record(v.base, uint64(len(t.entries))*simEntryBytes)
	arena.Record(v.hdrBase, uint64(len(t.offset))*simNodeBytes)
	return v
}

// Lookup returns the longest-prefix-match next hop for dst, emitting the
// trace of the traversal into ctx: each visited node costs a descriptor
// load (the stride/occupancy word a compressed multibit trie reads
// first) and an entry load, as tree-bitmap-style lookup structures do.
//
//dataplane:hotpath
//dataplane:stamped emits under the caller's Ctx bracket (called from Element.Process)
func (v *RadixTrie) Lookup(ctx *click.Ctx, dst uint32) uint32 {
	entries, offset, base, hdrBase := v.entries, v.offset, v.base, v.hdrBase
	best := NoRoute
	node := int32(0)
	depth := 0
	// The last level's entries have no children, so the walk
	// stops before it runs out of strides.
	for _, stride := range v.strides {
		ctx.Load(hdrBase + hw.Addr(uint64(node)*simNodeBytes))
		i := offset[node] + int32(dst>>(32-depth-stride))&(1<<stride-1)
		e := entries[i]
		ctx.Load(base + hw.Addr(uint64(i)*simEntryBytes))
		ctx.Compute(7, 9) // shift/mask/branch per level
		if e.route != NoRoute {
			best = e.route
		}
		if e.child < 0 {
			break
		}
		node = e.child
		depth += stride
	}
	return best
}

// RandomTable builds a table of n routes whose prefix lengths follow a
// backbone-like mix (20% /16, 20% /20, 60% /24), plus a default route,
// mirroring the paper's 128000-entry table loaded with random prefixes.
// Next hops index an adjacency table of n+1 entries (see Element). A nil
// strides uses DefaultStrides. It fails, before building anything, on a
// table that would not fit a view's reserved range.
func RandomTable(n int, seed uint64, strides []int) (*Table, error) {
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
	b := NewBuilder(strides)
	if err := b.reserve(keys); err != nil {
		return nil, err
	}
	b.Insert(0, 0, 0) // default route: every lookup resolves
	for _, rt := range routes {
		b.Insert(rt.prefix, rt.plen, rt.nexthop)
	}
	return b.Build()
}

// reserve sizes the node arrays for inserting the given routes, each
// packed as masked prefix<<8 | length, so that the build allocates them
// once instead of growing them by doubling. It sorts keys, and fails,
// allocating nothing, if the routes would not fit (see checkFits).
func (b *Builder) reserve(keys []uint64) error {
	slices.Sort(keys)
	nodes, entries := len(b.t.offset), len(b.t.entries)
	for l, bound := range b.t.bounds[:len(b.t.bounds)-1] {
		// A route longer than a level's boundary descends into the child
		// its top bound bits select at that level; count the distinct ones.
		count, last := 0, uint64(1)<<32
		for _, k := range keys {
			if int(k&0xff) <= bound {
				continue
			}
			if top := k >> 8 >> (32 - bound); top != last {
				count, last = count+1, top
			}
		}
		nodes += count
		entries += count << b.t.strides[l+1]
	}
	if err := checkFits(nodes, entries); err != nil {
		return err
	}
	b.t.entries = slices.Grow(b.t.entries, entries-len(b.t.entries))
	b.plen = slices.Grow(b.plen, entries-len(b.plen))
	b.t.offset = slices.Grow(b.t.offset, nodes-len(b.t.offset))
	return nil
}
