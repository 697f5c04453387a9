package hw

import "fmt"

// CacheGeom describes the geometry of one cache level.
type CacheGeom struct {
	SizeBytes int // total capacity
	Ways      int // associativity; 1 means direct-mapped
}

// Sets returns the number of sets implied by the geometry.
func (g CacheGeom) Sets() int {
	lines := g.SizeBytes / LineSize
	if g.Ways <= 0 || lines == 0 || lines%g.Ways != 0 {
		panic(fmt.Sprintf("hw: invalid cache geometry %+v", g))
	}
	return lines / g.Ways
}

// ReplacementPolicy selects how a victim way is chosen on insertion.
// The platform's caches use (pseudo-)LRU; the alternatives exist for the
// ablation benchmarks that quantify how much of the paper's behaviour
// depends on the replacement policy.
type ReplacementPolicy uint8

const (
	// ReplaceLRU evicts the least-recently-used way.
	ReplaceLRU ReplacementPolicy = iota
	// ReplaceRandom evicts a deterministically pseudo-random way.
	ReplaceRandom
)

const invalidTag = ^uint64(0)

// CacheStats aggregates the events observed by one cache instance.
// For shared caches these are totals across all accessing cores; per-core
// attribution lives in Counters.
type CacheStats struct {
	Refs       uint64 // lookups via Access
	Hits       uint64
	Misses     uint64
	Evictions  uint64 // valid lines displaced by Insert
	Writebacks uint64 // dirty lines displaced or invalidated
}

// Cache is a set-associative, write-back, write-allocate cache with a
// configurable replacement policy. It models presence and recency only;
// latency is charged by the access path in Platform, and coherence across
// private caches is handled by the inclusive-L3 back-invalidation logic.
//
// The layout is struct-of-arrays: way i of set s lives at index
// s*ways+i of tags and meta, so a lookup is one compare loop over
// contiguous tag words. A victim is the last invalid way of the set,
// otherwise the way with the oldest stamp (or a pseudo-random way under
// ReplaceRandom). A lookup that misses chooses the victim in the same
// call and keeps it pending for the fill of that line, which then needs
// no second scan; any lookup, fill or invalidation in the set discards
// it first.
//
// The arrays are allocated by the first lookup or fill, so the caches of
// sockets and cores a simulation leaves idle cost no memory.
//
// The zero value is not usable; construct with NewCache.
type Cache struct {
	Name  string
	Stats CacheStats

	tags []uint64 // line address per way; invalidTag when invalid; nil until used
	// meta packs each way's last-use stamp and dirty bit as
	// stamp<<1 | dirty, and is 0 for an invalid way. Stamps come from a
	// per-cache counter starting at 1, so no two valid ways share one and
	// meta words order ways by recency.
	meta []uint64
	// sharers is allocated with tags when tracking, which NewPlatform
	// sets for an inclusive L3: per way, a superset of the socket-local
	// cores whose L1 or L2 may hold the way's line. Back-invalidation
	// visits only those cores.
	sharers  []uint64
	tracking bool
	// sharersLost is set when the cache was flushed on its own, which
	// breaks inclusion: private caches may then hold lines the L3 does
	// not, so the masks no longer cover every holder.
	sharersLost bool

	sets    uint64
	setMask uint64 // sets-1 when pow2
	pow2    bool
	ways    int
	policy  ReplacementPolicy
	clock   uint64 // monotonically increasing use stamp
	rng     uint64 // state for ReplaceRandom victim selection

	// The victim a missing lookup chose for pendLine, whose set starts at
	// pendBase (-1 when nothing is pending). pendFree reports that the
	// victim is an invalid way.
	pendLine uint64
	pendBase int
	pendWay  int
	pendFree bool
}

// evicted describes the valid line a fill displaced.
type evicted struct {
	line    uint64
	sharers uint64 // the way's sharer mask (0 without tracking)
	dirty   bool
	ok      bool // a valid line was displaced
}

// NewCache builds a cache with the given geometry and replacement policy.
func NewCache(name string, g CacheGeom, policy ReplacementPolicy) *Cache {
	sets := g.Sets()
	c := &Cache{
		Name:     name,
		sets:     uint64(sets),
		pow2:     sets&(sets-1) == 0,
		ways:     g.Ways,
		policy:   policy,
		rng:      0x9e3779b97f4a7c15,
		pendBase: -1,
	}
	if c.pow2 {
		c.setMask = c.sets - 1
	}
	return c
}

// alloc allocates the arrays, every way invalid.
func (c *Cache) alloc() {
	n := int(c.sets) * c.ways
	c.tags = make([]uint64, n)
	c.meta = make([]uint64, n)
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	if c.tracking {
		c.sharers = make([]uint64, n)
	}
}

// filtering reports whether the sharer masks cover every private holder.
func (c *Cache) filtering() bool { return c.tracking && !c.sharersLost }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.sets) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SizeBytes returns the capacity in bytes.
func (c *Cache) SizeBytes() int { return int(c.sets) * c.ways * LineSize }

// setOf returns the index of the first way of line's set. A mask
// replaces the modulo when the set count is a power of two.
func (c *Cache) setOf(line uint64) int {
	if c.pow2 {
		return int(line&c.setMask) * c.ways
	}
	return int(line%c.sets) * c.ways
}

// find returns the index of the way holding line, or -1.
func (c *Cache) find(line uint64) int {
	if c.tags == nil {
		return -1
	}
	base := c.setOf(line)
	for i, t := range c.tags[base : base+c.ways] {
		if t == line {
			return base + i
		}
	}
	return -1
}

// victim returns the way a fill into the set at base replaces: the last
// invalid way (free), otherwise the way with the oldest stamp. Invalid
// ways have meta 0 and valid ways a non-zero stamp, so this is the last
// minimum of the set's meta words.
func (c *Cache) victim(base int) (way int, free bool) {
	way = base
	oldest := ^uint64(0)
	for i, m := range c.meta[base : base+c.ways] {
		if m <= oldest {
			way, oldest = base+i, m
		}
	}
	return way, oldest == 0
}

// lookup is Access on a line address. It returns the hit way, or -1
// after leaving the set's victim pending for a fill of line.
func (c *Cache) lookup(line uint64, write bool) int {
	c.Stats.Refs++
	c.clock++
	if c.tags == nil {
		c.alloc()
	}
	base := c.setOf(line)
	for i, t := range c.tags[base : base+c.ways] {
		if t == line {
			w := base + i
			dirty := c.meta[w] & 1
			if write {
				dirty = 1
			}
			c.meta[w] = c.clock<<1 | dirty
			c.Stats.Hits++
			c.pendBase = -1
			return w
		}
	}
	c.Stats.Misses++
	c.pendLine, c.pendBase = line, base
	c.pendWay, c.pendFree = c.victim(base)
	return -1
}

// fill is Insert on a line address. It returns the way now holding line
// and what, if anything, it displaced.
func (c *Cache) fill(line uint64, dirty bool) (way int, ev evicted) {
	c.clock++
	if c.tags == nil {
		c.alloc()
	}
	var d uint64
	if dirty {
		d = 1
	}
	base, free := c.pendBase, c.pendFree
	way = c.pendWay
	if base < 0 || c.pendLine != line {
		if w := c.find(line); w >= 0 {
			c.meta[w] = c.clock<<1 | c.meta[w]&1 | d
			c.pendBase = -1
			return w, ev
		}
		base = c.setOf(line)
		way, free = c.victim(base)
	}
	c.pendBase = -1
	if !free && c.policy == ReplaceRandom {
		// xorshift64* victim selection: deterministic, seed-independent of
		// workload content.
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		way = base + int(c.rng%uint64(c.ways))
	}
	if t := c.tags[way]; t != invalidTag {
		ev = evicted{line: t, dirty: c.meta[way]&1 != 0, ok: true}
		c.Stats.Evictions++
		if ev.dirty {
			c.Stats.Writebacks++
		}
	}
	if c.sharers != nil {
		ev.sharers = c.sharers[way]
		c.sharers[way] = 0
	}
	c.tags[way] = line
	c.meta[way] = c.clock<<1 | d
	return way, ev
}

// invalidate is Invalidate on a line address.
func (c *Cache) invalidate(line uint64) (present, dirty bool) {
	if c.tags == nil {
		return false, false
	}
	base := c.setOf(line)
	for i, t := range c.tags[base : base+c.ways] {
		if t != line {
			continue
		}
		w := base + i
		dirty = c.meta[w]&1 != 0
		if dirty {
			c.Stats.Writebacks++
		}
		c.tags[w] = invalidTag
		c.meta[w] = 0
		if base == c.pendBase {
			c.pendBase = -1
		}
		return true, dirty
	}
	return false, false
}

// markDirty is MarkDirty on a line address.
func (c *Cache) markDirty(line uint64) bool {
	w := c.find(line)
	if w < 0 {
		return false
	}
	c.meta[w] |= 1
	return true
}

// Access looks up the line containing addr, updating recency and counting
// the reference. If write is true and the line is present it is marked
// dirty. It returns whether the access hit.
func (c *Cache) Access(addr Addr, write bool) bool {
	return c.lookup(uint64(addr>>LineShift), write) >= 0
}

// Contains reports whether the line containing addr is present, without
// updating recency or statistics. It is intended for tests and assertions.
func (c *Cache) Contains(addr Addr) bool {
	return c.find(uint64(addr>>LineShift)) >= 0
}

// Insert fills the line containing addr, evicting a victim if the set is
// full. It returns the victim's address and dirtiness when a valid line
// was displaced. Inserting a line that is already present refreshes its
// recency (and dirtiness if dirty is true) without eviction.
func (c *Cache) Insert(addr Addr, dirty bool) (victim Addr, victimDirty, evicted bool) {
	_, ev := c.fill(uint64(addr>>LineShift), dirty)
	if !ev.ok {
		return 0, false, false
	}
	return Addr(ev.line << LineShift), ev.dirty, true
}

// Invalidate removes the line containing addr if present, returning
// whether it was present and whether it was dirty. Dirty invalidations
// are counted as writebacks.
func (c *Cache) Invalidate(addr Addr) (present, dirty bool) {
	return c.invalidate(uint64(addr >> LineShift))
}

// MarkDirty marks the line containing addr dirty if present, returning
// whether it was present. It models a write-back arriving from an inner
// cache level.
func (c *Cache) MarkDirty(addr Addr) bool {
	return c.markDirty(uint64(addr >> LineShift))
}

// ValidLines returns the number of currently valid lines, for tests and
// occupancy diagnostics.
func (c *Cache) ValidLines() int {
	n := 0
	for _, t := range c.tags {
		if t != invalidTag {
			n++
		}
	}
	return n
}

// Flush invalidates every line and resets statistics. Flushing an
// inclusive L3 on its own disables its sharer filter until
// Platform.FlushCaches empties every cache of the socket.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = invalidTag
		c.meta[i] = 0
	}
	clear(c.sharers)
	c.sharersLost = c.tracking
	c.pendBase = -1
	c.Stats = CacheStats{}
}
