package hw

import (
	"fmt"
	"math/bits"
)

// Core is one processing core: private L1D and L2, a pointer back to its
// socket for the shared L3 and memory path, and its performance counters.
type Core struct {
	ID     int // global core id, 0-based
	Socket *Socket

	L1 *Cache
	L2 *Cache

	Counters Counters

	clock uint64 // local virtual time in cycles
	bit   uint64 // 1 << the core's index on its socket, for L3 sharer masks

	// elems is the per-element attribution table installed by
	// SetElemTable (nil = attribution off); curElem is the slot of the op
	// currently executing, so Access can attribute L3 traffic without a
	// wider signature. Both are touched only by the goroutine driving the
	// core.
	elems   []ElemCell
	curElem uint16
}

// Clock returns the core's local virtual time in cycles.
func (c *Core) Clock() uint64 { return c.clock }

// Socket is one processor package: a set of cores sharing an inclusive L3
// and an integrated memory controller, plus an outgoing QPI link.
type Socket struct {
	ID    int
	Cores []*Core
	L3    *Cache
	Mem   *Channel // integrated memory controller
	QPI   *Channel // outgoing interconnect link

	platform *Platform
}

// Platform is the simulated machine.
type Platform struct {
	Cfg     Config
	Sockets []*Socket
	Cores   []*Core // flattened, indexed by global core id

	// domainHome overrides the default domain→socket mapping for
	// individual NUMA domains (see SetDomainHome). nil until the first
	// override is installed.
	domainHome map[int]int
}

// NewPlatform builds a machine from cfg.
func NewPlatform(cfg Config) *Platform {
	if cfg.Sockets < 1 || cfg.CoresPerSocket < 1 {
		panic(fmt.Sprintf("hw: invalid topology %d sockets x %d cores", cfg.Sockets, cfg.CoresPerSocket))
	}
	p := &Platform{Cfg: cfg}
	for s := 0; s < cfg.Sockets; s++ {
		sock := &Socket{
			ID:       s,
			L3:       NewCache(fmt.Sprintf("socket%d.L3", s), cfg.L3, cfg.L3Policy),
			Mem:      NewChannel(fmt.Sprintf("socket%d.mem", s), cfg.MemCtrlService),
			QPI:      NewChannel(fmt.Sprintf("socket%d.qpi", s), cfg.QPIService),
			platform: p,
		}
		// Sharer masks are one bit per core; a wider socket back-invalidates
		// by scanning every core.
		sock.L3.tracking = cfg.InclusiveL3 && cfg.CoresPerSocket <= 64
		for i := 0; i < cfg.CoresPerSocket; i++ {
			id := s*cfg.CoresPerSocket + i
			core := &Core{
				ID:     id,
				Socket: sock,
				L1:     NewCache(fmt.Sprintf("core%d.L1D", id), cfg.L1D, ReplaceLRU),
				L2:     NewCache(fmt.Sprintf("core%d.L2", id), cfg.L2, ReplaceLRU),
				bit:    1 << (i & 63),
			}
			sock.Cores = append(sock.Cores, core)
			p.Cores = append(p.Cores, core)
		}
		p.Sockets = append(p.Sockets, sock)
	}
	return p
}

// HomeSocket returns the socket whose memory controller owns addr. By
// default domain d homes to socket d % Sockets, so domain ids beyond the
// socket count give callers private domains with a well-defined home —
// the runtime allocates each flow's state from its own private domain so
// the state can be re-homed independently (see SetDomainHome).
func (p *Platform) HomeSocket(addr Addr) *Socket {
	d := DomainOf(addr)
	if s, ok := p.domainHome[d]; ok {
		return p.Sockets[s]
	}
	return p.Sockets[d%len(p.Sockets)]
}

// DomainHome returns the socket id addresses of NUMA domain d currently
// home to.
func (p *Platform) DomainHome(d int) int {
	if s, ok := p.domainHome[d]; ok {
		return s
	}
	return d % len(p.Sockets)
}

// SetDomainHome re-homes NUMA domain d to the given socket's memory
// controller: every subsequent miss on a domain-d address is served
// there. It models the end state of a state migration — after the copy,
// the structure's lines live in the destination socket's memory — without
// relocating simulated addresses, so Go-side structures keep their
// recorded pointers. Callers charge the copy itself (remote reads of
// every line, then local writes) before installing the override.
//
// The mapping is read on every cache miss without locking: call this
// only while no core is executing (the runtime does so at quantum
// barriers, where channel synchronisation orders the write before every
// worker's next access).
func (p *Platform) SetDomainHome(d, socket int) {
	if socket < 0 || socket >= len(p.Sockets) {
		panic(fmt.Sprintf("hw: domain %d re-homed to nonexistent socket %d", d, socket))
	}
	if p.domainHome == nil {
		p.domainHome = make(map[int]int)
	}
	p.domainHome[d] = socket
}

// Access performs one memory reference by this core at virtual time now
// and returns its latency in cycles. The lookup walks L1 → L2 → L3 →
// memory; fills propagate inward, dirty victims write back outward, and —
// when the L3 is inclusive — an L3 eviction back-invalidates private
// copies across the socket, which is the mechanism by which one flow's
// cache pressure destroys another flow's L1/L2 locality.
//
// Each level's miss leaves its victim pending in that cache, so the fill
// that follows does not scan the set again (see Cache). For an inclusive
// L3 the core's bit is added to the line's sharer mask before the fills
// place it in the private caches.
//
//dataplane:owner the simulated core is the single writer of its element cells
func (c *Core) Access(now uint64, addr Addr, write bool, fn FuncID) uint64 {
	cfg := &c.Socket.platform.Cfg
	cnt := &c.Counters
	line := uint64(addr >> LineShift)

	lat := cfg.L1Latency
	cnt.L1Refs++
	if c.L1.lookup(line, write) >= 0 {
		cnt.L1Hits++
		return lat
	}

	lat += cfg.L2Latency
	cnt.L2Refs++
	if c.L2.lookup(line, write) >= 0 {
		cnt.L2Hits++
		c.fillL1(now, line)
		return lat
	}

	// Shared L3.
	sock := c.Socket
	lat += cfg.L3Latency
	cnt.L3Refs++
	cnt.Func[fn].L3Refs++
	if c.elems != nil {
		c.elems[c.curElem].L3Refs++
	}
	way := sock.L3.lookup(line, false)
	if way >= 0 {
		cnt.L3Hits++
		cnt.Func[fn].L3Hits++
		if c.elems != nil {
			c.elems[c.curElem].L3Hits++
		}
	} else {
		cnt.L3Misses++
		cnt.Func[fn].L3Misses++
		if c.elems != nil {
			c.elems[c.curElem].L3Misses++
		}

		// Memory access, possibly across the interconnect.
		home := sock.platform.HomeSocket(addr)
		if home != sock {
			cnt.RemoteRefs++
			qwait := sock.QPI.Occupy(now + lat)
			cnt.QPIQueueCycles += qwait
			lat += qwait + cfg.QPILatency
		}
		mwait := home.Mem.Occupy(now + lat)
		cnt.MemQueueCycles += mwait
		lat += mwait + cfg.DRAMLatency
		if home != sock {
			// Response hop: the return traversal adds latency but the request
			// already reserved the link slot.
			lat += cfg.QPILatency
		}
		way = c.insertL3(now, line, write)
	}
	if sock.L3.sharers != nil {
		sock.L3.sharers[way] |= c.bit
	}
	c.insertL2(now, line, false)
	w1 := c.fillL1(now, line)
	if write && c.L1.tags[w1] == line {
		// The private copy carries the dirtiness; the L3 copy will be
		// marked dirty when the private copy writes back. The line is at
		// w1 unless a back-invalidation removed it during the fill.
		c.L1.meta[w1] |= 1
	}
	return lat
}

// DMAWrite models the NIC delivering a received line at virtual time now:
// with direct cache access the line is allocated into the socket's L3 and
// any stale private copies are invalidated. The core is not charged
// cycles; the NIC, not the core, does the work.
func (c *Core) DMAWrite(now uint64, addr Addr) {
	line := uint64(addr >> LineShift)
	sock := c.Socket
	if l3 := sock.L3; l3.filtering() {
		// Under inclusion only lines the L3 holds can have private
		// copies, and only on the cores in their sharer mask.
		if w := l3.find(line); w >= 0 {
			sock.backInvalidate(line, l3.sharers[w])
			l3.sharers[w] = 0
		}
	} else {
		for _, peer := range sock.Cores {
			peer.L1.invalidate(line)
			peer.L2.invalidate(line)
		}
	}
	c.insertL3(now, line, true)
}

// fillL1 places line in the L1 and returns its way.
func (c *Core) fillL1(now uint64, line uint64) int {
	way, ev := c.L1.fill(line, false)
	if ev.ok && ev.dirty {
		// Write the victim back into L2; if L2 no longer holds it the
		// write-back allocates there (and may cascade).
		if !c.L2.markDirty(ev.line) {
			c.insertL2(now, ev.line, true)
		}
	}
	return way
}

func (c *Core) insertL2(now uint64, line uint64, dirty bool) {
	_, ev := c.L2.fill(line, dirty)
	if ev.ok && ev.dirty {
		if !c.Socket.L3.markDirty(ev.line) {
			c.insertL3(now, ev.line, true)
		}
	}
}

// insertL3 places line in the socket's L3 and returns its way.
func (c *Core) insertL3(now uint64, line uint64, dirty bool) int {
	sock := c.Socket
	way, ev := sock.L3.fill(line, dirty)
	if !ev.ok {
		return way
	}
	vdirty := ev.dirty
	if sock.platform.Cfg.InclusiveL3 {
		// Inclusive L3: displaced lines may not survive in private caches.
		if sock.L3.filtering() {
			vdirty = sock.backInvalidate(ev.line, ev.sharers) || vdirty
		} else {
			for _, peer := range sock.Cores {
				vdirty = peer.invalidatePrivate(ev.line) || vdirty
			}
		}
	}
	if vdirty {
		// Posted write-back: consumes controller bandwidth, adds no
		// latency to the access that triggered the eviction.
		sock.platform.HomeSocket(Addr(ev.line << LineShift)).Mem.Occupy(now)
	}
	return way
}

// backInvalidate removes line from the L1 and L2 of the cores in mask,
// in ascending order, and reports whether any removed copy was dirty.
func (s *Socket) backInvalidate(line, mask uint64) (dirty bool) {
	for ; mask != 0; mask &= mask - 1 {
		dirty = s.Cores[bits.TrailingZeros64(mask)].invalidatePrivate(line) || dirty
	}
	return dirty
}

// invalidatePrivate removes line from the core's L1 and L2 and reports
// whether either copy was dirty.
func (c *Core) invalidatePrivate(line uint64) bool {
	_, d1 := c.L1.invalidate(line)
	_, d2 := c.L2.invalidate(line)
	return d1 || d2
}

// FlushCaches invalidates every cache on the platform and resets channel
// state; counters are left untouched.
func (p *Platform) FlushCaches() {
	for _, s := range p.Sockets {
		s.L3.Flush()
		s.Mem.Reset()
		s.QPI.Reset()
		for _, c := range s.Cores {
			c.L1.Flush()
			c.L2.Flush()
		}
		// Every cache of the socket is empty, so the sharer masks cover
		// every private holder again.
		s.L3.sharersLost = false
	}
}
