package hw

// The array-of-structs cache model and its inclusive-L3 access path as
// they stood before the set layout became struct-of-arrays with a
// sharer-mask back-invalidation filter. They are kept verbatim as the
// reference the differential tests in cachediff_test.go replay random
// access streams against: the production model must reproduce every
// hit, victim, statistic and counter of this one.

type refLine struct {
	tag   uint64
	stamp uint64
	dirty bool
}

type refCache struct {
	Stats  CacheStats
	lines  []refLine
	sets   uint64
	ways   int
	policy ReplacementPolicy
	clock  uint64
	rng    uint64
}

func newRefCache(g CacheGeom, policy ReplacementPolicy) *refCache {
	sets := g.Sets()
	c := &refCache{
		lines:  make([]refLine, sets*g.Ways),
		sets:   uint64(sets),
		ways:   g.Ways,
		policy: policy,
		rng:    0x9e3779b97f4a7c15,
	}
	for i := range c.lines {
		c.lines[i].tag = invalidTag
	}
	return c
}

func (c *refCache) setOf(lineAddr uint64) int {
	return int(lineAddr%c.sets) * c.ways
}

func (c *refCache) Access(addr Addr, write bool) bool {
	line := uint64(addr >> LineShift)
	base := c.setOf(line)
	c.Stats.Refs++
	c.clock++
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].tag == line {
			c.lines[i].stamp = c.clock
			if write {
				c.lines[i].dirty = true
			}
			c.Stats.Hits++
			return true
		}
	}
	c.Stats.Misses++
	return false
}

func (c *refCache) Insert(addr Addr, dirty bool) (victim Addr, victimDirty, evicted bool) {
	line := uint64(addr >> LineShift)
	base := c.setOf(line)
	c.clock++

	victimIdx := base
	oldest := ^uint64(0)
	for i := base; i < base+c.ways; i++ {
		l := &c.lines[i]
		if l.tag == line {
			l.stamp = c.clock
			if dirty {
				l.dirty = true
			}
			return 0, false, false
		}
		if l.tag == invalidTag {
			victimIdx = i
			oldest = 0
		} else if oldest != 0 && l.stamp < oldest {
			victimIdx = i
			oldest = l.stamp
		}
	}
	if oldest != 0 && c.policy == ReplaceRandom {
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		victimIdx = base + int(c.rng%uint64(c.ways))
	}
	v := &c.lines[victimIdx]
	if v.tag != invalidTag {
		c.Stats.Evictions++
		if v.dirty {
			c.Stats.Writebacks++
		}
		victim = Addr(v.tag << LineShift)
		victimDirty = v.dirty
		evicted = true
	}
	v.tag = line
	v.stamp = c.clock
	v.dirty = dirty
	return victim, victimDirty, evicted
}

func (c *refCache) Invalidate(addr Addr) (present, dirty bool) {
	line := uint64(addr >> LineShift)
	base := c.setOf(line)
	for i := base; i < base+c.ways; i++ {
		l := &c.lines[i]
		if l.tag == line {
			present = true
			dirty = l.dirty
			if dirty {
				c.Stats.Writebacks++
			}
			l.tag = invalidTag
			l.dirty = false
			return present, dirty
		}
	}
	return false, false
}

func (c *refCache) MarkDirty(addr Addr) bool {
	line := uint64(addr >> LineShift)
	base := c.setOf(line)
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].tag == line {
			c.lines[i].dirty = true
			return true
		}
	}
	return false
}

// refPlatform is the reference machine: the same topology, channels and
// domain homing as Platform, over refCaches.
type refPlatform struct {
	cfg     Config
	sockets []*refSocket
	cores   []*refCore
}

type refSocket struct {
	l3       *refCache
	mem, qpi *Channel
	cores    []*refCore
	platform *refPlatform
}

type refCore struct {
	socket   *refSocket
	l1, l2   *refCache
	counters Counters
}

func newRefPlatform(cfg Config) *refPlatform {
	p := &refPlatform{cfg: cfg}
	for s := 0; s < cfg.Sockets; s++ {
		sock := &refSocket{
			l3:       newRefCache(cfg.L3, cfg.L3Policy),
			mem:      NewChannel("mem", cfg.MemCtrlService),
			qpi:      NewChannel("qpi", cfg.QPIService),
			platform: p,
		}
		for i := 0; i < cfg.CoresPerSocket; i++ {
			c := &refCore{
				socket: sock,
				l1:     newRefCache(cfg.L1D, ReplaceLRU),
				l2:     newRefCache(cfg.L2, ReplaceLRU),
			}
			sock.cores = append(sock.cores, c)
			p.cores = append(p.cores, c)
		}
		p.sockets = append(p.sockets, sock)
	}
	return p
}

func (p *refPlatform) homeSocket(addr Addr) *refSocket {
	return p.sockets[DomainOf(addr)%len(p.sockets)]
}

func (c *refCore) Access(now uint64, addr Addr, write bool, fn FuncID) uint64 {
	cfg := &c.socket.platform.cfg
	cnt := &c.counters

	lat := cfg.L1Latency
	cnt.L1Refs++
	if c.l1.Access(addr, write) {
		cnt.L1Hits++
		return lat
	}

	lat += cfg.L2Latency
	cnt.L2Refs++
	if c.l2.Access(addr, write) {
		cnt.L2Hits++
		c.fillL1(now, addr)
		return lat
	}

	sock := c.socket
	lat += cfg.L3Latency
	cnt.L3Refs++
	cnt.Func[fn].L3Refs++
	if sock.l3.Access(addr, false) {
		cnt.L3Hits++
		cnt.Func[fn].L3Hits++
		c.fillL2(now, addr)
		c.fillL1(now, addr)
		if write {
			c.l1.MarkDirty(addr)
		}
		return lat
	}
	cnt.L3Misses++
	cnt.Func[fn].L3Misses++

	home := sock.platform.homeSocket(addr)
	if home != sock {
		cnt.RemoteRefs++
		qwait := sock.qpi.Occupy(now + lat)
		cnt.QPIQueueCycles += qwait
		lat += qwait + cfg.QPILatency
	}
	mwait := home.mem.Occupy(now + lat)
	cnt.MemQueueCycles += mwait
	lat += mwait + cfg.DRAMLatency
	if home != sock {
		lat += cfg.QPILatency
	}

	c.insertL3(now, addr, write)
	c.fillL2(now, addr)
	c.fillL1(now, addr)
	if write {
		c.l1.MarkDirty(addr)
	}
	return lat
}

func (c *refCore) DMAWrite(now uint64, addr Addr) {
	for _, peer := range c.socket.cores {
		peer.l1.Invalidate(addr)
		peer.l2.Invalidate(addr)
	}
	c.insertL3(now, addr, true)
}

func (c *refCore) fillL1(now uint64, addr Addr) {
	victim, dirty, evicted := c.l1.Insert(addr, false)
	if evicted && dirty {
		if !c.l2.MarkDirty(victim) {
			c.insertL2(now, victim, true)
		}
	}
}

func (c *refCore) fillL2(now uint64, addr Addr) {
	c.insertL2(now, addr, false)
}

func (c *refCore) insertL2(now uint64, addr Addr, dirty bool) {
	victim, vdirty, evicted := c.l2.Insert(addr, dirty)
	if evicted && vdirty {
		if !c.socket.l3.MarkDirty(victim) {
			c.insertL3(now, victim, true)
		}
	}
}

func (c *refCore) insertL3(now uint64, addr Addr, dirty bool) {
	sock := c.socket
	victim, vdirty, evicted := sock.l3.Insert(addr, dirty)
	if !evicted {
		return
	}
	if sock.platform.cfg.InclusiveL3 {
		for _, peer := range sock.cores {
			if p, d := peer.l1.Invalidate(victim); p && d {
				vdirty = true
			}
			if p, d := peer.l2.Invalidate(victim); p && d {
				vdirty = true
			}
		}
	}
	if vdirty {
		sock.platform.homeSocket(victim).mem.Occupy(now)
	}
}

func (c *refCache) flush() {
	for i := range c.lines {
		c.lines[i] = refLine{tag: invalidTag}
	}
	c.Stats = CacheStats{}
}

func (p *refPlatform) flushCaches() {
	for _, s := range p.sockets {
		s.l3.flush()
		s.mem.Reset()
		s.qpi.Reset()
		for _, c := range s.cores {
			c.l1.flush()
			c.l2.flush()
		}
	}
}
