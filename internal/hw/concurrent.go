package hw

// Concurrent trace execution. The Engine interleaves flows in global
// virtual-time order on one OS thread; the runtime (package runtime)
// instead runs one goroutine per simulated core and keeps core clocks
// loosely synchronised with a time quantum. ExecOps is the per-core
// execution primitive for that mode: it replays a packet's trace against
// the simulated hierarchy exactly as Engine.step does, holding the owning
// socket's lock for the whole trace so that same-socket workers may run
// concurrently. One acquisition per trace rather than per memory
// reference keeps the lock's hand-offs off the per-reference path; a
// worker's Go-side element processing, which builds the next trace,
// still overlaps its peers' replays.
//
// Lock order: Socket.mu → Channel.mu. Sockets never lock each other —
// an access only ever touches its own socket's caches; remote-domain
// traffic goes through the home socket's channels, which are leaf locks.

// ExecOps replays one packet's micro-operation trace on c, advancing the
// core's local clock and counters. It is safe to call concurrently from
// one goroutine per core; two goroutines must never drive the same core.
// A non-empty trace counts as one processed packet, mirroring Engine.step.
//
//dataplane:hotpath
func (c *Core) ExecOps(ops []Op) {
	c.execTrace(ops)
	if len(ops) > 0 {
		c.Counters.Packets++
	}
}

// ExecStall replays busy-work that processed no packet — a spin-wait
// poll of an empty hand-off ring, a batch of buffer returns — advancing
// the clock and cycle counters without touching the packet counter, so
// counter-derived packet rates stay honest.
//
//dataplane:hotpath
func (c *Core) ExecStall(ops []Op) {
	c.execTrace(ops)
}

//dataplane:owner the simulated core is the single writer of its element cells
//dataplane:hotpath
func (c *Core) execTrace(ops []Op) {
	cfg := &c.Socket.platform.Cfg
	cnt := &c.Counters
	c.Socket.mu.Lock()
	for _, op := range ops {
		switch op.Kind {
		case OpCompute:
			c.clock += uint64(op.Cycles)
			cnt.Cycles += uint64(op.Cycles)
			cnt.Instructions += uint64(op.Instrs)
			cnt.Func[op.Func].Cycles += uint64(op.Cycles)
			if c.elems != nil {
				c.elems[op.Elem].Cycles += uint64(op.Cycles)
			}
		case OpLoad, OpStore:
			c.curElem = op.Elem
			lat := c.Access(c.clock, op.Addr, op.Kind == OpStore, op.Func)
			c.clock += lat
			cnt.Cycles += lat
			cnt.Instructions++
			cnt.Func[op.Func].Cycles += lat
			if c.elems != nil {
				c.elems[op.Elem].Cycles += lat
			}
		case OpLoadStream:
			c.curElem = op.Elem
			lat := c.Access(c.clock, op.Addr, false, op.Func)
			if mlp := cfg.StreamMLP; mlp > 1 {
				lat = (lat + mlp - 1) / mlp
			}
			c.clock += lat
			cnt.Cycles += lat
			cnt.Instructions++
			cnt.Func[op.Func].Cycles += lat
			if c.elems != nil {
				c.elems[op.Elem].Cycles += lat
			}
		case OpDMAWrite:
			c.DMAWrite(c.clock, op.Addr)
		default:
			panic("hw: unknown op kind in ExecOps")
		}
	}
	c.Socket.mu.Unlock()
}

// BoundChannelWaits caps the queueing delay of every channel on the
// platform at maxWait cycles — the finite-controller-queue model
// concurrent execution needs (see Channel.MaxWait). Call it before any
// flow executes.
func (p *Platform) BoundChannelWaits(maxWait uint64) {
	for _, s := range p.Sockets {
		s.Mem.MaxWait = maxWait
		s.QPI.MaxWait = maxWait
	}
}

// AdvanceTo moves the core's local clock forward to t if it is behind:
// the idle time of a run-to-completion worker polling an empty queue.
// Idle cycles advance virtual time but are not charged to Counters.Cycles,
// so per-packet costs remain work-based.
func (c *Core) AdvanceTo(t uint64) {
	if c.clock < t {
		c.clock = t
	}
}
