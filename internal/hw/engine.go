package hw

import "fmt"

// Flow is one packet-processing flow attached to a core. In the paper's
// configuration each receive queue's traffic — "a flow" — is pinned to
// exactly one core, which performs all processing for it (the "parallel"
// approach of Section 2.2).
type Flow struct {
	Label string
	Core  *Core

	src PacketSource
	ops []Op
	pos int

	done bool // source exhausted (EmitPacket returned no ops)
}

// Engine interleaves the execution traces of the attached flows in global
// virtual-time order: at every step the flow whose core has the smallest
// local clock executes its next micro-operation. Because shared-cache and
// memory-controller state is touched in (near) global time order,
// contention between co-runners is emergent.
type Engine struct {
	Platform *Platform
	Flows    []*Flow

	byCore map[int]*Flow
}

// NewEngine creates an engine over p with no flows attached.
func NewEngine(p *Platform) *Engine {
	return &Engine{Platform: p, byCore: make(map[int]*Flow)}
}

// Attach pins src to the core with the given global id. Attaching two
// flows to one core is an error: the modelled regime is one flow per core
// (Section 2.2 and Section 6 of the paper).
func (e *Engine) Attach(coreID int, label string, src PacketSource) *Flow {
	if coreID < 0 || coreID >= len(e.Platform.Cores) {
		panic(fmt.Sprintf("hw: core %d out of range [0,%d)", coreID, len(e.Platform.Cores)))
	}
	if _, dup := e.byCore[coreID]; dup {
		panic(fmt.Sprintf("hw: core %d already has a flow attached", coreID))
	}
	f := &Flow{Label: label, Core: e.Platform.Cores[coreID], src: src}
	e.Flows = append(e.Flows, f)
	e.byCore[coreID] = f
	return f
}

// step executes one micro-operation of f, refilling its per-packet op
// buffer from the source as needed. It returns false when the source is
// exhausted.
//
//dataplane:owner the simulated core is the single writer of its element cells
func (e *Engine) step(f *Flow) bool {
	if f.pos >= len(f.ops) {
		f.ops = f.src.EmitPacket(f.ops[:0])
		f.pos = 0
		if len(f.ops) == 0 {
			f.done = true
			return false
		}
	}
	op := f.ops[f.pos]
	f.pos++

	core := f.Core
	switch op.Kind {
	case OpCompute:
		core.clock += uint64(op.Cycles)
		core.Counters.Cycles += uint64(op.Cycles)
		core.Counters.Instructions += uint64(op.Instrs)
		core.Counters.Func[op.Func].Cycles += uint64(op.Cycles)
		if core.elems != nil {
			core.elems[op.Elem].Cycles += uint64(op.Cycles)
		}
	case OpLoad, OpStore:
		core.curElem = op.Elem
		lat := core.Access(core.clock, op.Addr, op.Kind == OpStore, op.Func)
		core.clock += lat
		core.Counters.Cycles += lat
		core.Counters.Instructions++
		core.Counters.Func[op.Func].Cycles += lat
		if core.elems != nil {
			core.elems[op.Elem].Cycles += lat
		}
	case OpLoadStream:
		core.curElem = op.Elem
		lat := core.Access(core.clock, op.Addr, false, op.Func)
		if mlp := e.Platform.Cfg.StreamMLP; mlp > 1 {
			lat = (lat + mlp - 1) / mlp
		}
		core.clock += lat
		core.Counters.Cycles += lat
		core.Counters.Instructions++
		core.Counters.Func[op.Func].Cycles += lat
		if core.elems != nil {
			core.elems[op.Elem].Cycles += lat
		}
	case OpDMAWrite:
		core.DMAWrite(core.clock, op.Addr)
	default:
		panic(fmt.Sprintf("hw: unknown op kind %d", op.Kind))
	}

	if f.pos >= len(f.ops) {
		core.Counters.Packets++
	}
	return true
}

// next returns the attached flow with the smallest core clock below limit
// that has not exhausted its source (ties go to the flow attached first),
// or nil when none remain. A step advances only the stepping flow's
// clock, so that flow stays the choice while its clock is below stop:
// limit, the clock of any runnable flow attached before it, and one past
// the clock of any attached after it.
func (e *Engine) next(limit uint64) (best *Flow, stop uint64) {
	for _, f := range e.Flows {
		c := f.Core.clock
		switch {
		case f.done || c >= limit:
		case best == nil:
			best, stop = f, limit
		case c < best.Core.clock:
			// Every flow seen so far is attached earlier and its clock is
			// at least the old best's.
			best, stop = f, best.Core.clock
		case c+1 < stop:
			stop = c + 1
		}
	}
	return best, stop
}

// RunUntil advances every flow until its core's local clock reaches at
// least t (or its source is exhausted). Flows are interleaved in global
// virtual-time order throughout; the chosen flow keeps stepping until
// another would be chosen, instead of rescanning the flows per micro-op.
func (e *Engine) RunUntil(t uint64) {
	for {
		f, stop := e.next(t)
		if f == nil {
			return
		}
		for f.Core.clock < stop && e.step(f) {
		}
	}
}

// RunSeconds advances all flows by the given amount of virtual time from
// the current maximum core clock.
func (e *Engine) RunSeconds(s float64) {
	e.RunUntil(e.maxClock() + e.Platform.Cfg.SecondsToCycles(s))
}

func (e *Engine) maxClock() uint64 {
	var m uint64
	for _, f := range e.Flows {
		if f.Core.clock > m {
			m = f.Core.clock
		}
	}
	return m
}

// Snapshot returns a copy of every flow's counters, index-aligned with
// e.Flows.
func (e *Engine) Snapshot() []Counters {
	out := make([]Counters, len(e.Flows))
	for i, f := range e.Flows {
		out[i] = f.Core.Counters
	}
	return out
}

// MeasureWindow runs a warm-up period followed by a measurement window
// (both in virtual seconds) and returns per-flow statistics for the
// window. This mirrors the paper's methodology: measure steady-state
// throughput, not cold-cache transients.
func (e *Engine) MeasureWindow(warmup, window float64) []FlowStats {
	e.RunSeconds(warmup)
	before := e.Snapshot()
	start := make([]uint64, len(e.Flows))
	for i, f := range e.Flows {
		start[i] = f.Core.clock
	}
	e.RunSeconds(window)
	stats := make([]FlowStats, len(e.Flows))
	for i, f := range e.Flows {
		delta := f.Core.Counters.Sub(before[i])
		elapsed := f.Core.clock - start[i]
		stats[i] = NewFlowStats(f.Label, delta, elapsed, e.Platform.Cfg.ClockHz)
	}
	return stats
}
