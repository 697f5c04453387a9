package runtime

import (
	"pktpredict/internal/apps"
	"pktpredict/internal/click"
	"pktpredict/internal/elements"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/nic"
	"pktpredict/internal/obs"
	"pktpredict/internal/trafficgen"
)

// Receive-path attribution matches elements.FromDevice, so a runtime
// worker's per-packet profile lines up with the offline solo profile the
// predictor is built from; the compute costs come from the same
// centralised constants.
var fnRingRx = hw.RegisterFunc("from_device")

// flow is one running flow instance: a pipeline replica (or a raw
// synthetic source) plus its input ring and admission-control element.
// A flow is bound to exactly one worker at a time; live re-placement
// exchanges the bindings of two workers at a barrier. The flow's state
// (tables, buffers) stays in the NUMA domain it was allocated from, so a
// migrated flow pays remote-memory latency — exactly the cost a real
// dataplane weighs before moving work across sockets.
type flow struct {
	id      int
	app     *appState
	replica int

	pipe    *click.Pipeline   // nil for synthetic flows
	raw     hw.PacketSource   // non-nil for synthetic flows
	ring    *Ring             // nil for synthetic flows
	control *elements.Control // non-nil when the app carries admission control
	traffic *trafficgen.Spec  // the build-time source's generator spec, when it had one

	// stages is non-nil for cross-worker service chains: one entry per
	// pipeline stage, each bound to its own worker (see chain.go). A
	// chain is placed, migrated, and throttled as one unit.
	stages []*chainStage

	// state records where the flow's live tables sit in simulated memory
	// (build-time source buffers excluded); stateBytes is their summed
	// footprint. stateHome is the socket whose memory controller
	// currently serves those lines: it starts as the home of the flow's
	// private NUMA domain(s) and follows the flow when a migration copies
	// the state (Runtime.migrateState). A flow running on a worker whose
	// socket differs from stateHome pays QPI on every table reference.
	state      []apps.StateBinding
	stateBytes uint64
	stateHome  int

	// packets counts fully executed packets since measurement start. The
	// owning worker increments it; the control loop reads it at barriers.
	// prevPackets is the control loop's window cursor into it.
	packets     uint64
	prevPackets uint64

	// elems is the flow's per-element cost table for unstaged flows (nil
	// for synthetic flows and chains — a chain keeps one table per stage,
	// see chainStage.elems): slot 0 is the flow's overhead (source pulls,
	// recycling), slot i+1 is pipe.Nodes()[i]. The table is installed on
	// whichever core the flow is bound to (hw.Core.SetElemTable) and
	// follows the flow across migrations; only the owning worker writes
	// it, the control loop differences it against prevElems at barriers
	// and resetMeasurement snapshots baseElems.
	elems, prevElems, baseElems []hw.ElemCell

	// lat is the flow's end-to-end latency histogram for unstaged flows
	// (chains record into per-stage shards instead): finish-clock minus
	// ring-enqueue stamp, observed by the owning worker after each
	// packet's trace executes. prevLat/baseLat are the control-window and
	// measurement-start snapshots.
	lat, prevLat, baseLat obs.LatHist

	// lastConsumed is the dispatcher's credit cursor: the ring's consumed
	// count at the last barrier (see dispatcher.enqueue).
	lastConsumed uint64

	baseReceived, baseDropped, baseFinished uint64
	// baseBranch holds each pipeline node's terminal counters at
	// measurement start, aligned with pipe.Nodes().
	baseBranch []branchCounters
}

// stageState sums the state footprint of one chain stage and returns the
// socket currently homing it (-1 when the stage allocated nothing).
func (f *flow) stageState(stage int, p *hw.Platform) (bytes uint64, socket int) {
	socket = -1
	for _, b := range f.state {
		if b.Stage != stage {
			continue
		}
		bytes += b.Size
		if socket < 0 {
			socket = p.DomainHome(b.Domain())
		}
	}
	return bytes, socket
}

// branchCounters is one node's terminal counter snapshot.
type branchCounters struct {
	dropped, finished uint64
}

// branchTotals returns the flow's per-node terminal counters relative to
// the measurement baseline, aligned with pipe.Nodes(). It returns nil
// for synthetic flows.
func (f *flow) branchTotals() []branchCounters {
	if f.pipe == nil {
		return nil
	}
	nodes := f.pipe.Nodes()
	out := make([]branchCounters, len(nodes))
	for i, n := range nodes {
		var base branchCounters
		if i < len(f.baseBranch) {
			base = f.baseBranch[i]
		}
		out[i] = branchCounters{
			dropped:  n.Dropped - base.dropped,
			finished: n.Finished - base.finished,
		}
	}
	return out
}

// totals returns the flow's pipeline counters relative to the
// measurement baseline. For a chain, packets enter at stage 0 and reach
// exactly one terminal across the stages (packets still inside hand-off
// rings are neither; see flow.inFlight).
func (f *flow) totals() (received, dropped, finished uint64) {
	if f.stages != nil {
		var d, fin uint64
		for _, u := range f.stages {
			d += u.runner.Dropped
			fin += u.runner.Finished
		}
		return f.packets, d, fin
	}
	if f.pipe == nil {
		return f.packets, 0, f.packets
	}
	r, d, fin := f.pipe.Totals()
	return r - f.baseReceived, d - f.baseDropped, fin - f.baseFinished
}

// ringSource adapts a flow's input ring to click.Source: the worker-side
// receive path. Popping a packet takes a buffer from the worker's
// NUMA-local pool, copies the bytes in (modelled as the NIC's DMA into
// the socket's L3 via direct cache access), and consumes an RX
// descriptor — the same trace FromDevice emits, with the ring replacing
// the inline generator.
type ringSource struct {
	pool    *nic.BufferPool
	rx      *nic.Ring
	ring    *Ring
	scratch []byte

	// pollEvery is the modelled receive batch (Params.RxBatch): the RX
	// poll cost is charged on the first pull of each burst and every
	// pollEvery pulls after it. sincePoll tracks the position within the
	// burst and resets at batch end (endBatch), so poll charges align
	// with the worker's actual batch boundaries. pollEvery 1 charges the
	// poll on every pull — the historical unbatched cost.
	pollEvery int
	sincePoll int

	// pkts preallocates one Packet header per pool buffer. A packet and
	// its buffer share a lifetime (both released by Recycle), so indexing
	// by the buffer slot makes Pull allocation-free: pkts[idx] cannot be
	// reused before buffer idx is.
	pkts []click.Packet

	// lastEnq publishes the enqueue stamp of the most recent Pull to the
	// owning worker (same goroutine), so an unstaged pipeline's worker —
	// which never sees the Packet itself — can record the end-to-end
	// latency after the trace executes. lastEnqOK marks it fresh.
	lastEnq   uint64
	lastEnqOK bool
}

func newRingSource(arena *mem.Arena, buffers, bufSize, ringSize, rxBatch int) *ringSource {
	alloc := (bufSize + 511) &^ 511 // buffers never share cache lines
	if rxBatch < 1 {
		rxBatch = 1
	}
	return &ringSource{
		pool:      nic.NewBufferPool(arena, buffers, alloc),
		rx:        nic.NewRing(arena, ringSize),
		scratch:   make([]byte, bufSize),
		pkts:      make([]click.Packet, buffers),
		pollEvery: rxBatch,
	}
}

// Class implements click.Source.
func (rs *ringSource) Class() string { return "RingSource" }

// Pull implements click.Source.
//
//dataplane:stamped source-side ring and DMA ops are flow overhead (slot 0) by design
//dataplane:hotpath
func (rs *ringSource) Pull(ctx *click.Ctx) *click.Packet {
	if rs.ring == nil {
		return nil
	}
	n, stamp, ok := rs.ring.PopStaged(rs.scratch)
	if !ok {
		return nil
	}
	rs.lastEnq, rs.lastEnqOK = stamp, true
	old := ctx.SetFunc(fnRingRx)
	defer ctx.SetFunc(old)
	idx, data, addr := rs.pool.Get(ctx)
	copy(data[:n], rs.scratch[:n])
	ctx.DMABytes(addr, n)
	rs.rx.Consume(ctx)
	if rs.sincePoll == 0 {
		// First packet of an RX burst pays the poll, as FromDevice does;
		// the rest of the batch rides on it.
		ctx.Compute(elements.RxPollCompute, elements.RxPollInstrs)
	}
	rs.sincePoll++
	if rs.sincePoll == rs.pollEvery {
		rs.sincePoll = 0
	}
	ctx.Compute(elements.RxCompute, elements.RxInstrs)
	p := &rs.pkts[idx]
	*p = click.Packet{Data: data[:n], Addr: addr, Recycler: rs, PoolIndex: idx, Enq: stamp}
	return p
}

// endBatch closes the worker's current receive burst: the slots taken by
// PopStaged are released with one cursor store, and the next pull starts
// a fresh burst (paying a fresh RX poll). Called by runBatch after
// every batch loop, so ring cursors are exact at barriers.
//
//dataplane:hotpath
func (rs *ringSource) endBatch() {
	rs.sincePoll = 0
	if rs.ring != nil {
		rs.ring.Release()
	}
}

// Recycle implements click.Recycler.
//
//dataplane:hotpath
func (rs *ringSource) Recycle(ctx *click.Ctx, p *click.Packet) {
	rs.pool.Put(ctx, p.PoolIndex)
}

// worker is one run-to-completion dataplane thread pinned to one
// simulated core. Its socket's goroutine drives it, batch by batch, in
// virtual-time order with the socket's other workers (see runSocket).
type worker struct {
	id     int
	core   *hw.Core
	socket int
	src    *ringSource
	batch  int

	fl    *flow
	unit  *chainStage // non-nil when bound to one stage of a chain
	opbuf []hw.Op

	// Owner-written telemetry, read by the control loop at barriers.
	// Batch polls clipped by the quantum boundary (the clock ran out
	// mid-batch with input still available) are counted apart from the
	// occupancy sums: a boundary-clipped poll says nothing about how
	// full the input rings run, and folding it in biased BatchOccupancy
	// low — the shorter the quantum, the worse.
	packets     uint64 // packets since measurement start
	winBatchSum uint64 // packets in occupancy-counted polls, this control window
	winBatchCnt uint64 // occupancy-counted batch polls, this control window
	winClipped  uint64 // quantum-clipped batch polls, this control window
	totBatchSum uint64
	totBatchCnt uint64
	totClipped  uint64

	prevCounters hw.Counters // control-window baseline
	prevClock    uint64
	baseCounters hw.Counters // measurement-start baseline

	// lastRemotePerPkt is the previous control window's remote references
	// per packet on this core — the "before" side of a migration's
	// locality telemetry (see Migration.RemotePerPktBeforeA) — and
	// lastWindowPackets that window's packet count, which gates the
	// "after" side: a window with no traffic measures nothing.
	lastRemotePerPkt  float64
	lastWindowPackets uint64

	// Per-binding baselines, reset whenever the worker's flow changes
	// (and at measurement start), so reported packets are attributed to
	// the app that actually processed them rather than to whichever flow
	// held the final binding after a migration.
	bindPackets uint64
	bindClock   uint64

	// Hot-path metric handles, resolved at build time (nil when no
	// registry is configured): per-worker packet counter, batch-fill
	// histogram, clipped-poll counter, and spin-poll counter — each
	// update one atomic op.
	mPackets *obs.Counter
	mBatch   *obs.Histogram
	mClipped *obs.Counter
	mSpins   *obs.Counter

	// shard is the worker's private trace buffer (nil when tracing is
	// off). A chain stage that processes a sampled packet leaves the
	// span's identity in the pend fields; runBatch brackets the trace's
	// execution with core-clock reads and records the span.
	shard     *obs.TraceShard
	pendTrace uint64
	pendPid   int
	pendStage int
	pendDeq   bool
	pendEnq   bool

	// pendLat carries a finished packet's ring-enqueue stamp from step to
	// runBatch, which records finish − enqueue into pendHist after the
	// packet's trace has advanced the core clock. pendHist is the
	// single-writer shard the latency belongs to (the unstaged flow's
	// histogram, or the terminating chain stage's).
	pendLat  uint64
	pendHist *obs.LatHist
}

// bind attaches f (an unstaged flow, or nil) to w: the flow's pipeline
// draws packets from this worker's receive path from now on.
func (w *worker) bind(f *flow) {
	w.fl = f
	w.unit = nil
	w.bindPackets = w.packets
	w.bindClock = w.core.Clock()
	if f == nil {
		w.src.ring = nil
		w.core.SetElemTable(nil)
		return
	}
	w.src.ring = f.ring
	if f.pipe != nil {
		f.pipe.Source = w.src
	}
	// The flow's per-element table follows it to this core; only this
	// worker writes it from now on.
	w.core.SetElemTable(f.elems)
}

// bindStage attaches one chain stage to w. Chains are pinned: stages are
// bound once at construction and never migrate, so their hand-off rings
// keep exactly one producer and one consumer.
func (w *worker) bindStage(u *chainStage) {
	w.fl = u.fl
	w.unit = u
	w.bindPackets = w.packets
	w.bindClock = w.core.Clock()
	u.workerIdx = w.id
	w.core.SetElemTable(u.elems)
	if u.stage == 0 {
		w.src.ring = u.fl.ring
		u.src = w.src
	} else {
		w.src.ring = nil
	}
}

// runBatch executes one batch poll: up to w.batch packets, cut short
// when the core's clock reaches limit or the input runs dry; a worker
// whose input is already dry idles to limit. The dispatcher only refills
// receive rings at barriers, so within a quantum an empty receive ring
// stays empty. Chain stages may instead emit spin-wait traces with no
// packet (their hand-off rings are fed live by a peer); those advance
// the clock without counting towards throughput or batch occupancy, and
// end the batch once the clock reaches yield — the clock of the
// socket's next runnable worker, which in virtual time runs before the
// spinner polls again (see runSocket).
func (w *worker) runBatch(limit, yield uint64) {
	n := 0
	progressed, yielded := false, false
	for n < w.batch && w.core.Clock() < limit {
		ops, pkts := w.step()
		if len(ops) == 0 {
			break
		}
		progressed = true
		if pkts > 0 {
			if w.pendTrace != 0 {
				// A sampled packet's stage work: bracket its execution
				// with core-clock reads so the span is the charged
				// virtual time, hand-off costs included.
				start := w.core.Clock()
				w.core.ExecOps(ops)
				w.shard.Exec(obs.TraceEvent{
					Trace: w.pendTrace, Pid: w.pendPid, Tid: w.id,
					Stage: w.pendStage, Start: start, End: w.core.Clock(),
					Dequeued: w.pendDeq, Enqueued: w.pendEnq,
				})
				w.pendTrace = 0
			} else {
				w.core.ExecOps(ops)
			}
			if w.pendHist != nil {
				// The packet's walk terminated this step: its end-to-end
				// latency is the core clock now that its trace has
				// executed, minus the dispatcher's enqueue stamp.
				w.pendHist.Observe(w.core.Clock() - w.pendLat)
				w.pendHist = nil
			}
			w.packets++
			if w.mPackets != nil {
				w.mPackets.Inc()
			}
			n++
		} else {
			w.core.ExecStall(ops)
			if c := w.core.Clock(); c >= yield && c < limit {
				yielded = true
				break
			}
		}
	}
	// Close the batch: release the receive ring's cursor once for the
	// whole burst, and publish/release any slots a chain stage staged on
	// its hand-off rings.
	if w.src != nil {
		w.src.endBatch()
	}
	if w.unit != nil {
		w.unit.flush(w)
	}
	switch {
	case yielded && n == 0:
		// A spin handed the socket to a peer before any packet arrived:
		// a wait, not a poll observation.
	case progressed && n < w.batch && w.core.Clock() >= limit && w.inputReady():
		// The quantum boundary cut this batch short with input still
		// available: its fill reflects the clock, not the ring, so it is
		// counted apart instead of biasing occupancy low.
		w.winClipped++
		w.totClipped++
		if w.mClipped != nil {
			w.mClipped.Inc()
		}
	default:
		w.winBatchSum += uint64(n)
		w.winBatchCnt++
		w.totBatchSum += uint64(n)
		w.totBatchCnt++
		if w.mBatch != nil {
			w.mBatch.Observe(float64(n))
		}
	}
	if !progressed {
		w.core.AdvanceTo(limit)
	}
}

// inputReady reports whether the worker could have kept filling its
// current batch had the quantum not ended: the bound flow has packets
// waiting and its output is not blocked. Used only to classify a
// boundary-clipped poll — a starved or backpressured batch is a genuine
// occupancy observation even when the clock also ran out.
func (w *worker) inputReady() bool {
	switch {
	case w.fl == nil:
		return false
	case w.unit != nil:
		u := w.unit
		if u.out != nil && u.out.Full() {
			return false
		}
		if u.stage == 0 {
			return w.src.ring != nil && w.src.ring.Len() > 0
		}
		return u.in != nil && u.in.Len() > 0
	case w.fl.pipe != nil:
		return w.src.ring != nil && w.src.ring.Len() > 0
	default:
		// Synthetic sources drive themselves; work is always available.
		return true
	}
}

// step performs one unit of work for the bound flow and reports whether a
// packet was fully processed. Empty ops mean the worker has nothing to do
// until the next barrier.
func (w *worker) step() ([]hw.Op, int) {
	switch {
	case w.fl == nil:
		return nil, 0
	case w.unit != nil:
		return w.unit.step(w)
	case w.fl.pipe != nil:
		w.src.lastEnqOK = false
		ops := w.fl.pipe.EmitPacket(w.opbuf[:0])
		if len(ops) == 0 {
			return nil, 0
		}
		w.opbuf = ops
		w.fl.packets++
		if w.src.lastEnqOK {
			// Run-to-completion: the packet pulled this step also finished
			// this step; leave its stamp for runBatch to record once the
			// trace has executed.
			w.pendLat, w.pendHist = w.src.lastEnq, &w.fl.lat
		}
		return ops, 1
	default:
		ops := w.fl.raw.EmitPacket(w.opbuf[:0])
		if len(ops) == 0 {
			return nil, 0
		}
		w.opbuf = ops
		w.fl.packets++
		return ops, 1
	}
}

// occupancy converts a batch-fill sum/count pair to a mean fraction.
func occupancy(sum, cnt uint64, batch int) float64 {
	if cnt == 0 || batch == 0 {
		return 0
	}
	return float64(sum) / float64(cnt) / float64(batch)
}
