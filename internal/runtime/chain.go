package runtime

import (
	"fmt"

	"pktpredict/internal/click"
	"pktpredict/internal/handoff"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/obs"
)

// Cross-worker service chains: a staged Click graph (click.AssignStages)
// runs each stage on its own worker, connected by handoff rings. Unlike
// the dispatcher's receive rings — refilled only at barriers — handoff
// rings are live SPSC queues between two workers advancing through the
// same quantum, so a starved stage spin-polls its ring (charging the
// poll's trace) instead of idling to the quantum boundary: within one
// quantum its producer may still deliver. On one socket the spinner
// yields to its peer once its clock passes the peer's (worker.runBatch);
// across sockets the two run concurrently.
//
// Buffer ownership: every packet buffer comes from the stage-0 worker's
// NUMA-local pool. A later stage that terminates a packet cannot touch
// that pool directly (the Go-side free list belongs to stage 0, which may
// run on another socket's goroutine), so each stage k>0 owns a return
// ring back to stage 0: the terminating stage pushes the spent packet
// (charging the descriptor-line store — the cross-core recycling traffic
// the paper describes), and stage 0 drains the returns into its pool
// before pulling new work.

// chainStage is one stage of one chain replica, bound to one worker.
type chainStage struct {
	fl     *flow
	stage  int
	runner *click.StageRunner

	in  *handoff.Ring // packets from the previous stage; nil at stage 0
	out *handoff.Ring // packets to the next stage; nil at the last stage

	// recycle is stage k's buffer-return ring to stage 0 (nil at stage
	// 0); returns collects every later stage's recycle ring on stage 0.
	recycle *handoff.Ring
	rec     *remoteRecycler
	returns []*handoff.Ring

	src       *ringSource // stage 0 only, attached at bind
	entry     int         // node index the stage enters the graph at (stage 0 only)
	workerIdx int

	// batched defers hand-off cursor publishes/releases to flush (once
	// per worker batch) instead of per packet — set when the scenario
	// models a receive batch (Params.RxBatch > 1).
	batched bool

	// prevPushPolls/prevPopPolls are the out ring's per-direction poll
	// counts at the last control barrier (the observability layer's
	// per-window delta cursors): push polls mean this stage's consumer
	// lags, pop polls mean the next stage starves.
	prevPushPolls uint64
	prevPopPolls  uint64

	// elems is this stage's per-element cost table (same slot layout as
	// flow.elems: slot 0 overhead, slot i+1 = pipe.Nodes()[i]). Chains
	// keep one table per stage because each stage runs on its own core;
	// a node's cost lands in the table of the stage that executes it, and
	// the control loop sums the stages at barriers.
	elems, prevElems, baseElems []hw.ElemCell

	// lat is this stage's end-to-end latency shard: a packet's latency is
	// recorded by whichever stage terminates its walk, so each stage owns
	// a single-writer histogram and the control loop merges them.
	lat, prevLat, baseLat obs.LatHist
}

// remoteRecycler routes a spent packet home through the stage's return
// ring instead of mutating the stage-0 pool from another worker.
// The descriptor-line store it charges is the recycling leg of the
// hand-off cost; the pool's own free-list trace runs on stage 0 when it
// drains the ring.
type remoteRecycler struct {
	ring *handoff.Ring
}

// Recycle implements click.Recycler.
func (rr *remoteRecycler) Recycle(ctx *click.Ctx, p *click.Packet) {
	if !rr.ring.Push(ctx, p, -1, false) {
		// The ring is sized to hold every buffer the pool owns.
		panic("runtime: chain buffer-return ring overflow")
	}
}

// buildChain cuts f's pipeline across stages workers starting at worker
// lead, wiring hand-off and return rings between consecutive stages.
func (r *Runtime) buildChain(f *flow, lead, stages int, arena func(int) *mem.Arena) error {
	depth := r.chainHandoffDepth(stages)
	f.stages = make([]*chainStage, stages)
	var prev *handoff.Ring
	for s := 0; s < stages; s++ {
		w := r.workers[lead+s]
		runner, err := f.pipe.StageRunner(s)
		if err != nil {
			return fmt.Errorf("runtime: app %q replica %d: %w", f.app.spec.Name, f.replica, err)
		}
		u := &chainStage{fl: f, stage: s, runner: runner, in: prev,
			batched: r.cfg.Params.RxBatch > 1,
			elems:   make([]hw.ElemCell, len(f.pipe.Nodes())+1)}
		if s == 0 {
			u.entry = f.pipe.HeadIndex()
		}
		if s < stages-1 {
			// Descriptor lines live in the producing stage's domain, as a
			// real driver allocates its rings locally.
			u.out = handoff.New(arena(w.socket), depth)
			prev = u.out
		}
		if s > 0 {
			u.recycle = handoff.New(arena(w.socket), r.cfg.Params.Buffers)
			u.rec = &remoteRecycler{ring: u.recycle}
			f.stages[0].returns = append(f.stages[0].returns, u.recycle)
		}
		f.stages[s] = u
		w.bindStage(u)
	}
	return nil
}

// chainHandoffDepth bounds the forward rings so that packets in flight
// plus buffers queued for return can never exhaust the stage-0 pool.
func (r *Runtime) chainHandoffDepth(stages int) int {
	depth := r.cfg.HandoffDepth
	if limit := r.cfg.Params.Buffers / (4 * (stages - 1)); depth > limit {
		depth = limit
	}
	if depth < 2 {
		depth = 2
	}
	return depth
}

// step executes one unit of stage work: recycle returned buffers, then
// pull/pop one packet and walk it through this stage, handing it onward
// if the walk crosses the cut. The second return value is 1 when a packet
// was processed; ops may be non-empty with no packet processed (a
// spin-wait poll or a drained return), which advances the clock without
// counting throughput.
func (u *chainStage) step(w *worker) ([]hw.Op, int) {
	ctx := u.runner.Ctx()
	ctx.Ops = w.opbuf[:0]
	defer func() { w.opbuf = ctx.Ops }()

	// Stage 0: return spent buffers to the pool first, so the pool can
	// never run dry while packets sit in a return ring.
	for _, ret := range u.returns {
		for {
			p, _, _, ok := ret.Pop(ctx)
			if !ok {
				break
			}
			u.src.Recycle(ctx, p)
		}
	}

	// Credit backpressure: never take a packet the next stage has no
	// slot for; spin on the ring's state line instead.
	if u.out != nil && u.out.Full() {
		u.out.PollFull(ctx)
		if w.mSpins != nil {
			w.mSpins.Inc()
		}
		return ctx.Ops, 0
	}

	var p *click.Packet
	entry := u.entry
	prior := false
	if u.in == nil {
		p = u.src.Pull(ctx)
		if p == nil {
			// The receive ring refills only at barriers; if draining the
			// returns charged nothing either, the worker idles out the
			// quantum.
			return ctx.Ops, 0
		}
		u.fl.packets++
		if w.shard != nil {
			// Sample at chain entry: a non-zero ID rides the packet (and
			// its hand-off descriptors) through every later stage.
			p.Trace = w.shard.Sample()
		}
	} else {
		var ok bool
		if u.batched {
			// Defer the head-cursor release to flush: one store per batch.
			p, entry, prior, ok = u.in.PopStaged(ctx)
		} else {
			p, entry, prior, ok = u.in.Pop(ctx)
		}
		if !ok {
			// The producer may deliver mid-quantum: spin, don't idle.
			u.in.PollEmpty(ctx)
			if w.mSpins != nil {
				w.mSpins.Inc()
			}
			return ctx.Ops, 0
		}
		u.in.ChargeHeaderMiss(ctx, p)
		p.Recycler = u.rec
	}

	// Capture the stamps before the walk: a terminating walk recycles the
	// packet into a return ring, after which stage 0 may pop the return,
	// reuse the pool slot, and overwrite this header concurrently — the
	// Packet must never be read again once Walk has run.
	enq, trace := p.Enq, p.Trace

	next, fin := u.runner.Walk(p, entry, prior)
	if next >= 0 {
		// Cannot fail: Full was checked above (and counts staged slots).
		if u.batched {
			u.out.StagePush(ctx, p, next, fin)
		} else {
			u.out.Push(ctx, p, next, fin)
		}
	} else {
		// The walk terminated here: this stage records the packet's
		// end-to-end latency (finished or dropped — either way the packet
		// left the system) once runBatch has executed its trace.
		w.pendLat, w.pendHist = enq, &u.lat
	}
	if trace != 0 && w.shard != nil {
		// The stage's trace executes after step returns; leave the span's
		// identity for runBatch to timestamp around ExecOps.
		w.pendTrace = trace
		w.pendPid = u.fl.id
		w.pendStage = u.stage
		w.pendDeq = u.in != nil
		w.pendEnq = next >= 0
	}
	return ctx.Ops, 1
}

// flush closes the stage's current batch: staged hand-off pushes are
// published and taken slots released, each with a single cursor store
// whose simulated cost (charged once per batch — the amortization
// batching buys) executes as a stall trace. runBatch calls it after
// every batch loop, so ring cursors are exact at barriers and a peer
// stage never waits past one batch for staged packets.
func (u *chainStage) flush(w *worker) {
	if !u.batched {
		return
	}
	ctx := u.runner.Ctx()
	ctx.Ops = w.opbuf[:0]
	if u.out != nil {
		u.out.CommitPush(ctx)
	}
	if u.in != nil {
		u.in.CommitPop(ctx)
	}
	w.opbuf = ctx.Ops
	if len(ctx.Ops) > 0 {
		w.core.ExecStall(ctx.Ops)
	}
}

// inFlight counts packets currently inside the chain's forward rings.
func (f *flow) inFlight() uint64 {
	var n uint64
	for _, u := range f.stages {
		if u.in != nil {
			n += uint64(u.in.Len())
		}
	}
	return n
}
