package runtime

import (
	"fmt"
	"sync/atomic"
)

// Ring is a bounded single-producer single-consumer queue of packets,
// the software analogue of a NIC receive queue: the dispatcher (the
// "NIC") produces into it, exactly one worker consumes from it. Packet
// bytes are copied into pre-allocated slots, so steady-state operation
// performs no allocation; when the ring is full the producer drops the
// packet, which is precisely how input overload surfaces on a real
// dataplane (tail drop at the receive queue).
//
// head and tail are monotonically increasing; (tail − head) is the
// occupancy. The producer only writes tail, the consumer only writes
// head, and each slot is published by the tail store (release) and
// consumed before the head store (acquire via atomic loads), the standard
// SPSC discipline.
//
// Batched operation moves each cursor once per batch instead of once per
// slot: the producer stages slots (Stage) and publishes them with a
// single tail store (Commit); the consumer reads ahead of head
// (PopStaged) and releases the slots with a single head store (Release).
// staged and taken are plain fields — each is touched only by its own
// side of the ring, so they need no atomicity.
type Ring struct {
	slots  [][]byte
	lens   []int32
	stamps []uint64 // enqueue timestamps (virtual cycles), slot-parallel
	mask   uint64

	_      [64]byte // keep producer and consumer cursors on separate lines
	tail   atomic.Uint64
	staged uint64 // producer-side: slots written beyond tail, unpublished
	_      [64]byte
	head   atomic.Uint64
	taken  uint64 // consumer-side: slots read beyond head, unreleased
}

// NewRing builds a ring of the given capacity (rounded up to a power of
// two, minimum 2) whose slots hold packets of up to maxPacket bytes.
func NewRing(capacity, maxPacket int) *Ring {
	if capacity <= 0 || maxPacket <= 0 {
		panic(fmt.Sprintf("runtime: invalid ring %d x %d", capacity, maxPacket))
	}
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &Ring{
		slots:  make([][]byte, n),
		lens:   make([]int32, n),
		stamps: make([]uint64, n),
		mask:   uint64(n - 1),
	}
	for i := range r.slots {
		r.slots[i] = make([]byte, maxPacket)
	}
	return r
}

// Cap returns the ring's capacity in packets.
func (r *Ring) Cap() int { return len(r.slots) }

// Len returns the current occupancy. It is safe to call from any
// goroutine; while producer and consumer run the value may be stale, but
// it is always a consistent pair: head, tail, then head again, retried
// until both head reads agree, so a pop and a push between the loads
// cannot make tail − head negative.
func (r *Ring) Len() int {
	for {
		h := r.head.Load()
		t := r.tail.Load()
		if r.head.Load() == h {
			return int(t - h)
		}
	}
}

// Consumed returns the cumulative number of packets popped from the
// ring — the credit counter the dispatcher's backpressure accounting
// differences across barriers.
func (r *Ring) Consumed() uint64 { return r.head.Load() }

// Push copies p into the ring, stamped with the virtual-cycle time at
// which it was enqueued (the start of the packet's end-to-end latency).
// It returns false — the packet is dropped — when the ring is full or p
// exceeds the slot size. Only the single producer may call Push. A Push
// also publishes any slots the producer had staged.
//
//dataplane:hotpath
func (r *Ring) Push(p []byte, stamp uint64) bool {
	if !r.Stage(p, stamp) {
		r.Commit()
		return false
	}
	r.Commit()
	return true
}

// Stage copies p into the next free slot without publishing it: the
// consumer cannot see staged slots until Commit stores the tail cursor
// once for the whole batch. Returns false when the ring (including
// already-staged slots) is full or p exceeds the slot size. Only the
// single producer may call Stage.
//
//dataplane:hotpath
func (r *Ring) Stage(p []byte, stamp uint64) bool {
	t := r.tail.Load() + r.staged
	if t-r.head.Load() >= uint64(len(r.slots)) {
		return false
	}
	slot := r.slots[t&r.mask]
	if len(p) > len(slot) {
		return false
	}
	copy(slot, p)
	r.lens[t&r.mask] = int32(len(p))
	r.stamps[t&r.mask] = stamp
	r.staged++
	return true
}

// Commit publishes every staged slot with a single tail store — the
// batch analogue of Push's per-packet publish. A no-op when nothing is
// staged. Only the single producer may call Commit.
//
//dataplane:hotpath
func (r *Ring) Commit() {
	if r.staged == 0 {
		return
	}
	r.tail.Store(r.tail.Load() + r.staged) // publish the batch
	r.staged = 0
}

// PushBatch stages every packet of ps (all stamped alike) and publishes
// them with one tail store. It returns how many were accepted; a short
// return means the ring filled (packets beyond the return were dropped,
// exactly as scalar Push would have dropped them one by one).
//
//dataplane:hotpath
func (r *Ring) PushBatch(ps [][]byte, stamp uint64) int {
	n := 0
	for _, p := range ps {
		if !r.Stage(p, stamp) {
			break
		}
		n++
	}
	r.Commit()
	return n
}

// Pop copies the next packet into dst and returns its length and enqueue
// stamp. It returns ok=false when the ring is empty. Only the single
// consumer may call Pop; dst must hold at least the ring's maxPacket
// bytes. A Pop also releases any slots the consumer had consumed via
// PopStaged.
//
//dataplane:hotpath
func (r *Ring) Pop(dst []byte) (n int, stamp uint64, ok bool) {
	n, stamp, ok = r.PopStaged(dst)
	r.Release()
	return n, stamp, ok
}

// PopStaged copies the next packet into dst without releasing its slot:
// the producer cannot reuse consumed slots until Release stores the head
// cursor once for the whole batch. Returns ok=false when the ring
// (beyond already-consumed slots) is empty. Only the single consumer may
// call PopStaged.
//
//dataplane:hotpath
func (r *Ring) PopStaged(dst []byte) (n int, stamp uint64, ok bool) {
	h := r.head.Load() + r.taken
	if h == r.tail.Load() {
		return 0, 0, false
	}
	ln := int(r.lens[h&r.mask])
	copy(dst[:ln], r.slots[h&r.mask])
	stamp = r.stamps[h&r.mask]
	r.taken++
	return ln, stamp, true
}

// Release frees every slot consumed since the last Release with a single
// head store — the batch analogue of Pop's per-packet release. A no-op
// when nothing is pending. Only the single consumer may call Release.
//
//dataplane:hotpath
func (r *Ring) Release() {
	if r.taken == 0 {
		return
	}
	r.head.Store(r.head.Load() + r.taken) // release the batch
	r.taken = 0
}

// PopBatch drains up to len(dsts) packets into the caller's buffers and
// releases them with one head store. lens and stamps receive the
// per-packet lengths and enqueue stamps; all three slices must be the
// same length. It returns how many packets were popped.
//
//dataplane:hotpath
func (r *Ring) PopBatch(dsts [][]byte, lens []int, stamps []uint64) int {
	n := 0
	for n < len(dsts) {
		ln, stamp, ok := r.PopStaged(dsts[n])
		if !ok {
			break
		}
		lens[n] = ln
		stamps[n] = stamp
		n++
	}
	r.Release()
	return n
}
