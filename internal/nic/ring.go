package nic

import (
	"runtime"
	"sync/atomic"

	"retina/internal/mbuf"
)

// Ring is a lock-light single-producer/single-consumer descriptor ring —
// the software analogue of a NIC receive queue's descriptor ring, and
// the replacement for the per-packet Go channel the first reproduction
// used. The producer (the simulated port) and the consumer (one core)
// synchronize only through two atomic cursors, so a burst of 32 packets
// costs two atomic stores instead of 32 channel operations.
//
// Exactly one goroutine may enqueue and exactly one may dequeue;
// Occupancy and Close are safe from any goroutine. The ring never blocks
// the producer: when it is full the producer keeps the excess (and drops
// it, counted as ring_overflow) exactly as a hardware ring would.
type Ring struct {
	buf  []*mbuf.Mbuf
	mask uint64
	capa uint64 // usable capacity (the configured RingSize)

	// The cursors live on separate cache lines so the producer's tail
	// stores do not false-share with the consumer's head stores.
	_    [64]byte
	head atomic.Uint64 // next slot to dequeue; owned by the consumer
	_    [64]byte
	tail atomic.Uint64 // next slot to enqueue; owned by the producer
	_    [64]byte

	closed atomic.Bool
	poked  atomic.Bool
	// high is the deepest occupancy ever observed, maintained by the
	// producer after each enqueue (monotonic; plain atomic store suffices
	// since only the producer writes it).
	high atomic.Uint64
	// notify carries consumer wakeups. The producer's non-blocking send
	// after an enqueue (or Close) pairs with the consumer's blocking
	// receive in Wait; capacity 1 makes the token sticky, so the
	// check-then-sleep race cannot lose a wakeup.
	notify chan struct{}
}

// NewRing creates a ring holding up to size descriptors. The backing
// array is rounded up to a power of two for mask indexing, but the
// usable capacity is exactly size, preserving RingSize drop semantics.
func NewRing(size int) *Ring {
	if size <= 0 {
		size = 1
	}
	pow2 := 1
	for pow2 < size {
		pow2 <<= 1
	}
	return &Ring{
		buf:    make([]*mbuf.Mbuf, pow2),
		mask:   uint64(pow2 - 1),
		capa:   uint64(size),
		notify: make(chan struct{}, 1),
	}
}

// EnqueueBurst enqueues as many of ms as fit and returns that count.
// Single producer only. A short return means the ring was full; the
// caller still owns (and must account for) ms[n:].
func (r *Ring) EnqueueBurst(ms []*mbuf.Mbuf) int {
	tail := r.tail.Load()
	free := r.capa - (tail - r.head.Load())
	n := uint64(len(ms))
	if n > free {
		n = free
	}
	if n == 0 {
		return 0
	}
	for i := uint64(0); i < n; i++ {
		r.buf[(tail+i)&r.mask] = ms[i]
	}
	r.tail.Store(tail + n) // publishes the slots written above
	if d := tail + n - r.head.Load(); d > r.high.Load() {
		r.high.Store(d)
	}
	r.wake()
	return int(n)
}

// DequeueBurst fills out with up to len(out) mbufs and returns the
// count. Single consumer only; it never blocks (see Wait).
func (r *Ring) DequeueBurst(out []*mbuf.Mbuf) int {
	head := r.head.Load()
	avail := r.tail.Load() - head
	n := uint64(len(out))
	if n > avail {
		n = avail
	}
	if n == 0 {
		return 0
	}
	for i := uint64(0); i < n; i++ {
		idx := (head + i) & r.mask
		out[i] = r.buf[idx]
		r.buf[idx] = nil // release the reference for GC
	}
	r.head.Store(head + n) // returns the slots to the producer
	return int(n)
}

// Wait blocks until the ring is non-empty, poked, or closed-and-drained.
// It returns true when there is something to dequeue — or spuriously,
// after a Poke — and false when the ring is closed and empty (end of
// traffic). It spins briefly before parking — under load the producer
// refills within a few iterations and the consumer never touches the
// scheduler.
func (r *Ring) Wait() bool {
	for spin := 0; spin < 64; spin++ {
		if r.tail.Load() != r.head.Load() || r.poked.Swap(false) {
			return true
		}
		if r.closed.Load() {
			// Re-check after observing closed: Close stores the flag
			// after the producer's final enqueue.
			return r.tail.Load() != r.head.Load()
		}
		runtime.Gosched()
	}
	for {
		if r.tail.Load() != r.head.Load() || r.poked.Swap(false) {
			return true
		}
		if r.closed.Load() {
			return r.tail.Load() != r.head.Load()
		}
		<-r.notify
	}
}

// Poke wakes the consumer without enqueuing anything: its next Wait
// returns true even though the ring may be empty. The control plane
// pokes every core's ring after publishing a new program set so idle
// cores reach a burst boundary — where program pickup happens — without
// waiting for traffic.
func (r *Ring) Poke() {
	r.poked.Store(true)
	r.wake()
}

// Close marks the ring as finished. The consumer drains what remains,
// then Wait returns false.
func (r *Ring) Close() {
	r.closed.Store(true)
	r.wake()
}

// Reopen undoes Close so the ring carries another run's traffic. Call it
// before the consumer starts waiting: a consumer that already saw the
// ring closed and empty has exited.
func (r *Ring) Reopen() { r.closed.Store(false) }

// Occupancy reports the current depth and usable capacity — the ring
// high-watermark signal cores consult to shed optional work. Safe from
// any goroutine.
func (r *Ring) Occupancy() (used, capacity int) {
	head := r.head.Load()
	tail := r.tail.Load()
	d := tail - head
	if d > r.capa { // transient cursor skew between the two loads
		d = r.capa
	}
	return int(d), int(r.capa)
}

// Head reports the consumer cursor: the count of frames dequeued over
// the ring's lifetime. With Tail it gives migration drain detection a
// precise fence — once Head catches a Tail snapshot taken at a RETA
// swap, every frame enqueued before the swap has been dequeued. Safe
// from any goroutine.
func (r *Ring) Head() uint64 { return r.head.Load() }

// Tail reports the producer cursor: the count of frames enqueued over
// the ring's lifetime. Safe from any goroutine.
func (r *Ring) Tail() uint64 { return r.tail.Load() }

// HighWater reports the deepest occupancy the ring has ever reached —
// the burstiness witness behind the retina_ring_high_water gauge. Safe
// from any goroutine.
func (r *Ring) HighWater() int {
	h := r.high.Load()
	if h > r.capa {
		h = r.capa
	}
	return int(h)
}

func (r *Ring) wake() {
	select {
	case r.notify <- struct{}{}:
	default: // a wakeup token is already pending
	}
}
