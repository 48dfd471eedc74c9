// Package mbuf implements DPDK-style message buffers.
//
// An Mbuf is a fixed-capacity packet buffer drawn from a bounded pool.
// The pool keeps buffer memory off the garbage collector's hot path the
// same way DPDK's mempool keeps packet memory out of the kernel: a buffer
// is made once and recycled by reference count. Where DPDK reserves the
// whole mempool in hugepages at startup, the pool's size is only a bound:
// buffers are made in chunks, the first at construction and the rest on
// first need, and never returned, so a run pays (in Go's zeroing of
// every allocation) only for the buffers it holds at its peak.
//
// Mbufs carry receive metadata only (port, queue, arrival tick, RSS
// hash, RX timestamp). The multi-layer filter's progress does not ride
// on the buffer: the packet filter's matched frontier travels in its
// filter.Result, and a connection keeps its own per-subscription mark,
// so downstream filters never re-traverse the trie (the paper's §4.1,
// "non-terminating packet filter matches").
//
// A pool buffer may also be a borrowed view of bytes it does not own —
// DPDK's external-buffer attach. Cache.Borrow wraps a source's frame in
// a pool buffer without copying it; the frame must stay readable and
// unchanged until every holder has let go of the view. A holder that
// keeps the buffer longer calls Keep, which detaches it: the bytes are
// copied into the buffer's own pool storage and the view is dropped.
// The reassembler calls Keep only on a segment it parks, so a segment
// that passes straight through is never copied.
// SetData drops the view before it writes, so nothing ever writes
// through a borrowed view, and a buffer rejoins its pool pointing at its
// own storage again.
package mbuf

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Default geometry mirrors DPDK's RTE_MBUF_DEFAULT_BUF_SIZE: enough for a
// 1500-byte MTU frame plus headroom.
const (
	DefaultBufSize  = 2048
	DefaultHeadroom = 128
)

var (
	// ErrPoolExhausted is returned by Pool.Alloc when no buffers remain.
	// Callers treat this as packet drop (rx_nombuf in DPDK terms).
	ErrPoolExhausted = errors.New("mbuf: pool exhausted")
	// ErrTooLarge is returned when appended data exceeds buffer capacity.
	ErrTooLarge = errors.New("mbuf: data larger than buffer capacity")
)

// Mbuf is a single packet buffer. The zero value is not usable; obtain
// Mbufs from a Pool or a Cache (hot path) or via FromBytes (tests).
type Mbuf struct {
	buf  []byte // full backing storage, len == cap
	off  int    // start of packet data (headroom before it)
	ln   int    // length of packet data
	pool *Pool  // owning pool; nil for heap-backed bufs
	// refs is the reference count. Ref and shared frees update it
	// atomically; allocation stores it plainly, and Free/FreeBulk skip
	// the locked decrement when a plain load reads 1 — the caller then
	// holds the only reference, so nobody else may touch the count.
	refs int32

	// Receive metadata.
	Port    uint16 // ingress port id
	Queue   uint16 // RSS queue the packet was delivered to
	RxTick  uint64 // virtual-clock tick at reception
	RSSHash uint32 // RSS hash computed by the (simulated) NIC
	// slot is the buffer's index in its pool, which locates its own
	// storage in the pool's chunks; the borrowed bit marks buf
	// as a view of someone else's bytes. It sits in the padding after
	// RSSHash, so the Mbuf stays 80 bytes.
	slot uint32
	// RxNanos is the wall-clock RX timestamp (metrics.NowNanos at NIC
	// ingress), the software stand-in for the NIC's hardware timestamp
	// register. Zero when RX stamping is disabled.
	RxNanos int64
}

// borrowed marks slot's buffer as a borrowed view.
const borrowed = 1 << 31

// FromBytes wraps data in a heap-backed Mbuf (copying it). Intended for
// tests and one-off buffers; offline ingestion borrows through
// Cache.Borrow instead.
func FromBytes(data []byte) *Mbuf {
	m := &Mbuf{
		buf: make([]byte, DefaultHeadroom+len(data)),
		off: DefaultHeadroom,
		ln:  len(data),
	}
	copy(m.buf[m.off:], data)
	m.refs = 1
	return m
}

// Data returns the packet bytes. The returned slice aliases the buffer
// (or, for a borrowed view, the source's frame); it must not be retained
// past Free (callers that need to keep bytes copy them or take a
// reference and call Keep).
func (m *Mbuf) Data() []byte { return m.buf[m.off : m.off+m.ln] }

// Len returns the packet length in bytes.
func (m *Mbuf) Len() int { return m.ln }

// Headroom returns the number of free bytes before the packet data.
func (m *Mbuf) Headroom() int { return m.off }

// Tailroom returns the number of free bytes after the packet data.
func (m *Mbuf) Tailroom() int { return len(m.buf) - m.off - m.ln }

// SetData replaces the packet contents, honoring headroom.
func (m *Mbuf) SetData(data []byte) error {
	m.home()
	if len(data) > len(m.buf)-m.off {
		return ErrTooLarge
	}
	copy(m.buf[m.off:], data)
	m.ln = len(data)
	return nil
}

// Ref increments the reference count. Each holder must call Free once.
// A holder that reads the data after the source may reuse a borrowed
// frame also calls Keep.
func (m *Mbuf) Ref() *Mbuf {
	atomic.AddInt32(&m.refs, 1)
	return m
}

// Keep readies the buffer for a holder that reads it past the burst it
// arrived in and returns view rebased onto the bytes it keeps; the
// holder's reference is taken apart, with Ref. A borrowed buffer is
// detached: its data moves into its own pool storage, so the source
// may reuse its frame. view must be nil or lie within Data() as it read
// before the call; a buffer that owns its storage returns it unchanged.
func (m *Mbuf) Keep(view []byte) []byte {
	data := m.Data()
	var at int
	if view != nil {
		at = int(uintptr(unsafe.Pointer(unsafe.SliceData(view))) - uintptr(unsafe.Pointer(unsafe.SliceData(data))))
		if at < 0 || at+len(view) > len(data) {
			panic("mbuf: Keep view outside the buffer's data")
		}
	}
	if m.slot&borrowed != 0 {
		m.detach()
		if view != nil {
			view = m.Data()[at : at+len(view)]
		}
	}
	return view
}

// detach copies a borrowed buffer's data into its own storage, behind
// the usual headroom, and drops the view.
func (m *Mbuf) detach() {
	data := m.Data()
	m.home()
	copy(m.buf[m.off:], data)
}

// home points a borrowed buffer back at its own pool storage, behind
// the usual headroom, dropping the view (a no-op for a buffer that owns
// its storage).
func (m *Mbuf) home() {
	if m.slot&borrowed != 0 {
		m.slot &^= borrowed
		m.buf = m.pool.storage(m.slot)
		m.off = headroom(len(m.buf))
	}
}

// headroom is the headroom a buffer of size bytes reserves.
func headroom(size int) int {
	if DefaultHeadroom > size {
		return 0
	}
	return DefaultHeadroom
}

// RefCount reports the current reference count.
func (m *Mbuf) RefCount() int { return int(atomic.LoadInt32(&m.refs)) }

// release drops one reference and reports whether it was the last. The
// sole owner (count 1) takes no locked instruction.
func (m *Mbuf) release() bool {
	if atomic.LoadInt32(&m.refs) == 1 {
		m.refs = 0
		return true
	}
	n := atomic.AddInt32(&m.refs, -1)
	if n < 0 {
		panic("mbuf: double free")
	}
	return n == 0
}

// Free drops one reference; when the count reaches zero the buffer is
// returned to its pool (or released to the GC for heap-backed bufs).
func (m *Mbuf) Free() {
	if m == nil {
		return
	}
	if m.release() && m.pool != nil {
		m.home()
		m.pool.put(m)
	}
}

// Pool is a bounded mbuf allocator. It is safe for concurrent use; in
// the share-nothing pipeline each core typically owns its own pool, but
// the generator and rings may hand buffers across goroutines, so the free
// list is guarded.
//
// The bound is not paid for up front: buffers are made chunkBufs at a
// time, the first chunk in NewPool and each later one the first time
// the free list cannot serve a request, and a buffer once made is
// recycled for the pool's lifetime, never returned to the GC. A run
// pays for the buffers it holds at its peak, not for the bound.
type Pool struct {
	mu   sync.Mutex
	free []*Mbuf
	// chunks holds each chunk's storage, chunkBufs buffers of bufSize
	// bytes. The table is sized for the bound in NewPool, and an entry is
	// written under mu before any buffer of its chunk is handed out, so
	// storage may read it without the lock.
	chunks  [][]byte
	made    int // buffers made so far, at most size
	bufSize int
	size    int

	allocs atomic.Uint64
	fails  atomic.Uint64
}

// chunkBufs is how many buffers a pool makes at a time: 1 MiB of
// DefaultBufSize buffers, more than an offline run holds at once, so
// an offline run allocates nothing in the pool after NewPool.
const chunkBufs = 512

// NewPool returns a pool bounded at n buffers of bufSize bytes each and
// makes its first chunk (see Pool). bufSize <= 0 selects DefaultBufSize.
func NewPool(n, bufSize int) *Pool {
	if bufSize <= 0 {
		bufSize = DefaultBufSize
	}
	p := &Pool{bufSize: bufSize, size: n, chunks: make([][]byte, (n+chunkBufs-1)/chunkBufs)}
	p.grow()
	return p
}

// grow makes the next chunk of buffers and puts them on the free list,
// reporting false when the pool has already made all it may. The caller
// holds p.mu or, in NewPool, the only reference to p.
func (p *Pool) grow() bool {
	k := min(chunkBufs, p.size-p.made)
	if k <= 0 {
		return false
	}
	// Room for every buffer made, so a free never reallocates the list.
	p.free = slices.Grow(p.free, p.made+k-len(p.free))
	p.chunks[p.made/chunkBufs] = make([]byte, k*p.bufSize)
	ms := make([]Mbuf, k)
	for i := range ms {
		m := &ms[i]
		m.pool, m.slot = p, uint32(p.made+i)
		m.buf = p.storage(m.slot)
		p.free = append(p.free, m)
	}
	p.made += k
	return true
}

// storage returns slot's own bytes in its chunk.
func (p *Pool) storage(slot uint32) []byte {
	i := int(slot%chunkBufs) * p.bufSize
	return p.chunks[slot/chunkBufs][i : i+p.bufSize : i+p.bufSize]
}

// reset readies a buffer taken off the free list: headroom reserved,
// no data, no metadata, one reference. The buffer is exclusively the
// caller's, so the count is stored plainly.
func (m *Mbuf) reset() {
	m.off = headroom(len(m.buf))
	m.ln = 0
	m.Port, m.Queue, m.RxTick, m.RSSHash, m.RxNanos = 0, 0, 0, 0, 0
	m.refs = 1
}

// Alloc returns a buffer with headroom reserved and refcount 1.
func (p *Pool) Alloc() (*Mbuf, error) {
	p.mu.Lock()
	if len(p.free) == 0 && !p.grow() {
		p.mu.Unlock()
		p.fails.Add(1)
		return nil, ErrPoolExhausted
	}
	n := len(p.free)
	m := p.free[n-1]
	p.free = p.free[:n-1]
	p.mu.Unlock()

	m.reset()
	p.allocs.Add(1)
	return m, nil
}

// AllocData allocates a buffer and fills it with data.
func (p *Pool) AllocData(data []byte) (*Mbuf, error) {
	m, err := p.Alloc()
	if err != nil {
		return nil, err
	}
	if err := m.SetData(data); err != nil {
		m.Free()
		return nil, err
	}
	return m, nil
}

// AllocBulk fills out with freshly allocated buffers (headroom reserved,
// refcount 1) under a single free-list lock — the DPDK
// rte_pktmbuf_alloc_bulk analogue the burst datapath uses to amortize
// pool locking. It returns how many buffers it allocated; a short return
// means the pool ran out mid-burst (the shortfall is counted as
// allocation failures, one per missing buffer) and out[n:] is left
// untouched.
func (p *Pool) AllocBulk(out []*Mbuf) int {
	n := p.take(out)
	// Reset outside the lock: the buffers are exclusively ours now.
	for _, m := range out[:n] {
		m.reset()
	}
	p.allocs.Add(uint64(n))
	if short := len(out) - n; short > 0 {
		p.fails.Add(uint64(short))
	}
	return n
}

// take moves up to len(out) buffers off the free list into out under
// one lock — as many as the pool holds or may still make, never more —
// and returns how many. It counts nothing and resets nothing.
func (p *Pool) take(out []*Mbuf) int {
	p.mu.Lock()
	for len(p.free) < len(out) && p.grow() {
	}
	n := min(len(p.free), len(out))
	if n > 0 {
		tail := p.free[len(p.free)-n:]
		copy(out[:n], tail)
		clear(tail)
		p.free = p.free[:len(p.free)-n]
	}
	p.mu.Unlock()
	return n
}

// Cache hands out a pool's buffers one at a time from bulk takes, so a
// producer locks the pool once per burst rather than once per frame
// (DPDK's per-lcore mempool cache). A refill takes as many buffers as
// the pool holds, up to the cache's size, in one lock round trip, so a
// drained pool is charged one allocation failure per frame it could not
// store, not one per cache slot. Allocations are counted as buffers are
// handed out and published to the pool's counters at each refill and
// Release. Not safe for concurrent use: each producer owns one.
type Cache struct {
	pool *Pool
	bufs []*Mbuf // bufs[:n] are held for handing out
	n    int
	// handed counts buffers handed out since the last publication.
	handed uint64
}

// NewCache returns an empty cache of size buffers (at least one) over p.
func NewCache(p *Pool, size int) *Cache {
	return &Cache{pool: p, bufs: make([]*Mbuf, max(size, 1))}
}

// AllocData hands out a buffer holding a copy of data. It fails as
// next does.
func (c *Cache) AllocData(data []byte) (*Mbuf, error) {
	m, err := c.next(len(data))
	if err != nil {
		return nil, err
	}
	m.ln = copy(m.buf[m.off:], data)
	return m, nil
}

// Borrow hands out a buffer whose data is frame itself, not a copy: a
// borrowed view that frame must outlive unchanged until every holder
// has freed the buffer or detached it with Keep. It fails as next does,
// so a frame too large for the buffer's own storage — where Keep would
// copy it — is refused here.
func (c *Cache) Borrow(frame []byte) (*Mbuf, error) {
	m, err := c.next(len(frame))
	if err != nil {
		return nil, err
	}
	m.buf, m.off, m.ln = frame[:len(frame):len(frame)], 0, len(frame)
	m.slot |= borrowed
	return m, nil
}

// next hands out a reset buffer with room for size bytes of data,
// refilling the cache first when it is empty. It fails with
// ErrPoolExhausted when the pool has no buffer (one allocation failure
// counted) and with ErrTooLarge when size does not fit a buffer
// (checked after a buffer is found, as Pool.AllocData does; the buffer
// stays in the cache).
func (c *Cache) next(size int) (*Mbuf, error) {
	if c.n == 0 {
		c.publish()
		if c.n = c.pool.take(c.bufs); c.n == 0 {
			c.pool.fails.Add(1)
			return nil, ErrPoolExhausted
		}
	}
	m := c.bufs[c.n-1]
	m.reset()
	if size > len(m.buf)-m.off {
		return nil, ErrTooLarge
	}
	c.n--
	c.bufs[c.n] = nil
	c.handed++
	return m, nil
}

// Release returns every buffer the cache holds to the pool and
// publishes the allocation count, leaving the pool exactly as if each
// handed-out buffer had been allocated singly.
func (c *Cache) Release() {
	if c.n > 0 {
		c.pool.putBulk(c.bufs[:c.n])
		clear(c.bufs[:c.n])
		c.n = 0
	}
	c.publish()
}

func (c *Cache) publish() {
	if c.handed > 0 {
		c.pool.allocs.Add(c.handed)
		c.handed = 0
	}
}

// FreeBulk drops one reference from each non-nil buffer and returns
// every buffer that reached refcount zero to its pool under a single
// lock per pool. Heap-backed buffers are simply released to the GC. The
// refcount semantics are exactly n calls to Free.
func FreeBulk(ms []*Mbuf) {
	var pool *Pool
	// Collect pool returns on the stack: bursts are at most a few dozen
	// mbufs, so the common case stays allocation-free; larger inputs
	// flush in chunks of len(buf).
	var buf [64]*Mbuf
	batch := buf[:0]
	for _, m := range ms {
		if m == nil {
			continue
		}
		if !m.release() || m.pool == nil {
			continue
		}
		m.home()
		if pool != nil && (m.pool != pool || len(batch) == len(buf)) {
			// Mixed-pool burst (rare) or a full stack batch: flush what
			// we have and restart the batch.
			pool.putBulk(batch)
			batch = batch[:0]
		}
		pool = m.pool
		batch = append(batch, m)
	}
	if pool != nil && len(batch) > 0 {
		pool.putBulk(batch)
	}
}

func (p *Pool) put(m *Mbuf) {
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}

func (p *Pool) putBulk(ms []*Mbuf) {
	p.mu.Lock()
	p.free = append(p.free, ms...)
	p.mu.Unlock()
}

// Available reports the number of buffers an allocation may still get:
// the free ones plus those not yet made.
func (p *Pool) Available() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free) + p.size - p.made
}

// Size reports the pool's bound, the most buffers it ever holds.
func (p *Pool) Size() int { return p.size }

// InUse reports the number of buffers currently held by callers. A
// balanced pipeline run returns every buffer, so InUse()==0 is the
// refcount-balance invariant fuzz targets and tests assert after a run.
func (p *Pool) InUse() int { return p.size - p.Available() }

// Stats reports cumulative allocations and allocation failures.
func (p *Pool) Stats() (allocs, fails uint64) {
	return p.allocs.Load(), p.fails.Load()
}
