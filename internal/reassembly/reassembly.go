// Package reassembly implements Retina's light-weight TCP stream
// reassembly (paper §5.2): instead of copying payloads into stream
// buffers, in-sequence segments pass straight through to the consumer
// and only out-of-order segments are parked — by reference — in a
// bounded buffer that is flushed when the hole fills. A segment whose
// buffer borrows its bytes (a Keeper) is detached when it is parked,
// never when it passes through.
//
// The design exploits the paper's measurement that 94% of flows with at
// least two packets arrive completely in order and the median hole fills
// after one packet: the common case is a comparison and a callback, no
// copy, no allocation.
//
// BufferedReassembler provides the traditional copy-into-stream-buffer
// design as the ablation baseline.
package reassembly

import (
	"errors"
	"sort"
)

// DefaultMaxOutOfOrder is the paper's default out-of-order capacity
// (500 packets per connection).
const DefaultMaxOutOfOrder = 500

// ErrBufferFull reports that a segment was dropped because the
// out-of-order buffer is at capacity.
var ErrBufferFull = errors.New("reassembly: out-of-order buffer full")

// ErrBudget reports that a segment was dropped because the byte budget
// refused it (the overload accountant's reservation failed and no
// parked segment farther ahead could be shed to make room).
var ErrBudget = errors.New("reassembly: buffer byte budget exhausted")

// Segment is one TCP payload unit flowing through the reassembler — the
// paper's L4 PDU. Payload aliases the packet buffer; Release (if set) is
// freed exactly once when the reassembler is done with the segment.
type Segment struct {
	Seq     uint32
	Payload []byte
	Orig    bool // true for originator→responder direction
	Tick    uint64
	SYN     bool
	FIN     bool

	// Release is the buffer reference Payload aliases. The reassembler
	// calls its Free exactly once: right after emitting an in-order
	// segment, or when a parked, duplicate, dropped or shed segment is
	// let go. *mbuf.Mbuf satisfies it, so the caller hands over the
	// reference it took itself and no per-segment closure is built. Nil
	// means nothing to release. If Release also implements Keeper, the
	// reassembler calls Keep before it parks the segment.
	Release interface{ Free() }
}

// Keeper is a buffer whose bytes may only be valid for the current
// Insert call — a borrowed view of a frame its source will reuse. Keep
// makes them outlive the call and returns view rebased onto the kept
// bytes.
type Keeper interface {
	Keep(view []byte) []byte
}

// release frees the segment's buffer reference, if it holds one.
func (s *Segment) release() {
	if s.Release != nil {
		s.Release.Free()
	}
}

// keep readies a segment for parking: its payload must outlive the
// Insert call.
func (s *Segment) keep() {
	if k, ok := s.Release.(Keeper); ok {
		s.Payload = k.Keep(s.Payload)
	}
}

// seqLen is the sequence-space length of the segment (SYN and FIN each
// consume one sequence number).
func (s Segment) seqLen() uint32 {
	n := uint32(len(s.Payload))
	if s.SYN {
		n++
	}
	if s.FIN {
		n++
	}
	return n
}

// seqBefore reports a < b in 32-bit wraparound arithmetic.
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

// Stats counts reassembler events for one connection.
type Stats struct {
	InOrder    uint64 // segments passed straight through
	OutOfOrder uint64 // segments parked in the buffer
	Flushed    uint64 // parked segments later delivered in order
	Dropped    uint64 // segments dropped (buffer full or byte budget)
	Retrans    uint64 // fully duplicate segments discarded
	Trimmed    uint64 // partially overlapping segments trimmed
	HoleEvents uint64 // times a hole opened
	Shed       uint64 // parked segments shed under byte-budget pressure
}

// BudgetHooks connects a reassembler to the per-core overload
// accountant. Reserve is asked before parking payload bytes; Release
// returns them when the reassembler lets go of a parked segment (drain,
// supersede, shed, or flush). OnShed observes each parked segment
// dropped to make room under pressure, so the core can count the loss
// in its drop taxonomy. Any field may be nil (accounting disabled).
type BudgetHooks struct {
	Reserve func(n int) bool
	Release func(n int)
	OnShed  func(n int)
}

func (h *BudgetHooks) reserve(n int) bool {
	if h.Reserve == nil {
		return true
	}
	return h.Reserve(n)
}

func (h *BudgetHooks) release(n int) {
	if h.Release != nil {
		h.Release(n)
	}
}

type direction struct {
	nextSeq uint32
	started bool
	ooo     []Segment // sorted by Seq
	holes   uint64
}

// Lite is the pass-through reassembler. One instance serves one
// connection (both directions). Not safe for concurrent use — each
// connection belongs to exactly one core.
type Lite struct {
	dirs   [2]direction
	maxOOO int
	stats  Stats
	budget BudgetHooks
}

// NewLite creates a reassembler with the given out-of-order capacity
// (<= 0 selects DefaultMaxOutOfOrder).
func NewLite(maxOOO int) *Lite {
	r := &Lite{}
	r.Reset(maxOOO)
	return r
}

// Reset returns the reassembler to the state NewLite(maxOOO) gives, so
// per-connection storage can be recycled. The caller must have let go of
// every parked segment first (FlushAll), and must not call Reset while
// Insert or FlushAll runs.
func (r *Lite) Reset(maxOOO int) {
	if maxOOO <= 0 {
		maxOOO = DefaultMaxOutOfOrder
	}
	*r = Lite{maxOOO: maxOOO}
}

// SetBudget installs overload-accounting hooks. Must be called before
// any segment is parked; installing hooks on a reassembler that already
// holds segments would release bytes that were never reserved.
func (r *Lite) SetBudget(h BudgetHooks) { r.budget = h }

// Stats returns a snapshot of the connection's reassembly counters.
func (r *Lite) Stats() Stats { return r.stats }

// Buffered reports the number of segments currently parked out of order.
func (r *Lite) Buffered() int { return len(r.dirs[0].ooo) + len(r.dirs[1].ooo) }

// BufferedBytes reports the payload bytes currently parked.
func (r *Lite) BufferedBytes() int {
	n := 0
	for d := 0; d < 2; d++ {
		for _, s := range r.dirs[d].ooo {
			n += len(s.Payload)
		}
	}
	return n
}

func dirIndex(orig bool) int {
	if orig {
		return 0
	}
	return 1
}

// Insert offers a segment. In-sequence segments (and any parked segments
// they unblock) are passed to emit in order. Out-of-order segments are
// parked; if the buffer is full the segment is dropped and ErrBufferFull
// returned. Empty segments without SYN/FIN are delivered immediately if
// in order and ignored otherwise (pure ACKs carry no stream data).
func (r *Lite) Insert(seg Segment, emit func(Segment)) error {
	d := &r.dirs[dirIndex(seg.Orig)]
	if !d.started {
		d.started = true
		d.nextSeq = seg.Seq
	}

	if seg.Seq == d.nextSeq {
		r.deliver(d, seg, emit)
		r.drain(d, emit)
		return nil
	}

	if seqBefore(seg.Seq, d.nextSeq) {
		// Starts in already-delivered sequence space.
		end := seg.Seq + seg.seqLen()
		if !seqBefore(d.nextSeq, end) {
			// Entirely old: retransmission.
			r.stats.Retrans++
			seg.release()
			return nil
		}
		// Partial overlap: trim the delivered prefix and deliver the rest.
		trim := d.nextSeq - seg.Seq
		if seg.SYN {
			seg.SYN = false
			trim--
		}
		if trim > 0 && int(trim) <= len(seg.Payload) {
			seg.Payload = seg.Payload[trim:]
		}
		seg.Seq = d.nextSeq
		r.stats.Trimmed++
		r.deliver(d, seg, emit)
		r.drain(d, emit)
		return nil
	}

	// Future segment: a hole just opened (or widened).
	if seg.seqLen() == 0 {
		// Out-of-window pure ACK: nothing to park.
		seg.release()
		return nil
	}
	if len(d.ooo) == 0 {
		d.holes++
		r.stats.HoleEvents++
	}
	if len(d.ooo) >= r.maxOOO {
		r.stats.Dropped++
		seg.release()
		return ErrBufferFull
	}
	// Sorted insert; same-Seq duplicates keep the longer segment (a
	// retransmit that extends the original carries bytes the shorter
	// arrival lacks — discarding it would stall the stream on a hole no
	// future segment fills).
	idx := sort.Search(len(d.ooo), func(i int) bool {
		return !seqBefore(d.ooo[i].Seq, seg.Seq)
	})
	if idx < len(d.ooo) && d.ooo[idx].Seq == seg.Seq {
		r.stats.Retrans++
		if seg.seqLen() > d.ooo[idx].seqLen() {
			oldLen, newLen := len(d.ooo[idx].Payload), len(seg.Payload)
			if newLen > oldLen && !r.shedFarther(newLen-oldLen, seg.Seq-d.nextSeq) {
				r.stats.Dropped++
				seg.release()
				return ErrBudget // keep the shorter original
			}
			if newLen < oldLen {
				r.budget.release(oldLen - newLen)
			}
			d.ooo[idx].release()
			seg.keep()
			d.ooo[idx] = seg
		} else {
			seg.release()
		}
		return nil
	}
	if !r.shedFarther(len(seg.Payload), seg.Seq-d.nextSeq) {
		r.stats.Dropped++
		seg.release()
		return ErrBudget
	}
	seg.keep()
	d.ooo = append(d.ooo, Segment{})
	copy(d.ooo[idx+1:], d.ooo[idx:])
	d.ooo[idx] = seg
	r.stats.OutOfOrder++
	return nil
}

// shedFarther makes room for n parked bytes by reserving them against
// the byte budget, shedding parked segments under pressure: while the
// reservation fails, the parked segment farthest ahead of its
// direction's delivery point — the state least likely to ever become
// deliverable, hence cheapest to lose — is dropped, but only if it is
// strictly farther ahead than the segment asking for room (dist).
// Reports whether the reservation succeeded.
func (r *Lite) shedFarther(n int, dist uint32) bool {
	for !r.budget.reserve(n) {
		var victim *direction
		var farthest uint32
		for di := range r.dirs {
			d := &r.dirs[di]
			if len(d.ooo) == 0 {
				continue
			}
			if cand := d.ooo[len(d.ooo)-1].Seq - d.nextSeq; victim == nil || cand > farthest {
				victim, farthest = d, cand
			}
		}
		if victim == nil || farthest <= dist {
			return false
		}
		last := victim.ooo[len(victim.ooo)-1]
		victim.ooo = victim.ooo[:len(victim.ooo)-1]
		freed := len(last.Payload)
		r.budget.release(freed)
		last.release()
		r.stats.Shed++
		if r.budget.OnShed != nil {
			r.budget.OnShed(freed)
		}
	}
	return true
}

func (r *Lite) deliver(d *direction, seg Segment, emit func(Segment)) {
	d.nextSeq = seg.Seq + seg.seqLen()
	r.stats.InOrder++
	emit(seg)
	seg.release()
}

// drain flushes parked segments that are now in sequence ("flushed when
// the next expected segment arrives").
func (r *Lite) drain(d *direction, emit func(Segment)) {
	for len(d.ooo) > 0 {
		head := d.ooo[0]
		if seqBefore(d.nextSeq, head.Seq) {
			return // still a hole
		}
		d.ooo = d.ooo[1:]
		r.budget.release(len(head.Payload))
		if !seqBefore(d.nextSeq, head.Seq+head.seqLen()) {
			// Entirely superseded while parked.
			r.stats.Retrans++
			head.release()
			continue
		}
		if trim := d.nextSeq - head.Seq; trim > 0 {
			if head.SYN {
				head.SYN = false
				trim--
			}
			if trim > 0 && int(trim) <= len(head.Payload) {
				head.Payload = head.Payload[trim:]
			}
			head.Seq = d.nextSeq
			r.stats.Trimmed++
		}
		d.nextSeq = head.Seq + head.seqLen()
		r.stats.Flushed++
		r.stats.InOrder++
		emit(head)
		head.release()
	}
}

// FlushAll delivers any parked segments in sequence order despite holes
// (used at connection teardown so no captured payload is silently lost).
// Parked segments are deduplicated only on exact Seq, so ranges can still
// overlap; each segment is trimmed against what has already been emitted
// so no byte is delivered twice, and teardown deliveries are counted in
// Flushed/InOrder like regular drains.
func (r *Lite) FlushAll(emit func(Segment)) {
	for di := range r.dirs {
		d := &r.dirs[di]
		next := d.nextSeq
		for _, seg := range d.ooo {
			r.budget.release(len(seg.Payload))
			if d.started && !seqBefore(next, seg.Seq) {
				end := seg.Seq + seg.seqLen()
				if !seqBefore(next, end) {
					// Entirely covered by already-emitted bytes.
					r.stats.Retrans++
					seg.release()
					continue
				}
				trim := next - seg.Seq
				if seg.SYN {
					seg.SYN = false
					trim--
				}
				if trim > 0 && int(trim) <= len(seg.Payload) {
					seg.Payload = seg.Payload[trim:]
				}
				seg.Seq = next
				r.stats.Trimmed++
			}
			next = seg.Seq + seg.seqLen()
			r.stats.Flushed++
			r.stats.InOrder++
			emit(seg)
			seg.release()
		}
		d.ooo = nil
		if d.started && seqBefore(d.nextSeq, next) {
			d.nextSeq = next
		}
	}
}
