package core

import (
	"retina/internal/conntrack"
	"retina/internal/mbuf"
	"retina/internal/overload"
	"retina/internal/telemetry"
)

// Buffering and shedding (DESIGN.md §10): frames and stream chunks held
// while a subscription's verdict is pending, their budget reservations,
// and the shed queue that picks which pending connection loses its
// buffers when the packet-buffer budget runs out.

// maxStreamBufBytes bounds stream bytes buffered per connection while a
// byte-stream subscription awaits the filter verdict.
const maxStreamBufBytes = 256 << 10

// pktToken resolves one frame's drop/delivery account exactly once when
// several subscriptions buffer references to the same frame. holders is
// the number of buffer entries still holding the frame; the first flush
// marks it delivered, and a discard counts a drop only when it is the
// last holder and no delivery happened — so a frame buffered for two
// subscriptions and delivered by either counts as delivered, and counts
// as exactly one drop only when every holder discarded it.
type pktToken struct {
	holders  int
	resolved bool
}

// pktBufEntry is one buffered frame reference awaiting a subscription's
// filter verdict. tok is nil when this entry solely owns the frame's
// disposition account (the single-subscription case, and the common
// multi-subscription case of one buffering subscription).
type pktBufEntry struct {
	m   *mbuf.Mbuf
	tok *pktToken
}

// onSubFullMatch runs once when the connection first satisfies one
// subscription's whole filter: speculative buffers flush to that
// subscription's callback.
func (c *Core) onSubFullMatch(conn *conntrack.Conn, cs *connState, s *subState) {
	switch s.spec.Sub.Level {
	case LevelPacket:
		// Flush packets buffered while the verdict was pending
		// (Figure 4a: "run callback on any buffered packets").
		c.flushSubPktBuf(conn, cs, s)
	case LevelStream:
		for i := range s.streamBuf {
			ch := &s.streamBuf[i]
			c.stages.Time(StageCallback, func() { s.spec.Sub.OnStream(ch) })
			c.ctr.deliveredChunks.Inc()
			s.spec.Delivered.Inc()
		}
		s.streamBuf = nil
		c.releaseSubStreamBytes(conn, cs, s)
	}
}

// flushSubPktBuf delivers a subscription's buffered frames on match.
// Each frame counts as delivered exactly once core-wide (the shared
// token dedupes frames buffered for several subscriptions).
func (c *Core) flushSubPktBuf(conn *conntrack.Conn, cs *connState, s *subState) {
	for i := range s.pktBuf {
		e := &s.pktBuf[i]
		c.deliverPacketTo(s.spec, e.m)
		if e.tok == nil {
			c.ctr.deliveredPackets.Inc()
		} else {
			e.tok.holders--
			if !e.tok.resolved {
				c.ctr.deliveredPackets.Inc()
				e.tok.resolved = true
			}
		}
		e.m.Free()
	}
	s.pktBuf = nil
	c.releaseSubPktBytes(conn, cs, s)
}

// discardSubPktBuf frees a subscription's buffered frames unflushed,
// counting each frame's loss once core-wide under ctr (pendingDiscard,
// evictedPressure, or pktBufBudget depending on the path). A frame some
// other subscription still holds (or already delivered) is not counted
// here — its account resolves with the last holder.
func (c *Core) discardSubPktBuf(conn *conntrack.Conn, cs *connState, s *subState, ctr *telemetry.Counter) {
	for i := range s.pktBuf {
		e := &s.pktBuf[i]
		if e.tok == nil {
			ctr.Inc()
		} else {
			e.tok.holders--
			if !e.tok.resolved && e.tok.holders == 0 {
				ctr.Inc()
				e.tok.resolved = true
			}
		}
		e.m.Free()
	}
	s.pktBuf = nil
	c.releaseSubPktBytes(conn, cs, s)
}

// releaseSubPktBytes returns one subscription's packet-buffer budget
// reservation and retires the connection's shed-queue membership once no
// subscription holds buffered frames. Idempotent; callers free/deliver
// the mbufs themselves.
func (c *Core) releaseSubPktBytes(conn *conntrack.Conn, cs *connState, s *subState) {
	if s.pktBufBytes > 0 {
		c.acct.Release(overload.ClassPacketBuf, s.pktBufBytes)
		s.pktBufBytes = 0
		cs.syncMem(conn)
	}
	if cs.inPending && cs.held(overload.ClassPacketBuf) == 0 {
		c.shed.leave(cs)
	}
}

// releaseSubStreamBytes returns one subscription's stream-buffer budget
// reservation. Idempotent.
func (c *Core) releaseSubStreamBytes(conn *conntrack.Conn, cs *connState, s *subState) {
	if s.streamBufBytes > 0 {
		c.acct.Release(overload.ClassStreamBuf, s.streamBufBytes)
		s.streamBufBytes = 0
		cs.syncMem(conn)
	}
}

// shedQueue is an approximate FIFO of connections holding buffered
// packets while their filter verdict is pending — the eviction order for
// packet-buffer shedding (oldest verdict-pending first; those have
// waited longest and are the least likely to still match). Membership is
// the connection state's inPending flag; live counts the members.
// Entries go stale when a connection's buffer resolves; they are skipped
// on scan and compacted when the queue outgrows the live count. Entries
// carry the connection ID captured at enqueue: the conntrack slab
// recycles Conn storage, so a stale pointer can alias a newer connection
// — the never-reused ID exposes that (see pendingState).
type shedQueue struct {
	entries []pendingEntry
	live    int
}

// pendingEntry is one shed-queue slot: the connection pointer plus the
// ID it had when enqueued.
type pendingEntry struct {
	conn *conntrack.Conn
	id   uint64
}

// pendingState resolves a shed-queue entry to its connection state,
// reporting false for entries whose Conn storage has been recycled for
// a different connection since enqueue (conntrack slab slots are
// reused; connection IDs never are). The ID must be checked before
// UserData: a recycled slot's UserData belongs to the new connection.
func pendingState(e pendingEntry) (*connState, bool) {
	if e.conn.ID != e.id {
		return nil, false
	}
	es, ok := e.conn.UserData.(*connState)
	return es, ok
}

// join makes a connection a member unless it already is, compacting
// stale entries when they outnumber live ones.
func (q *shedQueue) join(conn *conntrack.Conn, cs *connState) {
	if cs.inPending {
		return
	}
	cs.inPending = true
	q.live++
	if len(q.entries) >= 64 && len(q.entries) >= 2*q.live {
		kept := q.entries[:0]
		for _, e := range q.entries {
			if es, ok := pendingState(e); ok && es.inPending {
				kept = append(kept, e)
			}
		}
		q.entries = kept
	}
	q.entries = append(q.entries, pendingEntry{conn: conn, id: conn.ID})
}

// leave ends a connection's membership; its entry goes stale.
func (q *shedQueue) leave(cs *connState) {
	if cs.inPending {
		cs.inPending = false
		q.live--
	}
}

// popOldest removes the oldest member other than except from the queue
// and returns it, dropping stale entries on the way; nil when there is
// none. The connection stays a member until its buffers are released.
func (q *shedQueue) popOldest(except *conntrack.Conn) *conntrack.Conn {
	i := 0
	kept := q.entries[:0]
	var victim *conntrack.Conn
	for ; i < len(q.entries); i++ {
		e := q.entries[i]
		es, ok := pendingState(e)
		if !ok || !es.inPending {
			continue // stale: buffer resolved or Conn storage recycled
		}
		if e.conn == except {
			kept = append(kept, e)
			continue
		}
		victim = e.conn
		i++
		break
	}
	q.entries = append(kept, q.entries[i:]...)
	return victim
}

// reservePktBuf reserves n packet-buffer bytes for conn, shedding the
// oldest other verdict-pending connection's buffers while the budget is
// exhausted. The arriving packet is cheaper to lose than to let one hot
// connection starve the class, but it is also the freshest signal — so
// older speculative buffers go first, and only if none remain is the
// reservation refused.
func (c *Core) reservePktBuf(conn *conntrack.Conn, n int) bool {
	for !c.acct.TryReserve(overload.ClassPacketBuf, n) {
		if !c.shedOldestPending(conn) {
			return false
		}
	}
	return true
}

// shedOldestPending discards the entire packet buffer (every
// subscription's) of the oldest verdict-pending connection other than
// except. Stale queue entries encountered on the way are dropped.
// Returns false when no candidate exists.
func (c *Core) shedOldestPending(except *conntrack.Conn) bool {
	victim := c.shed.popOldest(except)
	if victim == nil {
		return false
	}
	vs := victim.UserData.(*connState)
	for si := range vs.subs {
		s := &vs.subs[si]
		if s.spec == nil || len(s.pktBuf) == 0 {
			continue
		}
		c.discardSubPktBuf(victim, vs, s, &c.ctr.pktBufBudget)
	}
	return true
}
