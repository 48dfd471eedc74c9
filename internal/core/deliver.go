package core

import (
	"retina/internal/aggregate"
	"retina/internal/conntrack"
	"retina/internal/mbuf"
	"retina/internal/offload"
	"retina/internal/overload"
	"retina/internal/proto"
)

// Delivery: user callbacks for packets, sessions and stream chunks, and
// the terminal verdicts published to the flow-offload manager.

// Record batch sizes, in records: the first batch is small, each next
// one doubles, up to recordBatchMax.
const (
	recordBatchMin = 2
	recordBatchMax = 64
)

// recordBatch hands out the records delivered to callbacks that may keep
// them (SessionEvent, ConnRecord) from batches carved on the core, so a
// delivery costs a fraction of an allocation. Each slot is handed out
// once and never reused: a callback may retain its record for as long
// as it likes, which keeps the record's whole batch alive. Batches grow
// geometrically from a small first one, as connState chunks do, so a
// run that delivers few records carves few unused ones. Core goroutine
// only.
type recordBatch[T any] struct {
	free []T // the current batch's slots not yet handed out
	size int // size of the last batch carved
}

// next returns a zeroed record no one else holds.
func (b *recordBatch[T]) next() *T {
	if len(b.free) == 0 {
		n := recordBatchMin
		if b.size > 0 {
			n = min(2*b.size, recordBatchMax)
		}
		b.size = n
		b.free = make([]T, n)
	}
	r := &b.free[0]
	b.free = b.free[1:]
	return r
}

// drop forgets the current batch and starts the next run small again:
// a finished core pins no batch of its own; only records a callback
// kept hold theirs.
func (b *recordBatch[T]) drop() { *b = recordBatch[T]{} }

// emitStream delivers or buffers one reconstructed chunk for every
// byte-stream subscription in scope. Pre-verdict bytes are copied per
// pending subscription (bounded); post-match bytes are copied once per
// matched subscription into the callback's chunk — chunk Data ownership
// passes to the callback, so subscriptions never share backing arrays.
func (c *Core) emitStream(conn *conntrack.Conn, cs *connState, seq uint32, payload []byte, orig bool) {
	for i := range cs.subs {
		s := &cs.subs[i]
		// A dormant entry's chunks start at its first matching packet.
		if !s.inScope() || s.spec.Sub.Level != LevelStream {
			continue
		}
		chunk := StreamChunk{
			Tuple:  conn.Tuple,
			Orig:   orig,
			Seq:    seq,
			Data:   append([]byte(nil), payload...),
			Tick:   c.now,
			CoreID: c.ID,
		}
		if s.phase == phaseMatched {
			c.stages.Time(StageCallback, func() { s.spec.Sub.OnStream(&chunk) })
			c.ctr.deliveredChunks.Inc()
			s.spec.Delivered.Inc()
			continue
		}
		// Pre-verdict chunks are speculative copies: bounded per
		// connection, budgeted per core, and skipped outright under
		// pool/ring pressure.
		if s.streamBufBytes+len(payload) > maxStreamBufBytes ||
			c.acct.LowResources() ||
			!c.acct.TryReserve(overload.ClassStreamBuf, len(payload)) {
			c.ctr.streamBufOverflow.Inc()
			continue
		}
		s.streamBuf = append(s.streamBuf, chunk)
		s.streamBufBytes += len(payload)
		cs.syncMem(conn)
	}
}

// queueOffload publishes a connection's terminal verdict to the
// flow-offload manager (once per connection): subsequent frames of the
// flow can be dropped at the device without changing any subscription's
// output. Requests batch up and flush at the burst boundary.
func (c *Core) queueOffload(conn *conntrack.Conn, cs *connState, v offload.Verdict) {
	if c.cfg.Offload == nil || cs.offloaded {
		return
	}
	key, _ := conn.Tuple.Canonical()
	cs.offloaded = true
	c.offloadReqs = append(c.offloadReqs, offload.Request{Key: key, Tick: c.now, Verdict: v})
}

// queueOffloadRemove revokes a connection's flow rule when its backing
// conntrack entry dies (expiry or pressure eviction): a recreated
// connection must be re-evaluated in software, so the table stays
// coherent with conntrack.
func (c *Core) queueOffloadRemove(conn *conntrack.Conn, cs *connState) {
	if c.cfg.Offload == nil || !cs.offloaded {
		return
	}
	cs.offloaded = false
	key, _ := conn.Tuple.Canonical()
	c.offloadReqs = append(c.offloadReqs, offload.Request{Key: key, Tick: c.now, Remove: true})
}

// flushOffload publishes the accumulated offload requests at a burst
// boundary, tagged with the core's current epoch so the manager can
// discard verdicts reached against a retired program set.
func (c *Core) flushOffload() {
	if len(c.offloadReqs) == 0 {
		return
	}
	c.cfg.Offload.Submit(c.ps.Epoch, c.offloadReqs)
	c.offloadReqs = c.offloadReqs[:0]
}

// deliverPacket invokes one subscription's packet callback for an mbuf,
// whether it arrived this instant or was buffered awaiting the filter
// verdict. Packet.Data aliases the mbuf's pooled buffer, which is freed
// — and may be recycled for a new packet — the moment the callback
// returns; the no-retain contract on Packet.Data exists so this
// zero-copy hand-off stays safe. Frame-level delivery counting is the
// caller's job (a frame delivered to N subscriptions counts once).
func (c *Core) deliverPacketTo(spec *SubSpec, m *mbuf.Mbuf) {
	c.runOnPacket(spec, m)
	spec.Delivered.Inc()
}

// runOnPacket is deliverPacketTo without the subscription's delivery
// count, for the per-packet fast path, which counts per burst.
func (c *Core) runOnPacket(spec *SubSpec, m *mbuf.Mbuf) {
	if l := c.lat; l != nil && m.RxNanos != 0 {
		// Memo hit open-coded here: observeRx is past the inlining
		// budget, and one compare beats a call on the per-delivery path.
		// A negative delta converts to a huge uint64, misses the memo,
		// and observeRx clamps it.
		if n := uint64(c.nowNs - m.RxNanos); n == l.lastRxNs {
			l.rxLocal.ObserveAt(l.lastRxIdx, n)
		} else {
			l.observeRx(c.nowNs - m.RxNanos)
		}
	}
	c.pktOut = Packet{Data: m.Data(), Tick: m.RxTick, CoreID: c.ID}
	c.stages.Time(StageCallback, func() { spec.Sub.OnPacket(&c.pktOut) })
}

func (c *Core) deliverSessionTo(spec *SubSpec, conn *conntrack.Conn, s *proto.Session) {
	ev := c.sessEvents.next()
	*ev = SessionEvent{Session: s, Tuple: conn.Tuple, Tick: c.now, CoreID: c.ID}
	c.stages.Time(StageCallback, func() { spec.Sub.OnSession(ev) })
	c.ctr.deliveredSessions.Inc()
	spec.Delivered.Inc()
	if spec.Agg != nil && spec.Agg.Q.Stage == aggregate.StageSession {
		if st := c.aggState(spec); st != nil {
			sni := ""
			if s.Data != nil {
				sni, _ = s.Data.StringField("sni")
			}
			st.UpdateSession(&conn.Tuple, conn.Service, sni, c.now)
		}
	}
}
