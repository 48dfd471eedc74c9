package core

import (
	"runtime"
	"testing"

	"retina/internal/conntrack"
	"retina/internal/layers"
	"retina/internal/mbuf"
	"retina/internal/overload"
	"retina/internal/proto"
	"retina/internal/traffic"
)

// TestConnLifecycleAllocs is the allocation guard of the lazy connection
// path: a campus trace through one core subscribed to TLS handshakes
// may make at most 1.5 heap allocations per created connection. The
// trace's connections are three quarters tombstones, which must cost no
// allocation at all; identified handshakes pay for their parser and
// session record. The count covers the whole run, slab chunks included.
func TestConnLifecycleAllocs(t *testing.T) {
	gen := traffic.NewCampusMix(traffic.CampusConfig{Seed: 13, Flows: 800})
	var ms []*mbuf.Mbuf
	for {
		fr, tick, ok := gen.Next()
		if !ok {
			break
		}
		m := mbuf.FromBytes(append([]byte(nil), fr...))
		m.RxTick = tick
		ms = append(ms, m)
	}
	var sessions int
	sub := &Subscription{Level: LevelSession, OnSession: func(*SessionEvent) { sessions++ }}
	// The bound is the production table's: pin the flat backend, which
	// the conntrack_map build tag would otherwise swap for the map oracle.
	ct := conntrack.DefaultConfig()
	ct.Backend = conntrack.BackendFlat
	c, err := NewCore(0, Config{Set: testSet(t, "tls", sub), Conntrack: ct})
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < len(ms); i += DefaultBurstSize {
		c.ProcessBurst(ms[i:min(i+DefaultBurstSize, len(ms))])
	}
	c.Flush()
	runtime.ReadMemStats(&after)

	conns := c.Stats().ConnsCreated
	if conns < 500 || sessions == 0 {
		t.Fatalf("trace created %d connections and %d sessions; test is vacuous", conns, sessions)
	}
	allocs := after.Mallocs - before.Mallocs
	perConn := float64(allocs) / float64(conns)
	t.Logf("%d allocations over %d connections (%d sessions): %.3f per connection", allocs, conns, sessions, perConn)
	if perConn > 1.5 {
		t.Fatalf("%.3f heap allocations per connection, want <= 1.5", perConn)
	}
}

// TestRecycledStateIgnoresStaleShedEntry pins the recycling rule: a
// finished connection's state may be reused by the next connection,
// while the packet-buffer shed queue still holds an entry for the old
// connection whose Conn slot was not reused (so its ID still matches).
// That entry must resolve to no state — finishConn clears UserData — and
// neither shed nor touch the new connection's buffers.
func TestRecycledStateIgnoresStaleShedEntry(t *testing.T) {
	pool := mbuf.NewPool(64, 0)
	var delivered int
	sub := &Subscription{Level: LevelPacket, OnPacket: func(*Packet) { delivered++ }}
	ct := conntrack.DefaultConfig()
	ct.EstablishTimeout = 500_000
	ct.InactivityTimeout = 1_000_000

	b := newFlow(t, 40003, 443)
	bFrames := b.handshake()
	bFrames = append(bFrames, b.pkt(true, layers.TCPAck, nil))
	// The budget holds B's three handshake frames but not a fourth, so
	// B's pure ACK has to ask the shed queue for room.
	budget := int64(len(bFrames[0]) + len(bFrames[1]) + len(bFrames[2]))
	c, err := NewCore(0, Config{
		Set:       testSet(t, "tls", sub),
		Conntrack: ct,
		Budget:    overload.Budget{PacketBufBytes: budget},
	})
	if err != nil {
		t.Fatal(err)
	}
	tick := uint64(1000)
	send := func(frames ...[]byte) {
		t.Helper()
		batch := make([]*mbuf.Mbuf, len(frames))
		for i, fr := range frames {
			m, err := pool.AllocData(fr)
			if err != nil {
				t.Fatal(err)
			}
			tick += 100
			m.RxTick = tick
			batch[i] = m
		}
		c.ProcessBurst(batch)
	}

	// A and C buffer one SYN each while their verdict is pending, then
	// expire together, leaving their shed-queue entries behind.
	a, cc := newFlow(t, 40001, 443), newFlow(t, 40002, 443)
	send(a.pkt(true, layers.TCPSyn, nil), cc.pkt(true, layers.TCPSyn, nil))
	old := map[*connState]*conntrack.Conn{}
	c.Table().Each(func(conn *conntrack.Conn) {
		old[conn.UserData.(*connState)] = conn
	})
	if len(old) != 2 || len(c.shed.entries) != 2 {
		t.Fatalf("setup: %d conns, %d shed-queue entries, want 2 and 2", len(old), len(c.shed.entries))
	}
	tick += 2 * ct.InactivityTimeout
	c.AdvanceTime(tick)
	if c.Table().Len() != 0 {
		t.Fatalf("setup: %d connections survived expiry", c.Table().Len())
	}

	send(bFrames[:3]...)
	connB, ok := c.Table().Lookup(mustTuple(t, bFrames[0]))
	if !ok {
		t.Fatal("B not tracked")
	}
	csB := connB.UserData.(*connState)
	connA := old[csB]
	if connA == nil {
		t.Fatal("setup: B did not reuse a finished connection's state")
	}
	if connA == connB {
		t.Fatal("setup: B reused the Conn slot too; the stale entry would fail its ID check instead")
	}
	if connA.UserData != nil {
		t.Fatalf("finished connection still resolves to a state: %T", connA.UserData)
	}
	if got := len(csB.subs[0].pktBuf); got != 3 {
		t.Fatalf("B buffered %d frames, want 3", got)
	}
	memA := connA.ExtraMem

	// B's fourth frame exceeds the budget. The only live entry in the
	// shed queue is B's own, so the frame is refused and B's buffer stays.
	send(bFrames[3])
	if got := len(csB.subs[0].pktBuf); got != 3 {
		t.Fatalf("B holds %d buffered frames after the shed attempt, want 3", got)
	}
	if got := c.Stats().PktBufBudget; got != 1 {
		t.Fatalf("pktbuf_budget drops = %d, want 1 (B's fourth frame)", got)
	}
	if held := csB.held(overload.ClassPacketBuf); connA.ExtraMem != memA || connB.ExtraMem != held {
		t.Fatalf("memory accounting touched the wrong conn: A %d (was %d), B %d (holds %d)",
			connA.ExtraMem, memA, connB.ExtraMem, held)
	}

	// Identification flushes B's three buffered frames plus the hello.
	send(b.pkt(true, layers.TCPAck|layers.TCPPsh, proto.BuildClientHello(proto.HelloSpec{SNI: "b.example"})))
	if delivered != 4 {
		t.Fatalf("delivered %d frames, want 4", delivered)
	}
	c.Flush()
	if err := c.Table().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.Accountant().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := pool.InUse(); got != 0 {
		t.Fatalf("%d mbufs still out of the pool after Flush", got)
	}
	if st := c.Stats(); st.Disposed() != st.Processed {
		t.Fatalf("disposed %d != processed %d (%+v)", st.Disposed(), st.Processed, st)
	}
}

// mustTuple decodes a frame's five-tuple.
func mustTuple(t *testing.T, frame []byte) layers.FiveTuple {
	t.Helper()
	var p layers.Parsed
	if err := p.DecodeLayers(frame); err != nil {
		t.Fatal(err)
	}
	ft, ok := layers.FiveTupleFrom(&p)
	if !ok {
		t.Fatal("frame has no five-tuple")
	}
	return ft
}
