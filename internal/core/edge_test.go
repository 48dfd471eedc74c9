package core

import (
	"bytes"
	"testing"

	"retina/internal/conntrack"
	"retina/internal/layers"
	"retina/internal/mbuf"
)

func TestPacketBufferCapBounded(t *testing.T) {
	// A packet subscription on a connection whose verdict never comes
	// (session predicate, handshake never completes) must not buffer
	// unboundedly.
	delivered := 0
	c, err := NewCore(0, Config{
		Set:             testSet(t, "tls.sni ~ 'never'", &Subscription{Level: LevelPacket, OnPacket: func(*Packet) { delivered++ }}),
		Conntrack:       conntrack.DefaultConfig(),
		PacketBufferCap: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := newFlow(t, 42001, 443)
	frames := f.handshake()
	// TLS record that never completes: connection stays in Probe/Parse.
	frames = append(frames, f.pkt(true, layers.TCPAck, []byte{0x16, 0x03, 0x03, 0x3F, 0xFF}))
	for i := 0; i < 50; i++ {
		frames = append(frames, f.pkt(true, layers.TCPAck, bytes.Repeat([]byte{0xAA}, 100)))
	}
	feed(c, frames)
	if got := c.Stats().BufferedPkts; got > 8 {
		t.Fatalf("buffered %d packets, cap is 8", got)
	}
	if delivered != 0 {
		t.Fatalf("undecided connection delivered %d packets", delivered)
	}
}

func TestConnTableFullDropsGracefully(t *testing.T) {
	recs := 0
	ct := conntrack.DefaultConfig()
	ct.MaxConns = 4
	c, err := NewCore(0, Config{
		Set:       testSet(t, "ipv4 and tcp", &Subscription{Level: LevelConnection, OnConn: func(*ConnRecord) { recs++ }}),
		Conntrack: ct,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 20 distinct connections against a 4-entry table.
	for i := 0; i < 20; i++ {
		f := newFlow(t, uint16(43000+i), 80)
		feed(c, [][]byte{f.pkt(true, layers.TCPSyn, nil)})
	}
	if c.Table().Len() != 4 {
		t.Fatalf("table len = %d, want 4", c.Table().Len())
	}
	c.Flush()
	if recs != 4 {
		t.Fatalf("records = %d, want 4 (one per tracked conn)", recs)
	}
}

func TestProbeBudgetGivesUp(t *testing.T) {
	// A stream that never identifies must stop consuming probe work.
	c, err := NewCore(0, Config{
		Set:       testSet(t, "tls", &Subscription{Level: LevelSession, OnSession: func(*SessionEvent) {}}),
		Conntrack: conntrack.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := newFlow(t, 42002, 443)
	frames := f.handshake()
	// Ambiguous bytes: the TLS probe keeps answering "unsure" for a
	// 0x16 0x03-prefixed trickle... use payloads that keep every probe
	// unsure by being too short per segment.
	for i := 0; i < 200; i++ {
		frames = append(frames, f.pkt(true, layers.TCPAck, bytes.Repeat([]byte{0x99}, 100)))
	}
	feed(c, frames)
	// After the budget, the connection must be tombstoned (rejected) and
	// later packets counted as tombstone hits without parsing work.
	if c.Stats().TombstonePkts == 0 {
		t.Fatal("probe never gave up")
	}
	parses := c.StageStats().Invocations(StageParsing)
	before := parses
	feed(c, [][]byte{f.pkt(true, layers.TCPAck, bytes.Repeat([]byte{0x99}, 100))})
	if c.StageStats().Invocations(StageParsing) != before {
		t.Fatal("tombstoned connection still parsed")
	}
}

func TestMarkUpgradeOnLaterPacket(t *testing.T) {
	// Filter with a port predicate only some packets satisfy: the
	// connection's mark must upgrade when a deeper-matching packet
	// arrives, letting the conn filter succeed.
	seen := 0
	c, err := NewCore(0, Config{
		Set:       testSet(t, "(tcp.dst_port = 443 and tls) or tcp", &Subscription{Level: LevelConnection, OnConn: func(*ConnRecord) { seen++ }}),
		Conntrack: conntrack.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := newFlow(t, 42003, 443)
	frames := f.handshake() // mixed directions: some match dst_port=443, some not
	frames = append(frames, f.teardown()...)
	feed(c, frames)
	c.Flush()
	if seen != 1 {
		t.Fatalf("records = %d, want 1", seen)
	}
}

func TestZeroLengthAndWeirdFrames(t *testing.T) {
	n := 0
	c, err := NewCore(0, Config{
		Set:       testSet(t, "", &Subscription{Level: LevelPacket, OnPacket: func(*Packet) { n++ }}),
		Conntrack: conntrack.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Garbage, empty, and short frames must not panic.
	for _, fr := range [][]byte{{}, {1}, bytes.Repeat([]byte{0xFF}, 13), bytes.Repeat([]byte{0xFF}, 64)} {
		m := mbuf.FromBytes(fr)
		m.RxTick = 1
		c.ProcessBurst([]*mbuf.Mbuf{m})
	}
	// Only the 64-byte frame can possibly decode as Ethernet.
	if c.Stats().Processed != 4 {
		t.Fatalf("processed = %d", c.Stats().Processed)
	}
}

// TestExtraMemTracksHeldBytes pins conn.ExtraMem — the per-connection
// figure behind Table.MemoryBytes — to the bytes the connection really
// holds: every frame buffered awaiting the verdict plus the payload
// parked in reassembly, and nothing once the buffers are gone.
func TestExtraMemTracksHeldBytes(t *testing.T) {
	c, err := NewCore(0, Config{
		Set:       testSet(t, "tls.sni ~ 'never'", &Subscription{Level: LevelPacket, OnPacket: func(*Packet) {}}),
		Conntrack: conntrack.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := newFlow(t, 42005, 443)
	frames := f.handshake()
	frames = append(frames, f.pkt(true, layers.TCPAck, []byte{0x16, 0x03, 0x03, 0x3F, 0xFF}))
	for i := 0; i < 5; i++ {
		frames = append(frames, f.pkt(true, layers.TCPAck, bytes.Repeat([]byte{0xAA}, 100)))
	}
	f.cliSeq += 50 // a hole: the next segment parks in reassembly
	frames = append(frames, f.pkt(true, layers.TCPAck, bytes.Repeat([]byte{0xBB}, 100)))
	feed(c, frames)

	held := 100 // the parked segment's payload
	for _, fr := range frames {
		held += len(fr) // every frame is buffered: the verdict never comes
	}
	if got := c.Stats().BufferedPkts; got != uint64(len(frames)) {
		t.Fatalf("buffered %d frames, want %d", got, len(frames))
	}
	var conns []*conntrack.Conn
	c.Table().Each(func(conn *conntrack.Conn) { conns = append(conns, conn) })
	if len(conns) != 1 {
		t.Fatalf("%d connections tracked, want 1", len(conns))
	}
	if got := conns[0].ExtraMem; got != held {
		t.Fatalf("ExtraMem = %d mid-connection, want %d held bytes", got, held)
	}
	if got := c.Table().MemoryBytes(); got < uint64(held) {
		t.Fatalf("MemoryBytes = %d, below the %d held bytes", got, held)
	}
	if err := c.Table().CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	c.Flush()
	if got := conns[0].ExtraMem; got != 0 {
		t.Fatalf("ExtraMem = %d after Flush, want 0", got)
	}
	if got := c.Table().MemoryBytes(); got != 0 {
		t.Fatalf("MemoryBytes = %d after Flush, want 0", got)
	}
	if got := c.Accountant().TotalUsed(); got != 0 {
		t.Fatalf("accountant holds %d bytes after Flush, want 0", got)
	}
	if err := c.Table().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.Accountant().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
