package core

import (
	"bytes"
	"testing"

	"retina/internal/conntrack"
	"retina/internal/layers"
	"retina/internal/mbuf"
	"retina/internal/overload"
)

func newOverloadCore(t *testing.T, filterSrc string, sub *Subscription, mutate func(*Config)) *Core {
	t.Helper()
	cfg := Config{Set: testSet(t, filterSrc, sub), Conntrack: conntrack.DefaultConfig()}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := NewCore(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPacketDataNoRetain pins the documented contract on Packet.Data: the
// slice aliases the mbuf's pooled buffer, which is freed — and may be
// recycled for a new packet — the moment the callback returns. The test
// proves the aliasing is real: every retained slice is overwritten once
// the pool hands its buffers out again, so callbacks that keep bytes must
// copy them inside the callback.
func TestPacketDataNoRetain(t *testing.T) {
	pool := mbuf.NewPool(16, 2048)
	var retained [][]byte // the forbidden pattern under test
	var copies [][]byte
	sub := &Subscription{Level: LevelPacket, OnPacket: func(p *Packet) {
		retained = append(retained, p.Data)
		copies = append(copies, append([]byte(nil), p.Data...))
	}}
	c := newOverloadCore(t, "http", sub, nil)

	f := newFlow(t, 41001, 8080)
	frames := f.handshake() // buffered until the probe's verdict
	frames = append(frames, f.pkt(true, layers.TCPAck|layers.TCPPsh, []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")))
	frames = append(frames, f.pkt(false, layers.TCPAck|layers.TCPPsh, []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")))
	for i, fr := range frames {
		m, err := pool.AllocData(fr)
		if err != nil {
			t.Fatal(err)
		}
		m.RxTick = uint64(i+1) * 1000
		c.ProcessBurst([]*mbuf.Mbuf{m})
	}
	c.Flush()

	if len(retained) != len(frames) {
		t.Fatalf("delivered %d packets, want %d", len(retained), len(frames))
	}
	// Inside the callback the data was valid: the copies match the frames
	// that were fed, in arrival order (buffered packets flush in order).
	for i := range copies {
		if !bytes.Equal(copies[i], frames[i]) {
			t.Fatalf("packet %d: callback saw %d bytes != frame fed (%d bytes)", i, len(copies[i]), len(frames[i]))
		}
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool not balanced after run: %d in use", pool.InUse())
	}

	// Recycle every buffer in the pool for new "packets" of scrub bytes.
	scrub := bytes.Repeat([]byte{0xEE}, 1024)
	var held []*mbuf.Mbuf
	for pool.Available() > 0 {
		m, err := pool.AllocData(scrub)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, m)
	}
	for i, r := range retained {
		for j, b := range r {
			if b != 0xEE {
				t.Fatalf("retained slice %d byte %d survived pool recycling (%#x); "+
					"Packet.Data must not outlive the callback", i, j, b)
			}
		}
	}
	for _, m := range held {
		m.Free()
	}
}

// TestPktBufBudgetShedsOldestPending: when buffering a packet for a new
// not-yet-matched connection would exceed the packet-buffer byte budget,
// the core sheds the longest-pending connection's buffered packets (the
// cheapest state to lose — its verdict is furthest away) rather than
// refusing the newcomer.
func TestPktBufBudgetShedsOldestPending(t *testing.T) {
	delivered := 0
	sub := &Subscription{Level: LevelPacket, OnPacket: func(*Packet) { delivered++ }}

	fa := newFlow(t, 41002, 8080)
	fb := newFlow(t, 41003, 8080)
	framesA := fa.handshake()
	framesB := fb.handshake()
	bytesA := 0
	for _, fr := range framesA {
		bytesA += len(fr)
	}

	c := newOverloadCore(t, "http", sub, func(cfg *Config) {
		// Fits flow A's handshake but not one more frame.
		cfg.Budget = overload.Budget{PacketBufBytes: int64(bytesA + 1)}
	})
	feed(c, framesA)
	st := c.Stats()
	if st.BufferedPkts != 3 || st.PktBufBudget != 0 {
		t.Fatalf("after A: buffered=%d budget-shed=%d, want 3/0", st.BufferedPkts, st.PktBufBudget)
	}
	if got := c.Accountant().Used(overload.ClassPacketBuf); got != int64(bytesA) {
		t.Fatalf("pktbuf gauge = %d, want %d", got, bytesA)
	}

	feed(c, framesB)
	st = c.Stats()
	// B's first frame tripped the budget; A's three pending packets were
	// shed to make room and B's handshake buffered in full.
	if st.PktBufBudget != 3 {
		t.Fatalf("budget-shed = %d, want A's 3 packets", st.PktBufBudget)
	}
	if st.BufferedPkts != 6 {
		t.Fatalf("buffered = %d, want 6 (both handshakes passed through the buffer)", st.BufferedPkts)
	}
	bytesB := 0
	for _, fr := range framesB {
		bytesB += len(fr)
	}
	if got := c.Accountant().Used(overload.ClassPacketBuf); got != int64(bytesB) {
		t.Fatalf("pktbuf gauge = %d after shed, want %d (B only)", got, bytesB)
	}
	if delivered != 0 {
		t.Fatalf("%d packets delivered without a match", delivered)
	}

	c.Flush()
	if got := c.Accountant().Used(overload.ClassPacketBuf); got != 0 {
		t.Fatalf("pktbuf gauge = %d after Flush, want 0", got)
	}
	if err := c.Accountant().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Disposition conservation: every buffered packet was either shed for
	// budget (A) or discarded pending at flush (B).
	st = c.Stats()
	if st.PendingDiscard != 3 {
		t.Fatalf("pending-discard = %d, want B's 3 packets", st.PendingDiscard)
	}
}

// TestShedLowPool: under mbuf-pool pressure the core skips the optional
// speculative packet copy entirely, counting the skip, while the packet
// itself is still tracked and processed.
func TestShedLowPool(t *testing.T) {
	delivered := 0
	sub := &Subscription{Level: LevelPacket, OnPacket: func(*Packet) { delivered++ }}
	c := newOverloadCore(t, "http", sub, func(cfg *Config) {
		cfg.PoolSignal = func() (free, total int) { return 1, 1000 } // 0.1% free
	})

	f := newFlow(t, 41004, 8080)
	feed(c, f.handshake())
	st := c.Stats()
	if st.ShedLowPool != 3 || st.BufferedPkts != 0 {
		t.Fatalf("shed-low-pool=%d buffered=%d, want 3/0", st.ShedLowPool, st.BufferedPkts)
	}

	// The connection is still tracked: a later match delivers new packets
	// directly even though the buffered history was sacrificed.
	feed(c, [][]byte{f.pkt(true, layers.TCPAck|layers.TCPPsh, []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))})
	if delivered != 1 {
		t.Fatalf("delivered = %d, want the matching packet itself", delivered)
	}
}

// TestEvictedPressureCountsBufferedPackets: pressure-driven conntrack
// eviction flows through the core's drop taxonomy — the victim's buffered
// packets are counted under evicted_pressure, not pending_discard, and
// the new connection is admitted without a table-full drop.
func TestEvictedPressureCountsBufferedPackets(t *testing.T) {
	sub := &Subscription{Level: LevelPacket, OnPacket: func(*Packet) {}}
	c := newOverloadCore(t, "http", sub, func(cfg *Config) {
		cfg.Conntrack.MaxConns = 2
		cfg.Conntrack.PressureEvict = true
	})

	pool := mbuf.NewPool(16, 2048)
	for i := 0; i < 3; i++ {
		f := newFlow(t, uint16(41100+i), 8080)
		m, err := pool.AllocData(f.pkt(true, layers.TCPSyn, nil))
		if err != nil {
			t.Fatal(err)
		}
		m.RxTick = uint64(i+1) * 1000
		c.ProcessBurst([]*mbuf.Mbuf{m})
	}

	st := c.Stats()
	if st.TableFull != 0 {
		t.Fatalf("table-full = %d, want 0 (eviction should admit)", st.TableFull)
	}
	if st.EvictedPressure != 1 {
		t.Fatalf("evicted-pressure = %d, want the victim's 1 buffered packet", st.EvictedPressure)
	}
	if got := c.Table().PressureEvictions(); got != 1 {
		t.Fatalf("table evictions = %d, want 1", got)
	}
	if c.Table().Len() != 2 {
		t.Fatalf("table len = %d, want 2", c.Table().Len())
	}
	c.Flush()
	if pool.InUse() != 0 {
		t.Fatalf("pool not balanced: %d in use", pool.InUse())
	}
	if err := c.Accountant().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
