package conntrack

import (
	"testing"

	"retina/internal/layers"
)

// ftp is ft as a pointer, for GetOrCreate.
func ftp(src, dst string, sp, dp uint16) *layers.FiveTuple {
	f := ft(src, dst, sp, dp)
	return &f
}

func ft(src, dst string, sp, dp uint16) layers.FiveTuple {
	var f layers.FiveTuple
	s := layers.ParseAddr4(src)
	d := layers.ParseAddr4(dst)
	copy(f.SrcIP[:4], s[:])
	copy(f.DstIP[:4], d[:])
	f.SrcPort, f.DstPort = sp, dp
	f.Proto = layers.IPProtoTCP
	return f
}

func TestGetOrCreateBidirectional(t *testing.T) {
	tbl := NewTable(DefaultConfig())
	fwd := ft("10.0.0.1", "10.0.0.2", 1234, 443)
	c1, orig1, created, ok := tbl.GetOrCreate(&fwd, 100)
	if !ok || !created {
		t.Fatal("first GetOrCreate failed")
	}
	rev := fwd.Reverse()
	c2, orig2, created, ok := tbl.GetOrCreate(&rev, 200)
	if !ok || created {
		t.Fatal("reverse direction created a second connection")
	}
	if c1 != c2 {
		t.Fatal("directions map to different connections")
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if !orig1 || orig2 {
		t.Fatal("orientation wrong")
	}
}

func TestTouchCounters(t *testing.T) {
	tbl := NewTable(DefaultConfig())
	fwd := ft("10.0.0.1", "10.0.0.2", 1234, 443)
	c, _, _, _ := tbl.GetOrCreate(&fwd, 0)
	tbl.Touch(c, true, 10, 100, 60, layers.TCPSyn)
	tbl.Touch(c, false, 20, 80, 40, layers.TCPSyn|layers.TCPAck)
	tbl.Touch(c, true, 30, 1500, 1448, layers.TCPAck)
	if c.PktsOrig != 2 || c.PktsResp != 1 {
		t.Fatalf("pkts %d/%d", c.PktsOrig, c.PktsResp)
	}
	if c.BytesOrig != 1600 || c.BytesResp != 80 {
		t.Fatalf("bytes %d/%d", c.BytesOrig, c.BytesResp)
	}
	if c.PayloadOrig != 1508 || c.PayloadResp != 40 {
		t.Fatalf("payload %d/%d", c.PayloadOrig, c.PayloadResp)
	}
	if !c.Established || !c.SynSeen {
		t.Fatal("SYN-ACK did not establish")
	}
	if c.LastTick != 30 {
		t.Fatalf("LastTick = %d", c.LastTick)
	}
}

func TestEstablishTimeoutExpiresSingleSYN(t *testing.T) {
	cfg := DefaultConfig()
	tbl := NewTable(cfg)
	fwd := ft("10.0.0.1", "10.0.0.2", 1234, 443)
	c, _, _, _ := tbl.GetOrCreate(&fwd, 0)
	tbl.Touch(c, true, 0, 60, 0, layers.TCPSyn)

	var expired []*Conn
	var reasons []ExpireReason
	collect := func(c *Conn, r ExpireReason) {
		expired = append(expired, c)
		reasons = append(reasons, r)
	}
	// Just before 5s: still present.
	tbl.Advance(4*TickSecond, collect)
	if len(expired) != 0 || tbl.Len() != 1 {
		t.Fatal("expired before establishment timeout")
	}
	// Past 5s (+granularity): gone with the establish reason.
	tbl.Advance(6*TickSecond, collect)
	if len(expired) != 1 || reasons[0] != ExpireEstablishTimeout {
		t.Fatalf("expired=%d reasons=%v", len(expired), reasons)
	}
	if tbl.Len() != 0 {
		t.Fatal("table not empty after expiry")
	}
}

func TestEstablishedUsesInactivityTimeout(t *testing.T) {
	tbl := NewTable(DefaultConfig())
	fwd := ft("10.0.0.1", "10.0.0.2", 1234, 443)
	c, _, _, _ := tbl.GetOrCreate(&fwd, 0)
	tbl.Touch(c, true, 0, 60, 0, layers.TCPSyn)
	tbl.Touch(c, false, 1000, 60, 0, layers.TCPSyn|layers.TCPAck)

	fired := 0
	tbl.Advance(30*TickSecond, func(*Conn, ExpireReason) { fired++ })
	if fired != 0 {
		t.Fatal("established connection expired on establish timeout")
	}
	var reason ExpireReason
	tbl.Advance(6*TickMinute, func(c *Conn, r ExpireReason) { fired++; reason = r })
	if fired != 1 || reason != ExpireInactivityTimeout {
		t.Fatalf("fired=%d reason=%v", fired, reason)
	}
}

func TestActivityRefreshesDeadline(t *testing.T) {
	tbl := NewTable(DefaultConfig())
	fwd := ft("10.0.0.1", "10.0.0.2", 1234, 443)
	c, _, _, _ := tbl.GetOrCreate(&fwd, 0)
	tbl.Touch(c, true, 0, 60, 0, layers.TCPSyn)
	tbl.Touch(c, false, 0, 60, 0, layers.TCPSyn|layers.TCPAck)

	fired := 0
	// Keep the connection busy past several would-be deadlines.
	for now := uint64(0); now <= 20*TickMinute; now += TickMinute {
		tbl.Touch(c, true, now, 100, 50, layers.TCPAck)
		tbl.Advance(now, func(*Conn, ExpireReason) { fired++ })
	}
	if fired != 0 {
		t.Fatalf("active connection expired %d times", fired)
	}
	// Then go idle.
	tbl.Advance(40*TickMinute, func(*Conn, ExpireReason) { fired++ })
	if fired != 1 {
		t.Fatalf("idle connection not expired (fired=%d)", fired)
	}
}

func TestTimeoutsDisabled(t *testing.T) {
	tbl := NewTable(Config{}) // no timeouts
	fwd := ft("10.0.0.1", "10.0.0.2", 1234, 443)
	c, _, _, _ := tbl.GetOrCreate(&fwd, 0)
	tbl.Touch(c, true, 0, 60, 0, layers.TCPSyn)
	fired := 0
	tbl.Advance(100*TickMinute, func(*Conn, ExpireReason) { fired++ })
	if fired != 0 || tbl.Len() != 1 {
		t.Fatal("connection expired with timeouts disabled")
	}
}

func TestInactivityOnlyScheme(t *testing.T) {
	// Figure 8's middle curve: no establishment timeout, 5m inactivity.
	tbl := NewTable(Config{InactivityTimeout: 5 * TickMinute, WheelGranularity: 100 * TickMillisecond})
	fwd := ft("10.0.0.1", "10.0.0.2", 1234, 443)
	c, _, _, _ := tbl.GetOrCreate(&fwd, 0)
	tbl.Touch(c, true, 0, 60, 0, layers.TCPSyn) // never answered
	fired := 0
	tbl.Advance(6*TickSecond, func(*Conn, ExpireReason) { fired++ })
	if fired != 0 {
		t.Fatal("single SYN expired early under inactivity-only scheme")
	}
	tbl.Advance(6*TickMinute, func(*Conn, ExpireReason) { fired++ })
	if fired != 1 {
		t.Fatal("single SYN never expired under inactivity-only scheme")
	}
}

func TestMaxConns(t *testing.T) {
	tbl := NewTable(Config{MaxConns: 2})
	for i := 0; i < 2; i++ {
		if _, _, _, ok := tbl.GetOrCreate(ftp("10.0.0.1", "10.0.0.2", uint16(i+1), 443), 0); !ok {
			t.Fatalf("create %d failed", i)
		}
	}
	if _, _, _, ok := tbl.GetOrCreate(ftp("10.0.0.1", "10.0.0.2", 99, 443), 0); ok {
		t.Fatal("table exceeded MaxConns")
	}
	// Existing connections still reachable at the bound.
	if _, _, created, ok := tbl.GetOrCreate(ftp("10.0.0.1", "10.0.0.2", 1, 443), 0); !ok || created {
		t.Fatal("lookup at capacity failed")
	}
}

func TestRemoveAndStats(t *testing.T) {
	tbl := NewTable(DefaultConfig())
	fwd := ft("10.0.0.1", "10.0.0.2", 1, 443)
	c, _, _, _ := tbl.GetOrCreate(&fwd, 0)
	tbl.Remove(c, ExpireTermination)
	if tbl.Len() != 0 {
		t.Fatal("remove failed")
	}
	tbl.Remove(c, ExpireTermination) // idempotent
	created, expired := tbl.Stats()
	if created != 1 || expired[ExpireTermination] != 1 {
		t.Fatalf("stats %d %v", created, expired)
	}
	// Stale timer fire after removal must not panic or double-expire.
	tbl.Advance(10*TickMinute, func(*Conn, ExpireReason) { t.Fatal("expired removed conn") })
}

func TestRemoveThenRecreateSameTuple(t *testing.T) {
	tbl := NewTable(DefaultConfig())
	fwd := ft("10.0.0.1", "10.0.0.2", 1, 443)
	c1, _, _, _ := tbl.GetOrCreate(&fwd, 0)
	id1 := c1.ID // capture before removal: the slab recycles Conn storage
	tbl.Remove(c1, ExpireEvicted)
	c2, _, created, _ := tbl.GetOrCreate(&fwd, 100)
	if !created || id1 == c2.ID || c2.FirstTick != 100 {
		t.Fatal("recreation after removal failed")
	}
	// The stale timer for c1 must not remove c2.
	tbl.Advance(4*TickSecond, nil)
	if tbl.Len() != 1 {
		t.Fatal("stale timer affected recreated connection")
	}
}

func TestMemoryAccounting(t *testing.T) {
	tbl := NewTable(DefaultConfig())
	base := tbl.MemoryBytes()
	if base != 0 {
		t.Fatalf("empty table memory = %d", base)
	}
	c, _, _, _ := tbl.GetOrCreate(ftp("10.0.0.1", "10.0.0.2", 1, 443), 0)
	m1 := tbl.MemoryBytes()
	if m1 == 0 {
		t.Fatal("tracked connection accounts zero memory")
	}
	c.ExtraMem = 1000
	if tbl.MemoryBytes() != m1+1000 {
		t.Fatal("ExtraMem not accounted")
	}
}

func TestUDPEstablishOnBidirectional(t *testing.T) {
	tbl := NewTable(DefaultConfig())
	f := ft("10.0.0.1", "10.0.0.2", 5353, 53)
	f.Proto = layers.IPProtoUDP
	c, _, _, _ := tbl.GetOrCreate(&f, 0)
	tbl.Touch(c, true, 0, 80, 40, 0)
	if c.Established {
		t.Fatal("one-way UDP established")
	}
	tbl.Touch(c, false, 10, 120, 80, 0)
	if !c.Established {
		t.Fatal("bidirectional UDP not established")
	}
}

func TestTouchSeqDetectsOutOfOrder(t *testing.T) {
	tbl := NewTable(DefaultConfig())
	fwd := ft("10.0.0.1", "10.0.0.2", 1234, 443)
	c, _, _, _ := tbl.GetOrCreate(&fwd, 0)
	// In-order: seq 1000 (+100), 1100 (+100).
	tbl.TouchSeq(c, true, 1, 154, 100, layers.TCPAck, 1000, true)
	tbl.TouchSeq(c, true, 2, 154, 100, layers.TCPAck, 1100, true)
	if c.OOOOrig != 0 {
		t.Fatalf("in-order flagged OOO: %d", c.OOOOrig)
	}
	// Gap: 1300 skips 1200.
	tbl.TouchSeq(c, true, 3, 154, 100, layers.TCPAck, 1300, true)
	// Fill: 1200 arrives late.
	tbl.TouchSeq(c, true, 4, 154, 100, layers.TCPAck, 1200, true)
	if c.OOOOrig != 2 {
		t.Fatalf("OOOOrig = %d, want 2 (gap + late fill)", c.OOOOrig)
	}
	// Directions independent.
	tbl.TouchSeq(c, false, 5, 154, 100, layers.TCPAck, 9000, true)
	tbl.TouchSeq(c, false, 6, 154, 100, layers.TCPAck, 9100, true)
	if c.OOOResp != 0 {
		t.Fatalf("OOOResp = %d, want 0", c.OOOResp)
	}
	// Pure ACKs never count.
	tbl.TouchSeq(c, true, 7, 54, 0, layers.TCPAck, 99999, true)
	if c.OOOOrig != 2 {
		t.Fatalf("pure ACK counted as OOO")
	}
	// SYN consumes a sequence number.
	f2 := ft("10.0.0.3", "10.0.0.4", 1, 2)
	c2, _, _, _ := tbl.GetOrCreate(&f2, 0)
	tbl.TouchSeq(c2, true, 1, 60, 0, layers.TCPSyn, 500, true)
	tbl.TouchSeq(c2, true, 2, 154, 100, layers.TCPAck, 501, true)
	if c2.OOOOrig != 0 {
		t.Fatalf("SYN seq accounting wrong: OOO = %d", c2.OOOOrig)
	}
}

func TestManyConnectionsChurn(t *testing.T) {
	tbl := NewTable(DefaultConfig())
	// 10k single-SYN connections arriving over 10 virtual seconds.
	for i := 0; i < 10000; i++ {
		tick := uint64(i) * (10 * TickSecond / 10000)
		f := ft("10.0.0.1", "10.0.0.2", uint16(i%60000+1), uint16(i/60000+1000))
		f.SrcPort = uint16(i%65000 + 1)
		f.DstPort = uint16(i/65000 + 443)
		c, _, _, ok := tbl.GetOrCreate(&f, tick)
		if !ok {
			t.Fatal("create failed")
		}
		tbl.Touch(c, true, tick, 60, 0, layers.TCPSyn)
		tbl.Advance(tick, nil)
	}
	// All should expire within establish timeout of the last arrival.
	tbl.Advance(20*TickSecond, nil)
	if tbl.Len() != 0 {
		t.Fatalf("%d connections leaked", tbl.Len())
	}
	created, expired := tbl.Stats()
	if created != 10000 || expired[ExpireEstablishTimeout] != 10000 {
		t.Fatalf("created=%d expired=%v", created, expired)
	}
}

func BenchmarkGetOrCreateTouch(b *testing.B) {
	tbl := NewTable(DefaultConfig())
	f := ft("10.0.0.1", "10.0.0.2", 1234, 443)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.SrcPort = uint16(i)
		c, orig, _, _ := tbl.GetOrCreate(&f, uint64(i))
		tbl.Touch(c, orig, uint64(i), 100, 60, layers.TCPAck)
		if i%1024 == 0 {
			tbl.Advance(uint64(i), nil)
		}
	}
}

func TestPressureEvictionAdmitsNewConn(t *testing.T) {
	// Timeouts enabled (DefaultConfig) so victims are found via the
	// timer-wheel scan; TestPressureEvictionChurn covers the
	// timeouts-disabled fallback scan.
	cfg := DefaultConfig()
	cfg.MaxConns = 4
	cfg.PressureEvict = true
	tbl := NewTable(cfg)
	// Four idle unestablished connections with staggered last-activity.
	for i := 0; i < 4; i++ {
		c, _, _, ok := tbl.GetOrCreate(ftp("10.0.0.1", "10.0.0.2", uint16(i+1), 443), uint64(i))
		if !ok {
			t.Fatalf("create %d failed", i)
		}
		tbl.Touch(c, true, uint64(i), 60, 0, layers.TCPSyn)
	}

	// Field values are captured inside the handler: after GetOrCreate
	// returns, the victim's recycled storage holds the new connection.
	var evictedLast []uint64
	tbl.SetEvictHandler(func(c *Conn, reason ExpireReason) {
		if reason != ExpirePressure {
			t.Fatalf("evict handler reason = %v, want ExpirePressure", reason)
		}
		evictedLast = append(evictedLast, c.LastTick)
	})

	// A fifth connection at the bound must evict the longest-idle
	// (LastTick 0) instead of being refused.
	c, _, created, ok := tbl.GetOrCreate(ftp("10.0.0.9", "10.0.0.2", 999, 443), 100)
	if !ok || !created || c == nil {
		t.Fatalf("new connection refused at the bound: ok=%v created=%v", ok, created)
	}
	if tbl.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (one in, one out)", tbl.Len())
	}
	if tbl.FullDrops() != 0 {
		t.Fatalf("FullDrops = %d, want 0: eviction must replace refusal", tbl.FullDrops())
	}
	if tbl.PressureEvictions() != 1 {
		t.Fatalf("PressureEvictions = %d, want 1", tbl.PressureEvictions())
	}
	if len(evictedLast) != 1 {
		t.Fatalf("evict handler called %d times, want 1", len(evictedLast))
	}
	if evictedLast[0] != 0 {
		t.Fatalf("evicted LastTick = %d, want the longest-idle (0)", evictedLast[0])
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatalf("invariants after eviction: %v", err)
	}
}

func TestPressureEvictionSparesEstablished(t *testing.T) {
	tbl := NewTable(Config{MaxConns: 2, PressureEvict: true})
	// Fill the table with established connections (bidirectional traffic).
	for i := 0; i < 2; i++ {
		tuple := ft("10.0.0.1", "10.0.0.2", uint16(i+1), 443)
		c, _, _, _ := tbl.GetOrCreate(&tuple, 0)
		tbl.Touch(c, true, 0, 60, 0, layers.TCPSyn)
		tbl.Touch(c, false, 1, 60, 0, layers.TCPSyn|layers.TCPAck)
		if !c.Established {
			t.Fatalf("connection %d not established after bidirectional traffic", i)
		}
	}
	// With only established connections, the bound falls back to refusal.
	if _, _, _, ok := tbl.GetOrCreate(ftp("10.0.0.9", "10.0.0.2", 999, 443), 50); ok {
		t.Fatal("established connection was evicted under pressure")
	}
	if tbl.FullDrops() != 1 {
		t.Fatalf("FullDrops = %d, want 1", tbl.FullDrops())
	}
	if tbl.PressureEvictions() != 0 {
		t.Fatalf("PressureEvictions = %d, want 0", tbl.PressureEvictions())
	}
}

func TestPressureEvictionDisabledByDefault(t *testing.T) {
	// The zero-value config pins the original refusal behavior.
	tbl := NewTable(Config{MaxConns: 1})
	tbl.GetOrCreate(ftp("10.0.0.1", "10.0.0.2", 1, 443), 0)
	if _, _, _, ok := tbl.GetOrCreate(ftp("10.0.0.9", "10.0.0.2", 2, 443), 10); ok {
		t.Fatal("eviction ran without PressureEvict")
	}
	if tbl.FullDrops() != 1 {
		t.Fatalf("FullDrops = %d, want 1", tbl.FullDrops())
	}
}

func TestPressureEvictionChurn(t *testing.T) {
	// A SYN flood against a small table: every arrival past the bound
	// must succeed by evicting, never by refusal, and invariants must
	// hold throughout.
	tbl := NewTable(Config{MaxConns: 16, PressureEvict: true})
	for i := 0; i < 500; i++ {
		tuple := ft("10.0.0.1", "10.0.0.2", uint16(i+1), 443)
		c, _, _, ok := tbl.GetOrCreate(&tuple, uint64(i))
		if !ok {
			t.Fatalf("arrival %d refused", i)
		}
		tbl.Touch(c, true, uint64(i), 60, 0, layers.TCPSyn)
	}
	if tbl.FullDrops() != 0 {
		t.Fatalf("FullDrops = %d, want 0", tbl.FullDrops())
	}
	if got := tbl.PressureEvictions(); got != 500-16 {
		t.Fatalf("PressureEvictions = %d, want %d", got, 500-16)
	}
	if tbl.Len() != 16 {
		t.Fatalf("Len = %d, want 16", tbl.Len())
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
}
