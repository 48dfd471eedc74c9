package conntrack

import (
	"testing"

	"retina/internal/layers"
)

// origRule is the direction rule the deleted Conn.Orig applied to a
// packet's tuple: orientations are compared, not tuples, and a
// self-symmetric connection counts every packet as originator.
// GetOrCreate must report exactly this direction.
func origRule(c *Conn, f layers.FiveTuple) bool {
	if c.symmetric {
		return true
	}
	return f.IsCanonical() == c.origCanonical
}

// dirOf returns the direction GetOrCreate reports for a packet carrying
// f, failing unless f resolves to the existing connection c.
func dirOf(tb testing.TB, tbl *Table, c *Conn, f layers.FiveTuple) bool {
	tb.Helper()
	got, orig, created, ok := tbl.GetOrCreate(&f, tbl.Now())
	if !ok || created || got != c {
		tb.Fatalf("%v does not resolve to conn %d (ok %v, created %v)", f, c.ID, ok, created)
	}
	return orig
}

// TestSymmetricTupleEstablishment is the regression test for the
// direction misclassification: a self-symmetric tuple (src and dst
// ip:port identical) compares equal to Conn.Tuple in BOTH directions,
// so the old `ft == c.Tuple` test classified every packet as
// originator and the data-both-ways establishment rule could never
// fire. Symmetric connections must establish once traffic has been
// seen twice.
func TestSymmetricTupleEstablishment(t *testing.T) {
	tbl := NewTable(DefaultConfig())
	f := ft("10.0.0.7", "10.0.0.7", 5000, 5000)
	f.Proto = layers.IPProtoUDP
	if f != f.Reverse() {
		t.Fatal("test tuple is not self-symmetric")
	}
	c, orig, created, ok := tbl.GetOrCreate(&f, 0)
	if !ok || !created || !orig {
		t.Fatalf("create failed: ok %v created %v orig %v", ok, created, orig)
	}
	if !c.symmetric {
		t.Fatal("symmetric tuple not marked symmetric")
	}
	// Both directions are the same tuple; the direction must be
	// stable, not flapping per comparison order.
	fwd, rev := dirOf(t, tbl, c, f), dirOf(t, tbl, c, f.Reverse())
	if !fwd || !rev {
		t.Fatal("symmetric direction not direction-free")
	}
	tbl.Touch(c, fwd, 0, 80, 40, 0)
	if c.Established {
		t.Fatal("established after a single packet")
	}
	tbl.Touch(c, rev, 10, 80, 40, 0)
	if !c.Established {
		t.Fatal("symmetric UDP flow with traffic both ways never established (direction misclassification)")
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAsymmetricOrigUsesOrientation pins that the orientation-bit
// comparison classifies normal (asymmetric) tuples exactly like the old
// tuple comparison, from either creation direction.
func TestAsymmetricOrigUsesOrientation(t *testing.T) {
	tbl := NewTable(DefaultConfig())
	fwd := ft("10.0.0.1", "10.0.0.2", 1234, 443)
	c, _, _, _ := tbl.GetOrCreate(&fwd, 0)
	if !dirOf(t, tbl, c, fwd) || dirOf(t, tbl, c, fwd.Reverse()) {
		t.Fatal("orientation wrong for canonical-side creation")
	}
	// A connection first seen from the non-canonical side.
	rev := ft("10.0.0.4", "10.0.0.3", 443, 1234)
	c2, _, _, _ := tbl.GetOrCreate(&rev, 0)
	if !dirOf(t, tbl, c2, rev) || dirOf(t, tbl, c2, rev.Reverse()) {
		t.Fatal("orientation wrong for non-canonical-side creation")
	}
}

// directionTuples covers the shapes the in-place orientation must get
// right, each for IPv4 and IPv6 and for TCP and UDP: distinct
// addresses, addresses that differ only in a high or a low byte, the
// same address with different ports (both orders), and self-symmetric
// tuples (src endpoint == dst endpoint).
func directionTuples() []layers.FiveTuple {
	shapes := []layers.FiveTuple{
		ft("10.0.0.1", "10.0.0.2", 1234, 443),
		ft("192.168.7.9", "10.0.0.2", 443, 1234),
		ft("10.0.0.1", "11.0.0.1", 80, 80),
		ft("10.0.0.5", "10.0.0.5", 5000, 6000),
		ft("10.0.0.5", "10.0.0.5", 6000, 5000),
		ft("10.0.0.7", "10.0.0.7", 5000, 5000),
	}
	var out []layers.FiveTuple
	for _, f := range shapes {
		for _, proto := range []uint8{layers.IPProtoTCP, layers.IPProtoUDP} {
			v4 := f
			v4.Proto = proto
			out = append(out, v4)
			// The IPv6 variant spreads the IPv4 bytes across all 16 so
			// the orientation and the word compare see every word.
			v6 := v4
			v6.IsIPv6 = true
			for i := 4; i < 16; i++ {
				v6.SrcIP[i] = f.SrcIP[i%4] ^ byte(i)
				v6.DstIP[i] = f.DstIP[i%4] ^ byte(i)
			}
			out = append(out, v6)
		}
	}
	return out
}

// TestDirectionProperty checks GetOrCreate's direction on both backends:
// for every tuple shape, created from either side, both orientations
// resolve to the same connection, and the reported direction equals
// the orientation rule and means "same tuple as the first packet" (or
// a self-symmetric connection).
func TestDirectionProperty(t *testing.T) {
	for _, backend := range []string{BackendFlat, BackendMap} {
		t.Run(backend, func(t *testing.T) {
			for _, f := range directionTuples() {
				for _, first := range []layers.FiveTuple{f, f.Reverse()} {
					tbl := NewTable(Config{Backend: backend})
					c, orig, created, ok := tbl.GetOrCreate(&first, 0)
					if !ok || !created || !orig {
						t.Fatalf("%v: create ok %v created %v orig %v", first, ok, created, orig)
					}
					for _, g := range []layers.FiveTuple{first, first.Reverse()} {
						got := dirOf(t, tbl, c, g)
						if want := origRule(c, g); got != want {
							t.Fatalf("%v created from %v: direction %v, orientation rule %v", g, first, got, want)
						}
						if want := g == c.Tuple || g == g.Reverse(); got != want {
							t.Fatalf("%v created from %v: direction %v, tuple rule %v", g, first, got, want)
						}
					}
					if err := tbl.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// populated returns a table on backend holding n connections, and
// their tuples with every odd one reversed (the responder's side).
func populated(tb testing.TB, backend string, n int) (*Table, []layers.FiveTuple) {
	tb.Helper()
	tbl := NewTable(Config{Backend: backend})
	tuples := make([]layers.FiveTuple, n)
	for i := range tuples {
		tuples[i] = benchTuple(i)
		if _, _, created, ok := tbl.GetOrCreate(&tuples[i], uint64(i)); !ok || !created {
			tb.Fatalf("create %d failed", i)
		}
		if i&1 == 1 {
			tuples[i] = tuples[i].Reverse()
		}
	}
	return tbl, tuples
}

// TestHitPathAllocs pins that a GetOrCreate hit, from either side,
// and MemoryBytes over a populated table allocate nothing on either
// backend.
func TestHitPathAllocs(t *testing.T) {
	for _, backend := range []string{BackendFlat, BackendMap} {
		t.Run(backend, func(t *testing.T) {
			tbl, tuples := populated(t, backend, 512)
			i := 0
			if n := testing.AllocsPerRun(1000, func() {
				if _, _, created, _ := tbl.GetOrCreate(&tuples[i%len(tuples)], 1000); created {
					t.Fatal("hit path created a connection")
				}
				i++
			}); n != 0 {
				t.Fatalf("GetOrCreate hit: %v allocs/op, want 0", n)
			}
			if n := testing.AllocsPerRun(20, func() { _ = tbl.MemoryBytes() }); n != 0 {
				t.Fatalf("MemoryBytes: %v allocs/op, want 0", n)
			}
		})
	}
}

// TestTouchSeqFlagSequenceLengths is the regression test for the
// SYN+FIN sequence-length accounting: SYN and FIN each consume one
// sequence number, so a segment carrying both advances the expected
// sequence by two — the old code's single increment skewed expSeq and
// made the next in-order segment a phantom out-of-order event.
func TestTouchSeqFlagSequenceLengths(t *testing.T) {
	cases := []struct {
		name     string
		flags    uint8
		payload  int
		wantNext uint32 // expected next sequence after a segment at seq 1000
	}{
		{"pure-ack", layers.TCPAck, 0, 0}, // consumes nothing: expSeq stays uninitialized
		{"syn", layers.TCPSyn, 0, 1001},
		{"fin", layers.TCPFin, 0, 1001},
		{"syn-fin", layers.TCPSyn | layers.TCPFin, 0, 1002},
		{"syn-payload", layers.TCPSyn, 10, 1011},
		{"fin-payload", layers.TCPFin, 25, 1026},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := NewTable(DefaultConfig())
			f := ft("10.0.0.1", "10.0.0.2", 1234, 443)
			c, _, _, _ := tbl.GetOrCreate(&f, 0)
			tbl.TouchSeq(c, true, 1, 60+tc.payload, tc.payload, tc.flags, 1000, true)
			if tc.wantNext == 0 {
				if c.expSeqInit[0] {
					t.Fatalf("segment consuming no sequence space initialized expSeq to %d", c.expSeq[0])
				}
				return
			}
			if !c.expSeqInit[0] || c.expSeq[0] != tc.wantNext {
				t.Fatalf("expSeq = %d (init %v), want %d", c.expSeq[0], c.expSeqInit[0], tc.wantNext)
			}
			// The next in-order segment must not be flagged out-of-order.
			tbl.TouchSeq(c, true, 2, 160, 100, layers.TCPAck, tc.wantNext, true)
			if c.OOOOrig != 0 {
				t.Fatalf("in-order follow-up at seq %d counted as OOO", tc.wantNext)
			}
			// And an off-by-one IS out-of-order (guards against the
			// accounting being merely ignored).
			tbl.TouchSeq(c, true, 3, 160, 100, layers.TCPAck, c.expSeq[0]+1, true)
			if c.OOOOrig != 1 {
				t.Fatalf("off-by-one follow-up not counted as OOO (OOOOrig=%d)", c.OOOOrig)
			}
		})
	}
}

// TestNowTracksAdvance pins the Table.now clock: it follows Advance
// monotonically (backward ticks clamp) and CheckInvariants uses it to
// assert that no live connection's deadline predates the clock.
func TestNowTracksAdvance(t *testing.T) {
	cfg := Config{EstablishTimeout: 50, InactivityTimeout: 200, WheelGranularity: 10}
	tbl := NewTable(cfg)
	if tbl.Now() != 0 {
		t.Fatalf("fresh table Now = %d", tbl.Now())
	}
	tbl.Advance(1000, nil)
	if tbl.Now() != 1000 {
		t.Fatalf("Now = %d after Advance(1000)", tbl.Now())
	}
	tbl.Advance(400, nil) // backward: clamped
	if tbl.Now() != 1000 {
		t.Fatalf("Now = %d after backward Advance, want 1000", tbl.Now())
	}
	f := ft("10.0.0.1", "10.0.0.2", 1234, 443)
	c, _, _, _ := tbl.GetOrCreate(&f, 1000)
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Simulate a missed expiry: force the deadline (LastTick +
	// EstablishTimeout = 50) behind the clock. CheckInvariants must
	// reject the state, proving the deadline-vs-clock assertion bites.
	c.LastTick = 0
	if err := tbl.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a live connection whose deadline predates the clock")
	}
	c.LastTick = 1000 // restore
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPressureEvictionWheelPathAllEstablishedRefuses pins the
// wheel-scan path of evictForPressure: timeouts enabled (wheel
// populated) but every tracked connection established means the scan
// finds no victim, the exact fallback scan finds none either, and the
// admission must be refused and counted — never an established
// eviction, never a spin.
func TestPressureEvictionWheelPathAllEstablishedRefuses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConns = 3
	cfg.PressureEvict = true
	tbl := NewTable(cfg)
	for i := 0; i < 3; i++ {
		tuple := ft("10.0.0.1", "10.0.0.2", uint16(i+1), 443)
		c, _, _, _ := tbl.GetOrCreate(&tuple, 0)
		tbl.Touch(c, true, 0, 60, 0, layers.TCPSyn)
		tbl.Touch(c, false, 1, 60, 0, layers.TCPSyn|layers.TCPAck)
		if !c.Established {
			t.Fatalf("connection %d not established", i)
		}
	}
	tbl.SetEvictHandler(func(*Conn, ExpireReason) {
		t.Fatal("established connection evicted under pressure")
	})
	if _, _, _, ok := tbl.GetOrCreate(ftp("10.0.0.9", "10.0.0.2", 999, 443), 50); ok {
		t.Fatal("admission succeeded with every slot established")
	}
	if tbl.FullDrops() != 1 || tbl.PressureEvictions() != 0 {
		t.Fatalf("full=%d evictions=%d, want 1/0", tbl.FullDrops(), tbl.PressureEvictions())
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPressureEvictionEmptyWheelAllEstablishedRefuses pins the fallback
// path with timeouts disabled: the wheel is empty (nothing is ever
// scheduled), so victim selection rests entirely on the exact
// store scan — which must refuse when every connection is established.
func TestPressureEvictionEmptyWheelAllEstablishedRefuses(t *testing.T) {
	tbl := NewTable(Config{MaxConns: 2, PressureEvict: true})
	for i := 0; i < 2; i++ {
		tuple := ft("10.0.0.1", "10.0.0.2", uint16(i+1), 443)
		c, _, _, _ := tbl.GetOrCreate(&tuple, 0)
		tbl.Touch(c, true, 0, 60, 0, layers.TCPSyn)
		tbl.Touch(c, false, 1, 60, 0, layers.TCPSyn|layers.TCPAck)
	}
	if _, _, _, ok := tbl.GetOrCreate(ftp("10.0.0.9", "10.0.0.2", 999, 443), 50); ok {
		t.Fatal("admission succeeded with every slot established and no wheel")
	}
	if tbl.FullDrops() != 1 || tbl.PressureEvictions() != 0 {
		t.Fatalf("full=%d evictions=%d, want 1/0", tbl.FullDrops(), tbl.PressureEvictions())
	}
}

// TestPressureEvictionFallbackExactVictim pins the determinism of the
// fallback scan: with the wheel empty, the victim must be the exact
// (LastTick, ID) minimum among unestablished connections — the
// property that lets the flat and map backends (different iteration
// orders) evict identical victims.
func TestPressureEvictionFallbackExactVictim(t *testing.T) {
	tbl := NewTable(Config{MaxConns: 4, PressureEvict: true})
	mk := func(port uint16, tick uint64) *Conn {
		tuple := ft("10.0.0.1", "10.0.0.2", port, 443)
		c, _, _, ok := tbl.GetOrCreate(&tuple, tick)
		if !ok {
			t.Fatalf("create %d failed", port)
		}
		tbl.Touch(c, true, tick, 60, 0, layers.TCPSyn)
		return c
	}
	mk(1, 5)
	wantID := mk(2, 2).ID // LastTick 2, created before the next —
	mk(3, 2)              // same LastTick, larger ID: must lose the tie
	est := mk(4, 0)       // longest idle but established: protected
	tbl.Touch(est, false, 1, 60, 0, layers.TCPSyn|layers.TCPAck)
	if !est.Established {
		t.Fatal("setup: conn 4 not established")
	}
	var evictedID uint64
	tbl.SetEvictHandler(func(c *Conn, _ ExpireReason) { evictedID = c.ID })
	if _, _, _, ok := tbl.GetOrCreate(ftp("10.0.0.9", "10.0.0.2", 999, 443), 50); !ok {
		t.Fatal("admission failed despite evictable candidates")
	}
	if evictedID != wantID {
		t.Fatalf("evicted conn %d, want %d (LastTick then ID minimum)", evictedID, wantID)
	}
}

// TestBackendSelection pins the Config.Backend plumbing and the
// IndexStats surface both backends expose.
func TestBackendSelection(t *testing.T) {
	flat := NewTable(Config{Backend: BackendFlat})
	if flat.Backend() != BackendFlat || flat.IndexStats().Backend != BackendFlat {
		t.Fatal("flat backend not selected")
	}
	oracle := NewTable(Config{Backend: BackendMap})
	if oracle.Backend() != BackendMap || oracle.IndexStats().Backend != BackendMap {
		t.Fatal("map backend not selected")
	}
	def := NewTable(Config{})
	if def.Backend() != defaultBackend {
		t.Fatalf("empty Backend resolved to %q, want build default %q", def.Backend(), defaultBackend)
	}
	st := flat.IndexStats()
	if st.Slots == 0 || st.Live != 0 || st.LoadFactor != 0 {
		t.Fatalf("fresh flat stats: %+v", st)
	}
	flat.GetOrCreate(ftp("10.0.0.1", "10.0.0.2", 1, 443), 0)
	if st = flat.IndexStats(); st.Live != 1 || st.LoadFactor <= 0 || st.SlabBytes == 0 {
		t.Fatalf("flat stats after create: %+v", st)
	}
}

// TestFlatGrowthRehash drives the flat index through several bucket
// rebuilds and verifies every connection stays reachable, pointers
// remain stable across rehashes, load factor stays under the 3/4
// threshold, and telemetry counters witness the growth.
func TestFlatGrowthRehash(t *testing.T) {
	tbl := NewTable(Config{Backend: BackendFlat, EstablishTimeout: 1 << 40, WheelGranularity: 10})
	const n = 5000
	ptrs := make([]*Conn, 0, n)
	for i := 0; i < n; i++ {
		tuple := ft("10.1.0.1", "10.1.0.2", uint16(i%65000+1), uint16(i/65000+443))
		c, _, created, ok := tbl.GetOrCreate(&tuple, uint64(i))
		if !ok || !created {
			t.Fatalf("create %d failed", i)
		}
		ptrs = append(ptrs, c)
	}
	st := tbl.IndexStats()
	if st.Rehashes == 0 {
		t.Fatalf("no rehash after %d inserts into a minimal table: %+v", n, st)
	}
	if st.LoadFactor > 0.75 {
		t.Fatalf("load factor %f above threshold", st.LoadFactor)
	}
	if st.MaxProbe == 0 || st.MaxProbe > maxProbeBuckets {
		t.Fatalf("probe length %d out of range", st.MaxProbe)
	}
	// Conn structs never move: the pointers captured before the
	// rehashes must still be the live connections.
	for i, c := range ptrs {
		tuple := ft("10.1.0.1", "10.1.0.2", uint16(i%65000+1), uint16(i/65000+443))
		got, _, created, ok := tbl.GetOrCreate(&tuple, uint64(n))
		if !ok || created || got != c {
			t.Fatalf("conn %d moved or lost after rehash", i)
		}
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Tear everything down; the store must drain cleanly.
	for _, c := range ptrs {
		tbl.Remove(c, ExpireTermination)
	}
	if tbl.Len() != 0 {
		t.Fatalf("%d connections left after removal", tbl.Len())
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveAll empties a populated table on both backends, removing
// each connection while iteration visits it: every connection counts
// once under the reason, and the store stays consistent and reusable.
func TestRemoveAll(t *testing.T) {
	for _, backend := range []string{BackendFlat, BackendMap} {
		t.Run(backend, func(t *testing.T) {
			const n = 3000 // more than one slab chunk
			tbl, tuples := populated(t, backend, n)
			tbl.RemoveAll(ExpireEvicted)
			if _, expired := tbl.Stats(); tbl.Len() != 0 || expired[ExpireEvicted] != n {
				t.Fatalf("Len %d, evicted %d after RemoveAll, want 0 and %d", tbl.Len(), expired[ExpireEvicted], n)
			}
			if err := tbl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if _, _, created, ok := tbl.GetOrCreate(&tuples[1], n); !ok || !created {
				t.Fatal("a removed tuple did not create a new connection")
			}
		})
	}
}
