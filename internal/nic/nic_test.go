package nic

import (
	"bytes"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"retina/internal/filter"
	"retina/internal/layers"
	"retina/internal/mbuf"
)

// deliverOne offers frame at tick as a one-frame burst.
func deliverOne(n *NIC, frame []byte, tick uint64) {
	n.DeliverBurst([][]byte{frame}, []uint64{tick})
}

func buildTCP(src, dst string, sp, dp uint16) []byte {
	var b layers.Builder
	return b.Build(&layers.PacketSpec{
		SrcIP4: layers.ParseAddr4(src), DstIP4: layers.ParseAddr4(dst),
		Proto: layers.IPProtoTCP, SrcPort: sp, DstPort: dp,
		Payload: []byte("x"),
	})
}

func buildUDP(src, dst string, sp, dp uint16) []byte {
	var b layers.Builder
	return b.Build(&layers.PacketSpec{
		SrcIP4: layers.ParseAddr4(src), DstIP4: layers.ParseAddr4(dst),
		Proto: layers.IPProtoUDP, SrcPort: sp, DstPort: dp,
	})
}

// toeplitzRef is the bit-serial Toeplitz hash, the reference the
// table-driven Toeplitz is checked against: for each set bit of the input
// at offset i, the 32-bit window of the key starting at bit i is XORed
// into the result. key must be at least 8 bytes; key bits past its end
// count as zero.
func toeplitzRef(key, data []byte) uint32 {
	var hash uint32
	// window keeps the next 64 key bits; its top 32 bits are the window
	// for the current input bit. After each input byte (8 shifts) the
	// freed low byte is refilled from the key.
	window := uint64(key[0])<<56 | uint64(key[1])<<48 | uint64(key[2])<<40 |
		uint64(key[3])<<32 | uint64(key[4])<<24 | uint64(key[5])<<16 |
		uint64(key[6])<<8 | uint64(key[7])
	next := 8
	for _, b := range data {
		for bit := 7; bit >= 0; bit-- {
			if b&(1<<uint(bit)) != 0 {
				hash ^= uint32(window >> 32)
			}
			window <<= 1
		}
		if next < len(key) {
			window |= uint64(key[next])
			next++
		}
	}
	return hash
}

// microsoftKey is the key of the RSS verification suite in the Windows
// NDIS documentation.
var microsoftKey = []byte{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// TestToeplitzMicrosoftVectors checks the table and the reference
// against the official RSS verification suite vectors (Windows NDIS
// documentation), which pin down both the algorithm and the input byte
// order.
func TestToeplitzMicrosoftVectors(t *testing.T) {
	cases := []struct {
		src, dst          string
		sport, dport      uint16
		ipOnly, withPorts uint32
	}{
		{"66.9.149.187", "161.142.100.80", 2794, 1766, 0x323e8fc2, 0x51ccc178},
		{"3ffe:2501:200:1fff::7", "3ffe:2501:200:3::1", 2794, 1766, 0x2cc18cd5, 0x40207d3d},
		{"3ffe:501:8::260:97ff:fe40:efab", "ff02::1", 14230, 4739, 0x0f0c461c, 0xdde51bbf},
		{"3ffe:1900:4545:3:200:f8ff:fe21:67cf", "fe80::200:f8ff:fe21:67cf", 44251, 38024, 0x4b61e985, 0x02d1feef},
	}
	hashes := []struct {
		name string
		fn   func(key, data []byte) uint32
	}{{"Toeplitz", Toeplitz}, {"toeplitzRef", toeplitzRef}}
	for _, c := range cases {
		ip := append(netip.MustParseAddr(c.src).AsSlice(), netip.MustParseAddr(c.dst).AsSlice()...)
		withPorts := append(ip[:len(ip):len(ip)],
			byte(c.sport>>8), byte(c.sport), byte(c.dport>>8), byte(c.dport))
		for _, h := range hashes {
			if got := h.fn(microsoftKey, ip); got != c.ipOnly {
				t.Errorf("%s %s → %s ip-only = %#x, want %#x", h.name, c.src, c.dst, got, c.ipOnly)
			}
			if got := h.fn(microsoftKey, withPorts); got != c.withPorts {
				t.Errorf("%s %s:%d → %s:%d = %#x, want %#x",
					h.name, c.src, c.sport, c.dst, c.dport, got, c.withPorts)
			}
		}
	}
}

// FuzzToeplitzTable checks the table-driven hash against the bit-serial
// reference for keys of 40–52 bytes and inputs of up to 36 bytes, both
// through Toeplitz (the shared symmetric table or a per-call table) and
// through a table built for the longest RSS input, whose rows are shared
// wherever the key windows repeat.
func FuzzToeplitzTable(f *testing.F) {
	v4 := []byte{66, 9, 149, 187, 161, 142, 100, 80, 0x0a, 0xea, 0x06, 0xe6}
	f.Add(SymmetricKey(), v4)
	f.Add(microsoftKey, v4)
	f.Add([]byte{}, make([]byte, maxRSSInput))
	f.Add(append(slices.Clone(microsoftKey), 0xff, 0x01, 0x80, 0x7f, 0x00, 0x55, 0xaa, 0x0f, 0xf0, 0x11, 0x22, 0x33),
		bytes.Repeat([]byte{0xff}, maxRSSInput))
	f.Fuzz(func(t *testing.T, key, data []byte) {
		// Short keys are completed from the symmetric key (an empty one
		// becomes it), long ones truncated, to stay within 40–52 bytes.
		if len(key) < ToeplitzKeyLen {
			key = append(key[:len(key):len(key)], SymmetricKey()[len(key):]...)
		}
		key = key[:min(len(key), 52)]
		data = data[:min(len(data), maxRSSInput)]
		want := toeplitzRef(key, data)
		if got := Toeplitz(key, data); got != want {
			t.Fatalf("Toeplitz(%x, %x) = %#x, reference %#x", key, data, got, want)
		}
		if got := newToeplitzTable(key, maxRSSInput).hash(data); got != want {
			t.Fatalf("full table(%x).hash(%x) = %#x, reference %#x", key, data, got, want)
		}
	})
}

func TestToeplitzSymmetricWithSymKey(t *testing.T) {
	key := SymmetricKey()
	fwd := []byte{10, 0, 0, 1, 10, 0, 0, 2, 0x12, 0x34, 0x01, 0xBB}
	rev := []byte{10, 0, 0, 2, 10, 0, 0, 1, 0x01, 0xBB, 0x12, 0x34}
	if Toeplitz(key, fwd) != Toeplitz(key, rev) {
		t.Fatal("symmetric key did not produce symmetric hash")
	}
	// The key repeats every 16 bits, so its table needs only two distinct
	// 1 KiB rows, which keeps the NIC's hash in L1.
	distinct := map[*[256]uint32]bool{}
	for _, r := range symmetricRSS.rows {
		distinct[r] = true
	}
	if len(symmetricRSS.rows) != maxRSSInput || len(distinct) != 2 {
		t.Fatalf("symmetric table: %d rows, %d distinct; want %d, 2",
			len(symmetricRSS.rows), len(distinct), maxRSSInput)
	}
}

func TestToeplitzNonZeroAndSpread(t *testing.T) {
	key := SymmetricKey()
	seen := map[uint32]bool{}
	for i := 0; i < 64; i++ {
		data := []byte{10, 0, byte(i), 1, 10, 0, 0, 2, 0, byte(i), 1, 187}
		seen[Toeplitz(key, data)] = true
	}
	if len(seen) < 32 {
		t.Fatalf("poor hash spread: %d distinct values of 64", len(seen))
	}
}

// Property: for any v4 four-tuple, both packet directions produce the
// same RSS hash end-to-end (decode → input → Toeplitz).
func TestQuickRSSSymmetryEndToEnd(t *testing.T) {
	key := SymmetricKey()
	var b layers.Builder
	f := func(sip, dip [4]byte, sp, dp uint16) bool {
		var p1, p2 layers.Parsed
		fwd := b.Build(&layers.PacketSpec{SrcIP4: sip, DstIP4: dip, Proto: layers.IPProtoTCP, SrcPort: sp, DstPort: dp})
		rev := b.Build(&layers.PacketSpec{SrcIP4: dip, DstIP4: sip, Proto: layers.IPProtoTCP, SrcPort: dp, DstPort: sp})
		if p1.DecodeLayers(fwd) != nil || p2.DecodeLayers(rev) != nil {
			return false
		}
		var buf1, buf2 [36]byte
		in1, ok1 := RSSInput(&p1, buf1[:])
		in2, ok2 := RSSInput(&p2, buf2[:])
		return ok1 && ok2 && Toeplitz(key, in1) == Toeplitz(key, in2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRetaDistribution(t *testing.T) {
	r := NewReta(128, 4)
	counts := map[int16]int{}
	for h := uint32(0); h < 128; h++ {
		counts[r.Lookup(h)]++
	}
	for q := int16(0); q < 4; q++ {
		if counts[q] != 32 {
			t.Fatalf("queue %d has %d entries, want 32", q, counts[q])
		}
	}
}

func TestRetaSinkFraction(t *testing.T) {
	r := NewReta(128, 4)
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		r.SetSinkFraction(frac)
		got := r.SinkFraction()
		if diff := got - frac; diff > 0.02 || diff < -0.02 {
			t.Errorf("SetSinkFraction(%v) → %v", frac, got)
		}
	}
}

func TestNICDeliveryAndFlowConsistency(t *testing.T) {
	pool := mbuf.NewPool(1024, 2048)
	n := New(Config{Queues: 4, RingSize: 256, Pool: pool})
	// Both directions of one connection must land on the same queue.
	fwd := buildTCP("10.0.0.1", "10.0.0.2", 1234, 443)
	rev := buildTCP("10.0.0.2", "10.0.0.1", 443, 1234)
	deliverOne(n, fwd, 1)
	deliverOne(n, rev, 2)
	st := n.Stats()
	if st.Delivered != 2 || st.Loss() != 0 {
		t.Fatalf("stats %+v", st)
	}
	var q1, q2 uint16
	found := 0
	var buf [8]*mbuf.Mbuf
	for i := 0; i < n.Queues(); i++ {
		for _, m := range buf[:n.Queue(i).DequeueBurst(buf[:])] {
			if found == 0 {
				q1 = m.Queue
			} else {
				q2 = m.Queue
			}
			found++
			m.Free()
		}
	}
	if found != 2 || q1 != q2 {
		t.Fatalf("flow split across queues: %d, %d (found %d)", q1, q2, found)
	}
}

func TestNICHardwareFilterDrops(t *testing.T) {
	pool := mbuf.NewPool(64, 2048)
	n := New(Config{Queues: 1, RingSize: 16, Pool: pool, Capability: ConnectX5Model()})
	prog := filter.MustCompile("ipv4 and tcp", filter.Options{HW: n.Capability()})
	if err := n.InstallRules(prog.Rules); err != nil {
		t.Fatal(err)
	}
	deliverOne(n, buildTCP("1.1.1.1", "2.2.2.2", 1, 2), 1)
	deliverOne(n, buildUDP("1.1.1.1", "2.2.2.2", 1, 53), 2)
	st := n.Stats()
	if st.Delivered != 1 || st.HWDropped != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestNICRejectsUnsupportedRule(t *testing.T) {
	pool := mbuf.NewPool(4, 2048)
	n := New(Config{Queues: 1, Pool: pool}) // zero capability
	prog := filter.MustCompile("tcp.port = 443", filter.Options{HW: filter.PermissiveCapability{}})
	if err := n.InstallRules(prog.Rules); err == nil {
		t.Fatal("zero-capability device accepted an exact-match rule")
	}
}

func TestNICRuleLimit(t *testing.T) {
	pool := mbuf.NewPool(4, 2048)
	cap := CapabilityModel{ExactMatch: true, MaxRules: 1}
	n := New(Config{Queues: 1, Pool: pool, Capability: cap})
	rules := []filter.FlowRule{
		{Preds: []filter.Predicate{{Proto: "tcp", Op: filter.OpTrue}}},
		{Preds: []filter.Predicate{{Proto: "udp", Op: filter.OpTrue}}},
	}
	if err := n.InstallRules(rules); err == nil {
		t.Fatal("flow table limit not enforced")
	}
}

func TestNICRingOverflowCountsAsLoss(t *testing.T) {
	pool := mbuf.NewPool(64, 2048)
	n := New(Config{Queues: 1, RingSize: 4, Pool: pool})
	pkt := buildTCP("1.1.1.1", "2.2.2.2", 1, 2)
	for i := 0; i < 10; i++ {
		deliverOne(n, pkt, uint64(i))
	}
	st := n.Stats()
	if st.Delivered != 4 || st.RingDrops != 6 {
		t.Fatalf("stats %+v", st)
	}
	if st.Loss() != 6 {
		t.Fatalf("Loss = %d", st.Loss())
	}
}

func TestNICPoolExhaustionCountsAsLoss(t *testing.T) {
	pool := mbuf.NewPool(2, 2048)
	n := New(Config{Queues: 1, RingSize: 16, Pool: pool})
	pkt := buildTCP("1.1.1.1", "2.2.2.2", 1, 2)
	for i := 0; i < 5; i++ {
		deliverOne(n, pkt, uint64(i))
	}
	st := n.Stats()
	if st.NoMbuf != 3 || st.Loss() != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestNICSinkSampling(t *testing.T) {
	pool := mbuf.NewPool(4096, 2048)
	n := New(Config{Queues: 2, RingSize: 4096, Pool: pool})
	n.SetSinkFraction(0.5)
	for i := 0; i < 1000; i++ {
		pkt := buildTCP("10.0.0.1", "10.0.0.2", uint16(1000+i), 443)
		deliverOne(n, pkt, uint64(i))
	}
	st := n.Stats()
	if st.Sunk == 0 || st.Delivered == 0 {
		t.Fatalf("stats %+v", st)
	}
	frac := float64(st.Sunk) / float64(st.RxFrames)
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("sunk fraction %.2f far from 0.5", frac)
	}
	// Sink must be flow-consistent: redelivering the same flows changes
	// nothing about which are sunk.
	before := st.Sunk
	pkt := buildTCP("10.0.0.1", "10.0.0.2", 1000, 443)
	first := n.Stats().Sunk
	deliverOne(n, pkt, 0)
	deliverOne(n, pkt, 1)
	after := n.Stats().Sunk
	delta := after - first
	if delta != 0 && delta != 2 {
		t.Fatalf("flow inconsistently sunk: before=%d after=%d", before, after)
	}
}

func TestNICMalformedFrames(t *testing.T) {
	pool := mbuf.NewPool(4, 2048)
	n := New(Config{Queues: 1, Pool: pool})
	deliverOne(n, []byte{1, 2, 3}, 0)
	if st := n.Stats(); st.Malformed != 1 || st.Delivered != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestNICNonIPToQueueZero(t *testing.T) {
	pool := mbuf.NewPool(4, 2048)
	n := New(Config{Queues: 4, RingSize: 8, Pool: pool})
	arp := make([]byte, 60)
	arp[12], arp[13] = 0x08, 0x06
	deliverOne(n, arp, 0)
	st := n.Stats()
	if st.NonRSS != 1 || st.Delivered != 1 {
		t.Fatalf("stats %+v", st)
	}
	var buf [1]*mbuf.Mbuf
	if n.Queue(0).DequeueBurst(buf[:]) != 1 {
		t.Fatal("non-IP frame not on queue 0")
	}
	buf[0].Free()
}

func TestNICClose(t *testing.T) {
	pool := mbuf.NewPool(4, 2048)
	n := New(Config{Queues: 2, Pool: pool})
	n.Close()
	if n.Queue(0).Wait() {
		t.Fatal("queue not closed")
	}
}

// Burst staging must attribute every frame a full ring rejects to ring
// overflow exactly once — no frame double-counted, none lost — even when
// the ring is smaller than the burst so a single flush overflows.
func TestNICBurstOverflowExactlyOnce(t *testing.T) {
	pool := mbuf.NewPool(64, 2048)
	n := New(Config{Queues: 1, RingSize: 4, Pool: pool, Burst: 8})
	pkt := buildTCP("1.1.1.1", "2.2.2.2", 1, 2)
	for i := 0; i < 20; i++ {
		deliverOne(n, pkt, uint64(i))
	}
	n.Close() // flushes the staged partial burst
	st := n.Stats()
	if st.RxFrames != 20 {
		t.Fatalf("RxFrames = %d", st.RxFrames)
	}
	// Conservation: every offered frame is delivered or dropped once.
	if st.Delivered+st.RingDrops+st.NoMbuf != 20 {
		t.Fatalf("delivered %d + ringDrops %d + noMbuf %d != 20",
			st.Delivered, st.RingDrops, st.NoMbuf)
	}
	// The ring holds 4; nothing drained it, so exactly 4 frames fit and
	// 16 overflowed across the bursts.
	if st.Delivered != 4 || st.RingDrops != 16 {
		t.Fatalf("Delivered = %d, RingDrops = %d; want 4, 16", st.Delivered, st.RingDrops)
	}
	// Dropped buffers must be back in the pool (only the 4 ring-resident
	// mbufs remain out).
	if pool.InUse() != 4 {
		t.Fatalf("pool InUse = %d, want 4", pool.InUse())
	}
}

// Staging 32-frame bursts must preserve the delivery and accounting of
// one-packet bursts end to end, including returning cached buffers on
// Close.
func TestNICBurstMatchesLegacyAccounting(t *testing.T) {
	run := func(burst int) (Stats, int) {
		pool := mbuf.NewPool(1024, 2048)
		n := New(Config{Queues: 2, RingSize: 256, Pool: pool, Burst: burst})
		for i := 0; i < 300; i++ {
			pkt := buildTCP("10.0.0.1", "10.0.0.2", uint16(1000+i%64), 443)
			deliverOne(n, pkt, uint64(i))
		}
		n.Close()
		// Drain both rings, freeing every delivered mbuf.
		buf := make([]*mbuf.Mbuf, 32)
		for q := 0; q < n.Queues(); q++ {
			for n.Queue(q).Wait() {
				k := n.Queue(q).DequeueBurst(buf)
				mbuf.FreeBulk(buf[:k])
			}
		}
		return n.Stats(), pool.InUse()
	}
	legacy, inuse1 := run(1)
	burst, inuse32 := run(32)
	if legacy != burst {
		t.Fatalf("stats diverge:\nlegacy %+v\nburst  %+v", legacy, burst)
	}
	if inuse1 != 0 || inuse32 != 0 {
		t.Fatalf("pool leak: legacy InUse=%d burst InUse=%d", inuse1, inuse32)
	}
}

func benchNICDeliver(b *testing.B, burstSize int) {
	pool := mbuf.NewPool(8192, 2048)
	n := New(Config{Queues: 4, RingSize: 8192, Pool: pool, Burst: burstSize})
	pkt := buildTCP("10.0.0.1", "10.0.0.2", 1234, 443)
	// Drain concurrently so rings never fill.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(q *Ring) {
			defer wg.Done()
			buf := make([]*mbuf.Mbuf, 64)
			for q.Wait() {
				k := q.DequeueBurst(buf)
				mbuf.FreeBulk(buf[:k])
			}
		}(n.Queue(i))
	}
	frames, ticks := [][]byte{pkt}, []uint64{0}
	b.ReportAllocs()
	b.SetBytes(int64(len(pkt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ticks[0] = uint64(i)
		n.DeliverBurst(frames, ticks)
	}
	b.StopTimer()
	n.Close()
	wg.Wait()
}

func BenchmarkNICDeliver(b *testing.B)        { benchNICDeliver(b, 1) }
func BenchmarkNICDeliverBurst32(b *testing.B) { benchNICDeliver(b, 32) }

// BenchmarkToeplitz times one RSS hash of an IPv4 and an IPv6 four-tuple
// input through the symmetric-key table the NIC hashes with and through
// the bit-serial reference.
func BenchmarkToeplitz(b *testing.B) {
	key := SymmetricKey()
	inputs := []struct {
		name string
		in   []byte
	}{
		{"IPv4", make([]byte, 12)},
		{"IPv6", make([]byte, maxRSSInput)},
	}
	for _, in := range inputs {
		for i := range in.in {
			in.in[i] = byte(i*37 + 11)
		}
		b.Run(in.name+"/table", func(b *testing.B) {
			for b.Loop() {
				toeplitzSink ^= symmetricRSS.hash(in.in)
			}
		})
		b.Run(in.name+"/reference", func(b *testing.B) {
			for b.Loop() {
				toeplitzSink ^= toeplitzRef(key, in.in)
			}
		})
	}
}

// toeplitzSink keeps benchmarked hashes live.
var toeplitzSink uint32

// The RSS hash is on the producer's per-frame path: hashing a tuple,
// bucketing it, and delivering a burst on a warm pool allocate nothing.
func TestRSSDispatchAllocatesNothing(t *testing.T) {
	ft := layers.FiveTuple{SrcPort: 40001, DstPort: 443, Proto: layers.IPProtoTCP, IsIPv6: true}
	ft.SrcIP = layers.ParseAddr16("2001:db8::1")
	ft.DstIP = layers.ParseAddr16("2001:db8:ff::2:3")
	if a := testing.AllocsPerRun(100, func() { HashTuple(ft) }); a != 0 {
		t.Errorf("HashTuple: %v allocs/call", a)
	}
	if a := testing.AllocsPerRun(100, func() { BucketOf(ft, DefaultRetaSize) }); a != 0 {
		t.Errorf("BucketOf: %v allocs/call", a)
	}

	pool := mbuf.NewPool(4096, 2048)
	n := New(Config{Queues: 4, RingSize: 1024, Pool: pool, Burst: 32})
	var b layers.Builder
	v6 := b.Build(&layers.PacketSpec{IsIPv6: true, SrcIP6: ft.SrcIP, DstIP6: ft.DstIP,
		Proto: layers.IPProtoUDP, SrcPort: 5353, DstPort: 53})
	frames := [][]byte{buildTCP("10.0.0.1", "10.0.0.2", 1234, 443), buildUDP("10.0.0.3", "10.0.0.4", 999, 53), v6}
	ticks := []uint64{1, 2, 3}
	n.DeliverBurst(frames, ticks) // warm the producer's mbuf cache
	if a := testing.AllocsPerRun(100, func() { n.DeliverBurst(frames, ticks) }); a != 0 {
		t.Errorf("NIC.DeliverBurst: %v allocs/call", a)
	}
	if st := n.Stats(); st.Loss() != 0 {
		t.Fatalf("stats %+v: rings or pool undersized for the measurement", st)
	}
}
