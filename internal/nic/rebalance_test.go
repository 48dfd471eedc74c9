package nic

import (
	"testing"
	"testing/quick"

	"retina/internal/layers"
	"retina/internal/mbuf"
)

// Regression: SetSinkFraction used to rebuild non-sunk entries as
// i % queues, silently clobbering any Assign the rebalancer had made.
// Assignments must survive a sink round-trip.
func TestRetaSinkFractionPreservesAssignments(t *testing.T) {
	r := NewReta(128, 4)
	moves := map[int]int16{0: 3, 5: 2, 64: 0, 127: 1}
	for b, q := range moves {
		r.Assign(b, q)
	}
	r.SetSinkFraction(0.5)
	for b, q := range moves {
		if got := r.Assigned(b); got != q {
			t.Fatalf("bucket %d assignment %d lost while sunk (got %d)", b, q, got)
		}
	}
	r.SetSinkFraction(0)
	for b, q := range moves {
		if got := r.Entry(b); got != q {
			t.Fatalf("bucket %d entry = %d after un-sink, want assigned %d", b, got, q)
		}
	}
	// Untouched buckets must come back to their original round-robin
	// assignment too, not be re-derived from scratch.
	if got := r.Entry(1); got != int16(1%4) {
		t.Fatalf("bucket 1 entry = %d after un-sink, want 1", got)
	}
}

// Assign on a sunk bucket must not resurrect it until un-sink.
func TestRetaAssignWhileSunk(t *testing.T) {
	r := NewReta(8, 2)
	r.SetSinkFraction(1)
	r.Assign(3, 1)
	if got := r.Entry(3); got != SinkQueue {
		t.Fatalf("assigning a sunk bucket un-sank it (entry %d)", got)
	}
	r.SetSinkFraction(0)
	if got := r.Entry(3); got != 1 {
		t.Fatalf("entry %d after un-sink, want assigned 1", got)
	}
}

// Property: with the symmetric key, both directions of any TCP/UDP
// tuple hash into the same RETA bucket — the invariant bucket migration
// relies on (a connection's frames keep arriving on one queue, so a
// single extraction moves the whole flow).
func TestQuickTupleBucketSymmetry(t *testing.T) {
	f := func(sip, dip [4]byte, sp, dp uint16, udp bool, v6 bool, sip6, dip6 [12]byte) bool {
		ft := layers.FiveTuple{SrcPort: sp, DstPort: dp, Proto: layers.IPProtoTCP, IsIPv6: v6}
		if udp {
			ft.Proto = layers.IPProtoUDP
		}
		copy(ft.SrcIP[:4], sip[:])
		copy(ft.DstIP[:4], dip[:])
		if v6 {
			copy(ft.SrcIP[4:], sip6[:])
			copy(ft.DstIP[4:], dip6[:])
		}
		b1, ok1 := BucketOf(ft, DefaultRetaSize)
		b2, ok2 := BucketOf(ft.Reverse(), DefaultRetaSize)
		return ok1 && ok2 && b1 == b2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// HashTuple must agree with the NIC's own dispatch hash: a frame built
// from a tuple carries the reference Toeplitz hash of its RSS input and
// lands in the bucket BucketOf predicts, for IPv4 and IPv6 over TCP and
// UDP. A non-IP frame is not hashed and goes to queue 0 with hash 0.
// Core migration keys on RSSHash % RetaSize, so a wrong hash here would
// misroute bucket handoffs.
func TestBucketOfMatchesDispatch(t *testing.T) {
	pool := mbuf.NewPool(64, 2048)
	n := New(Config{Queues: 4, RingSize: 64, Pool: pool})
	// dispatch delivers frame and returns the one mbuf it produced.
	dispatch := func(frame []byte) *mbuf.Mbuf {
		t.Helper()
		deliverOne(n, frame, 1)
		n.FlushPending()
		var got *mbuf.Mbuf
		var buf [8]*mbuf.Mbuf
		for q := 0; q < n.Queues(); q++ {
			for _, m := range buf[:n.Queue(q).DequeueBurst(buf[:])] {
				if got != nil || int(m.Queue) != q {
					t.Fatalf("unexpected delivery on queue %d (mbuf queue %d)", q, m.Queue)
				}
				got = m
			}
		}
		if got == nil {
			t.Fatal("frame not delivered")
		}
		return got
	}

	specs := []layers.PacketSpec{
		{SrcIP4: layers.ParseAddr4("10.0.0.1"), DstIP4: layers.ParseAddr4("10.0.0.2"),
			Proto: layers.IPProtoTCP, SrcPort: 1234, DstPort: 443},
		{SrcIP4: layers.ParseAddr4("192.168.7.9"), DstIP4: layers.ParseAddr4("8.8.4.4"),
			Proto: layers.IPProtoUDP, SrcPort: 53124, DstPort: 53},
		{IsIPv6: true, SrcIP6: layers.ParseAddr16("2001:db8::1"), DstIP6: layers.ParseAddr16("2001:db8:ff::2:3"),
			Proto: layers.IPProtoTCP, SrcPort: 40001, DstPort: 443},
		{IsIPv6: true, SrcIP6: layers.ParseAddr16("fe80::200:f8ff:fe21:67cf"), DstIP6: layers.ParseAddr16("ff02::1:3"),
			Proto: layers.IPProtoUDP, SrcPort: 5353, DstPort: 5355},
	}
	var b layers.Builder
	for _, spec := range specs {
		ft := layers.FiveTuple{SrcPort: spec.SrcPort, DstPort: spec.DstPort, Proto: spec.Proto, IsIPv6: spec.IsIPv6}
		if spec.IsIPv6 {
			ft.SrcIP, ft.DstIP = spec.SrcIP6, spec.DstIP6
		} else {
			copy(ft.SrcIP[:4], spec.SrcIP4[:])
			copy(ft.DstIP[:4], spec.DstIP4[:])
		}
		bucket, ok := BucketOf(ft, n.RetaSize())
		if !ok {
			t.Fatalf("%v: BucketOf failed", ft)
		}
		m := dispatch(b.Build(&spec))
		var p layers.Parsed
		if err := p.DecodeLayers(m.Data()); err != nil {
			t.Fatalf("%v: delivered frame does not decode: %v", ft, err)
		}
		var scratch [maxRSSInput]byte
		in, _ := RSSInput(&p, scratch[:])
		if want := toeplitzRef(SymmetricKey(), in); m.RSSHash != want {
			t.Fatalf("%v: RSSHash %#x, reference Toeplitz %#x", ft, m.RSSHash, want)
		}
		if got := int(m.RSSHash % uint32(n.RetaSize())); got != bucket {
			t.Fatalf("%v: frame hash %#x maps to bucket %d, BucketOf said %d", ft, m.RSSHash, got, bucket)
		}
		if want := n.RetaEntry(bucket); int16(m.Queue) != want {
			t.Fatalf("%v: frame landed on queue %d, RETA entry says %d", ft, m.Queue, want)
		}
		m.Free()
	}

	arp := make([]byte, 60)
	arp[12], arp[13] = 0x08, 0x06
	if m := dispatch(arp); m.RSSHash != 0 || m.Queue != 0 {
		t.Fatalf("non-IP frame: hash %#x on queue %d, want 0 on 0", m.RSSHash, m.Queue)
	} else {
		m.Free()
	}
}

// RequestAssign is applied by the producer between frames: frames
// delivered before the request land on the old queue, frames after it
// on the new one, and the request records the old queue, its ring tail
// at the swap, and a bumped RETA epoch.
func TestAssignAppliedByProducer(t *testing.T) {
	pool := mbuf.NewPool(256, 2048)
	n := New(Config{Queues: 4, RingSize: 64, Pool: pool})
	ft := layers.FiveTuple{SrcPort: 1234, DstPort: 443, Proto: layers.IPProtoTCP}
	copy(ft.SrcIP[:4], []byte{10, 0, 0, 1})
	copy(ft.DstIP[:4], []byte{10, 0, 0, 2})
	bucket, _ := BucketOf(ft, n.RetaSize())
	src := n.RetaAssigned(bucket)
	dst := (src + 1) % int16(n.Queues())
	frame := buildTCP("10.0.0.1", "10.0.0.2", 1234, 443)

	epoch0 := n.RetaEpoch()
	deliverOne(n, frame, 1)
	n.FlushPending()
	req := n.RequestAssign(bucket, dst)
	if req.Applied() {
		t.Fatal("applied before any producer activity")
	}
	deliverOne(n, frame, 2) // producer applies queued assigns first
	n.FlushPending()
	if !req.Applied() {
		t.Fatal("not applied by the next DeliverBurst")
	}
	if req.SrcQueue() != src {
		t.Fatalf("SrcQueue = %d, want %d", req.SrcQueue(), src)
	}
	if req.Epoch() != epoch0+1 {
		t.Fatalf("Epoch = %d, want %d", req.Epoch(), epoch0+1)
	}
	if req.TailSnap() != n.Queue(int(src)).Tail() {
		t.Fatalf("TailSnap = %d, ring tail %d", req.TailSnap(), n.Queue(int(src)).Tail())
	}
	if got := n.RetaAssigned(bucket); got != dst {
		t.Fatalf("bucket %d assigned to %d after swap, want %d", bucket, got, dst)
	}
	var buf [8]*mbuf.Mbuf
	if got := n.Queue(int(src)).DequeueBurst(buf[:]); got != 1 {
		t.Fatalf("old queue has %d frames, want the 1 pre-swap frame", got)
	}
	buf[0].Free()
	if got := n.Queue(int(dst)).DequeueBurst(buf[:]); got != 1 {
		t.Fatalf("new queue has %d frames, want the 1 post-swap frame", got)
	}
	buf[0].Free()

	// Counters: both frames hit the same bucket.
	counts := n.BucketPackets(nil)
	if counts[bucket] != 2 {
		t.Fatalf("bucketPkts[%d] = %d, want 2", bucket, counts[bucket])
	}
}

// A canceled request is never applied; a request still pending when the
// device closes is applied by ApplyAssignsClosed (the plane's fallback
// once the producer is gone).
func TestAssignCancelAndClosedFallback(t *testing.T) {
	pool := mbuf.NewPool(64, 2048)
	n := New(Config{Queues: 2, RingSize: 16, Pool: pool})
	r1 := n.RequestAssign(0, 1)
	if !n.CancelAssign(r1) {
		t.Fatal("cancel of a pending request failed")
	}
	deliverOne(n, buildTCP("10.0.0.1", "10.0.0.2", 1, 2), 1)
	n.FlushPending()
	if r1.Applied() || n.RetaAssigned(0) == 1 && n.RetaEntry(0) == 1 {
		t.Fatal("canceled request was applied")
	}

	r2 := n.RequestAssign(0, 1)
	if n.ApplyAssignsClosed() {
		t.Fatal("ApplyAssignsClosed succeeded on an open device")
	}
	n.Close()
	if !n.ApplyAssignsClosed() {
		t.Fatal("ApplyAssignsClosed failed on a closed device")
	}
	if !r2.Applied() {
		t.Fatal("request not applied by closed-device fallback")
	}
	if n.RetaAssigned(0) != 1 {
		t.Fatalf("bucket 0 assigned to %d, want 1", n.RetaAssigned(0))
	}
	if n.CancelAssign(r2) {
		t.Fatal("cancel of an applied request should fail")
	}
}
