package core

import (
	"testing"

	"retina/internal/conntrack"
	"retina/internal/layers"
	"retina/internal/mbuf"
	"retina/internal/metrics"
)

func latencyTestCore(t *testing.T, burst int, sub *Subscription) *Core {
	t.Helper()
	ct := conntrack.DefaultConfig()
	ct.EstablishTimeout = 500_000
	ct.InactivityTimeout = 1_000_000
	c, err := NewCore(0, Config{Set: testSet(t, "ipv4 and tcp", sub), Conntrack: ct, BurstSize: burst, Latency: true})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLatencyTrackingRecordsRxToDelivery drives stamped packets through
// a packet-level subscription and checks the rx→delivery histogram sees
// every delivery with sane values.
func TestLatencyTrackingRecordsRxToDelivery(t *testing.T) {
	var delivered int
	sub := &Subscription{Level: LevelPacket, OnPacket: func(*Packet) { delivered++ }}
	c := latencyTestCore(t, 8, sub)
	f := newFlow(t, 42001, 443)
	var frames [][]byte
	frames = append(frames, f.handshake()...)
	for i := 0; i < 30; i++ {
		frames = append(frames, f.pkt(i%2 == 0, layers.TCPPsh|layers.TCPAck, []byte("payload")))
	}
	var ms []*mbuf.Mbuf
	for i, fr := range frames {
		m := mbuf.FromBytes(fr)
		m.RxTick = uint64(1000 + i*100)
		m.RxNanos = metrics.NowNanos()
		ms = append(ms, m)
	}
	for i := 0; i < len(ms); i += 8 {
		end := i + 8
		if end > len(ms) {
			end = len(ms)
		}
		c.ProcessBurst(ms[i:end])
	}
	c.Flush()

	lat := c.Latency()
	if lat == nil {
		t.Fatal("Latency() nil with tracking enabled")
	}
	h := lat.RxHist()
	if h.Count() != uint64(delivered) {
		t.Fatalf("rx→delivery count = %d, delivered = %d", h.Count(), delivered)
	}
	if delivered == 0 {
		t.Fatal("no deliveries in the workload")
	}
	if h.Sum() < 0 {
		t.Fatalf("negative latency sum %g", h.Sum())
	}
}

// TestStageSamplingDeterministic pins the 1-in-128 rule: recorded stage
// sample counts equal floor(invocations/128) regardless of how the
// invocations were batched.
func TestStageSamplingDeterministic(t *testing.T) {
	ones := make([]uint64, 129)
	for i := range ones {
		ones[i] = 1
	}
	for _, batches := range [][]uint64{
		ones,
		{129},
		{5, 124},
		{128, 1},
		{26, 26, 26, 26, 26},
		{300},
		{127, 127, 127},
	} {
		lat := NewLatencyStats()
		s := NewStageStats(false)
		s.lat = lat
		var total uint64
		for _, n := range batches {
			if n == 1 {
				s.Time(StageConnTrack, func() {})
			} else {
				s.TimeBatch(StageConnTrack, n, func() {})
			}
			total += n
		}
		lat.flush()
		want := total >> latencySampleShift
		if got := lat.StageHist(StageConnTrack).Count(); got != want {
			t.Fatalf("batches %v: recorded %d samples, want %d", batches, got, want)
		}
	}
}

// TestFlowWitnessElephant checks the sampled space-saving sketch
// surfaces a dominant flow and TopShare reflects its share. Counts are
// 1-in-32 sampled and scaled back at publish, so assertions carry a
// sampling tolerance around the true 900/1000 split.
func TestFlowWitnessElephant(t *testing.T) {
	w := &FlowWitness{}
	elephant := layers.FiveTuple{SrcPort: 1, DstPort: 443}
	for i := 0; i < 900; i++ {
		w.Note(&elephant)
		if i%9 == 0 {
			// 100 packets spread over 20 mice (5 each): more distinct
			// flows than witness slots, so replacement must occur.
			mouse := layers.FiveTuple{SrcPort: uint16(2 + i%20), DstPort: 80}
			w.Note(&mouse)
		}
	}
	w.publish()
	top := w.Top()
	if len(top) == 0 || top[0].Tuple != elephant {
		t.Fatalf("elephant not at top: %+v", top)
	}
	if top[0].Packets < 750 {
		t.Fatalf("witness undercounted the elephant: %d, want ≥ 750 (~900 sampled 1-in-32)", top[0].Packets)
	}
	// The deterministic 1-in-32 stride aliases with this test's periodic
	// elephant/mouse interleaving, so the elephant's sample share can sit
	// a few points below its true 0.9 packet share.
	share := w.TopShare(1000)
	if share < 0.75 || share > 1.05 {
		t.Fatalf("TopShare = %g, want ≈0.9", share)
	}
	if w.TopShare(0) != 0 {
		t.Fatal("TopShare(0) must be 0")
	}
}

// TestDutyAccounting runs a core against a real ring and checks the
// duty ledger: busy and wait both advance, fractions are sane, and all
// packets are attributed.
func TestDutyAccounting(t *testing.T) {
	sub := &Subscription{Level: LevelPacket, OnPacket: func(*Packet) {}}
	c := latencyTestCore(t, 8, sub)
	d := c.Duty()
	if d == nil {
		t.Fatal("Duty() nil with tracking enabled")
	}
	ring := &scriptedRing{t: t}
	f := newFlow(t, 42002, 443)
	for i := 0; i < 64; i++ {
		m := mbuf.FromBytes(f.pkt(true, layers.TCPAck, []byte("x")))
		m.RxTick = uint64(1000 + i)
		ring.frames = append(ring.frames, m)
	}
	c.Run(ring)
	if d.BusyNs() <= 0 {
		t.Fatalf("busy = %d, want > 0", d.BusyNs())
	}
	if d.WaitNs() <= 0 {
		t.Fatalf("wait = %d, want > 0 (ring parks between refills)", d.WaitNs())
	}
	if bf := d.BusyFraction(); bf <= 0 || bf >= 1 {
		t.Fatalf("busy fraction = %g, want in (0,1)", bf)
	}
	if d.Bursts() == 0 || d.Wakeups() == 0 {
		t.Fatalf("bursts=%d wakeups=%d, want both > 0", d.Bursts(), d.Wakeups())
	}
	if got := c.Stats().Processed; got != 64 {
		t.Fatalf("processed %d packets, want 64", got)
	}
}

// scriptedRing feeds frames in two halves with a forced Wait between
// them, so the duty loop exercises both the busy and the park path.
type scriptedRing struct {
	t      *testing.T
	frames []*mbuf.Mbuf
	pos    int
	waited int
	// onWait, when set, runs at every Wait before it answers.
	onWait func()
}

func (r *scriptedRing) DequeueBurst(buf []*mbuf.Mbuf) int {
	half := len(r.frames) / 2
	limit := half
	if r.waited > 0 {
		limit = len(r.frames)
	}
	n := 0
	for r.pos < limit && n < len(buf) {
		buf[n] = r.frames[r.pos]
		r.pos++
		n++
	}
	return n
}

func (r *scriptedRing) Wait() bool {
	r.waited++
	if r.onWait != nil {
		r.onWait()
	}
	return r.pos < len(r.frames)
}
