package core

import (
	"testing"

	"retina/internal/conntrack"
	"retina/internal/layers"
	"retina/internal/mbuf"
)

// timedFrame is one workload frame with its receive tick.
type timedFrame struct {
	frame []byte
	tick  uint64
}

// burstTestCore builds a core with short virtual timeouts so expiries
// land inside a small test workload.
func burstTestCore(t *testing.T, burst int, sub *Subscription) *Core {
	t.Helper()
	ct := conntrack.DefaultConfig()
	ct.EstablishTimeout = 500_000    // 0.5s virtual
	ct.InactivityTimeout = 1_000_000 // 1s virtual
	c, err := NewCore(0, Config{Set: testSet(t, "ipv4 and tcp", sub), Conntrack: ct, BurstSize: burst})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// timerWorkload builds a sequence where connection A goes idle and its
// inactivity deadline falls between two bursts while connection B keeps
// the clock advancing, so the once-per-burst wheel advance must expire
// A at the first burst boundary past the deadline — the same virtual
// tick at which the per-packet path expires it.
func timerWorkload(t *testing.T) []timedFrame {
	a := newFlow(t, 40001, 443)
	b := newFlow(t, 40002, 443)
	var w []timedFrame
	tick := uint64(1000)
	for _, fr := range a.handshake() {
		w = append(w, timedFrame{fr, tick})
		tick += 100
	}
	w = append(w, timedFrame{a.pkt(true, layers.TCPPsh|layers.TCPAck, []byte("ping")), tick})
	// B's packets march virtual time far past A's inactivity deadline,
	// in steps small enough that several whole bursts elapse first.
	for _, fr := range b.handshake() {
		w = append(w, timedFrame{fr, tick})
		tick += 100
	}
	for i := 0; i < 256; i++ {
		w = append(w, timedFrame{b.pkt(i%2 == 0, layers.TCPPsh|layers.TCPAck, []byte("data")), tick})
		tick += 50_000 // 50ms per packet: A's 1s deadline passes ~20 packets in
	}
	return w
}

// TestBurstBoundaryTimerSemantics runs the same seeded workload as
// one-packet bursts and through ProcessBurst at burst=32
// and asserts identical delivered/created/expired accounting. Timer
// expiry moves to burst boundaries under batching; for any workload
// whose idle gaps exceed a burst's virtual span (microseconds here,
// against second-scale timeouts) the observable counts must not change.
func TestBurstBoundaryTimerSemantics(t *testing.T) {
	run := func(burst int) (CoreStats, uint64, int) {
		var conns uint64
		sub := &Subscription{Level: LevelConnection, OnConn: func(*ConnRecord) { conns++ }}
		c := burstTestCore(t, burst, sub)
		w := timerWorkload(t)
		if burst <= 1 {
			for _, tf := range w {
				m := mbuf.FromBytes(tf.frame)
				m.RxTick = tf.tick
				c.ProcessBurst([]*mbuf.Mbuf{m})
			}
		} else {
			for i := 0; i < len(w); i += burst {
				end := i + burst
				if end > len(w) {
					end = len(w)
				}
				batch := make([]*mbuf.Mbuf, 0, burst)
				for _, tf := range w[i:end] {
					m := mbuf.FromBytes(tf.frame)
					m.RxTick = tf.tick
					batch = append(batch, m)
				}
				c.ProcessBurst(batch)
			}
		}
		// Capture pre-flush: expiry-driven deliveries must already have
		// happened during processing, not only at the final flush.
		preFlush := conns
		live := c.Table().Len()
		c.Flush()
		st := c.Stats()
		st.Delivered = 0 // recomputed per snapshot; compare components
		if conns != preFlush+uint64(live) {
			t.Fatalf("burst=%d: flush delivered %d records for %d live conns", burst, conns-preFlush, live)
		}
		return st, preFlush, live
	}

	legacy, legacyPre, legacyLive := run(1)
	burst, burstPre, burstLive := run(32)

	if legacyPre == 0 {
		t.Fatal("workload never expired a connection before flush; timer path untested")
	}
	if legacyPre != burstPre {
		t.Fatalf("pre-flush conn deliveries diverge: legacy=%d burst=%d", legacyPre, burstPre)
	}
	if legacyLive != burstLive {
		t.Fatalf("live connections at end diverge: legacy=%d burst=%d", legacyLive, burstLive)
	}
	if legacy != burst {
		t.Fatalf("core stats diverge between burst=1 and burst=32:\nlegacy: %+v\nburst:  %+v", legacy, burst)
	}
}

// TestProcessBurstMatchesPerPacket feeds an arbitrary mixed workload
// (no timer pressure) through both burst sizes and requires
// byte-identical counter snapshots: burst=1 through the batching loop
// must equal one-packet ProcessBurst calls, and burst=32 must equal both.
func TestProcessBurstMatchesPerPacket(t *testing.T) {
	mkWorkload := func() []timedFrame {
		f := newFlow(t, 41001, 443)
		g := newFlow(t, 41002, 80)
		var w []timedFrame
		tick := uint64(500)
		emit := func(fr []byte) {
			w = append(w, timedFrame{fr, tick})
			tick += 250
		}
		for _, fr := range f.handshake() {
			emit(fr)
		}
		for _, fr := range g.handshake() {
			emit(fr)
		}
		for i := 0; i < 40; i++ {
			emit(f.pkt(i%2 == 0, layers.TCPPsh|layers.TCPAck, []byte("abcdefgh")))
			emit(g.pkt(i%3 == 0, layers.TCPPsh|layers.TCPAck, []byte("xyz")))
		}
		for _, fr := range f.teardown() {
			emit(fr)
		}
		return w
	}

	run := func(burst int, viaBurstAPI bool) CoreStats {
		sub := &Subscription{Level: LevelConnection, OnConn: func(*ConnRecord) {}}
		c := burstTestCore(t, burst, sub)
		w := mkWorkload()
		if !viaBurstAPI {
			for _, tf := range w {
				m := mbuf.FromBytes(tf.frame)
				m.RxTick = tf.tick
				c.ProcessBurst([]*mbuf.Mbuf{m})
			}
		} else {
			for i := 0; i < len(w); i += burst {
				end := i + burst
				if end > len(w) {
					end = len(w)
				}
				batch := make([]*mbuf.Mbuf, 0, burst)
				for _, tf := range w[i:end] {
					m := mbuf.FromBytes(tf.frame)
					m.RxTick = tf.tick
					batch = append(batch, m)
				}
				c.ProcessBurst(batch)
			}
		}
		c.Flush()
		st := c.Stats()
		st.Delivered = 0
		return st
	}

	legacy := run(1, false)
	single := run(1, true)
	batched := run(32, true)
	if legacy != single {
		t.Fatalf("ProcessBurst(burst=1) diverges from one-packet calls:\nlegacy: %+v\nsingle: %+v", legacy, single)
	}
	if legacy != batched {
		t.Fatalf("ProcessBurst(burst=32) diverges from one-packet calls:\nlegacy: %+v\nburst:  %+v", legacy, batched)
	}
}
