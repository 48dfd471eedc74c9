package retina

import (
	"testing"
	"unsafe"

	"retina/internal/traffic"
)

// runDifferential runs one full multi-core online pass over a seeded
// campus workload at the given burst size. Rings and pool are sized so
// the NIC never sheds load: with zero nondeterministic loss, every
// counter in the run is a pure function of the workload and the RSS
// hash, and must be identical across burst sizes.
func runDifferential(t *testing.T, burst int, sub *Subscription) (*Runtime, Stats) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Filter = "ipv4 and tcp"
	cfg.Cores = 2
	cfg.RingSize = 1 << 16
	cfg.PoolSize = 1 << 17
	cfg.BurstSize = burst
	rt, err := New(cfg, sub)
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 7, Flows: 500, Gbps: 20})
	st := rt.Run(src)
	if st.Loss() != 0 {
		t.Fatalf("burst=%d: unexpected NIC loss %d (rings/pool undersized for differential run)", burst, st.Loss())
	}
	return rt, st
}

// TestBurstDifferentialCounts is the end-to-end differential for the
// burst datapath: the identical seeded workload at burst=1 (one-packet
// bursts) and burst=32 must produce identical NIC stats and
// identical per-core delivery, drop, and expiry accounting.
func TestBurstDifferentialCounts(t *testing.T) {
	_, legacy := runDifferential(t, 1, Connections(func(*ConnRecord) {}))
	_, burst := runDifferential(t, 32, Connections(func(*ConnRecord) {}))

	if legacy.NIC != burst.NIC {
		t.Errorf("NIC stats diverge:\nburst=1:  %+v\nburst=32: %+v", legacy.NIC, burst.NIC)
	}
	if len(legacy.Cores) != len(burst.Cores) {
		t.Fatalf("core counts differ: %d vs %d", len(legacy.Cores), len(burst.Cores))
	}
	for i := range legacy.Cores {
		if legacy.Cores[i] != burst.Cores[i] {
			t.Errorf("core %d stats diverge:\nburst=1:  %+v\nburst=32: %+v", i, legacy.Cores[i], burst.Cores[i])
		}
	}
	if legacy.ConnsLive != burst.ConnsLive {
		t.Errorf("live connections diverge: burst=1 %d, burst=32 %d", legacy.ConnsLive, burst.ConnsLive)
	}
}

// TestBurstConservation checks the packet-conservation invariant on the
// burst datapath: every frame the NIC accepted is either delivered to a
// ring or attributed to exactly one drop reason, and every mbuf a core
// consumed is accounted for by its per-reason counters: exactly, for a
// packet subscription. A connection subscription absorbs the packets of
// its tracked connections into connection state, which no per-core
// counter records, so there the counters only bound Processed.
func TestBurstConservation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sub   *Subscription
		exact bool
	}{
		{"packets", Packets(func(*Packet) {}), true},
		{"conns", Connections(func(*ConnRecord) {}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, st := runDifferential(t, 32, tc.sub)
			n := st.NIC
			if n.RxFrames != n.HWDropped+n.HWOffloadDrop+n.Sunk+n.Delivered+n.RingDrops+n.NoMbuf+n.Oversize+n.Malformed {
				t.Fatalf("NIC conservation violated: %+v", n)
			}
			var processed uint64
			for i, c := range st.Cores {
				accounted := c.FilterDropped + c.TombstonePkts + c.DeliveredPackets +
					c.NotTrackable + c.TableFull + c.PktBufOverflow + c.PendingDiscard +
					c.PktBufBudget + c.ShedLowPool + c.EvictedPressure
				if accounted > c.Processed {
					t.Fatalf("core %d: drop reasons (%d) exceed processed (%d): %+v", i, accounted, c.Processed, c)
				}
				processed += c.Processed
			}
			if processed != n.Delivered {
				t.Fatalf("cores processed %d of %d delivered frames", processed, n.Delivered)
			}
			if tc.exact {
				assertFrameConservation(t, rt, st)
			}
		})
	}
}

// TestBurstRingOverflowOnlineExactlyOnce forces ring overflow in the
// online burst path (tiny rings, multi-packet bursts) and checks each
// lost frame lands in RingDrops exactly once, keeping conservation
// intact even when the staged burst only partially fits.
func TestBurstRingOverflowOnlineExactlyOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = "ipv4 and tcp"
	cfg.Cores = 1
	cfg.RingSize = 8 // far below a burst's worth of backlog
	cfg.PoolSize = 1 << 14
	cfg.BurstSize = 32
	rt, err := New(cfg, Connections(func(*ConnRecord) {}))
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 3, Flows: 200, Gbps: 40})
	st := rt.Run(src)

	n := st.NIC
	if n.RxFrames != n.HWDropped+n.HWOffloadDrop+n.Sunk+n.Delivered+n.RingDrops+n.NoMbuf+n.Oversize+n.Malformed {
		t.Fatalf("NIC conservation violated under overflow: %+v", n)
	}
	var processed uint64
	for _, c := range st.Cores {
		processed += c.Processed
	}
	if processed != n.Delivered {
		t.Fatalf("cores processed %d of %d delivered frames (lost or double-delivered descriptors)", processed, n.Delivered)
	}
	if rt.Pool().InUse() != 0 {
		t.Fatalf("pool leak after overflow run: %d mbufs in use", rt.Pool().InUse())
	}
}

// In a packets-only offline run the callback's Packet.Data is the
// source's frame itself: nothing copied it.
func TestRunOfflinePacketDataAliasesSource(t *testing.T) {
	tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: 33, Flows: 50, Gbps: 20}), 0)
	starts := make(map[*byte]bool, len(tr.Frames))
	for _, f := range tr.Frames {
		starts[unsafe.SliceData(f)] = true
	}
	cfg := DefaultConfig()
	cfg.Cores = 1
	var delivered, aliased int
	rt, err := New(cfg, Packets(func(p *Packet) {
		delivered++
		if starts[unsafe.SliceData(p.Data)] {
			aliased++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	rt.RunOffline(tr.Replay())
	if delivered != len(tr.Frames) || aliased != delivered {
		t.Fatalf("%d frames, %d delivered, %d aliasing the source", len(tr.Frames), delivered, aliased)
	}
}
