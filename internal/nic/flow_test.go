package nic

import (
	"testing"

	"retina/internal/filter"
	"retina/internal/layers"
	"retina/internal/mbuf"
)

// tupleOf parses a built frame back into its canonical five-tuple (the
// key the offload manager would install).
func tupleOf(t testing.TB, frame []byte) layers.FiveTuple {
	t.Helper()
	var p layers.Parsed
	if err := p.DecodeLayers(frame); err != nil {
		t.Fatal(err)
	}
	ft, ok := layers.FiveTupleFrom(&p)
	if !ok {
		t.Fatal("frame not trackable")
	}
	key, _ := ft.Canonical()
	return key
}

// TestFlowRulesDropAndAccount: an installed flow rule drops both
// directions of the flow at the device under the hw_offload_drop
// counter, leaves other traffic alone, and conservation holds.
func TestFlowRulesDropAndAccount(t *testing.T) {
	pool := mbuf.NewPool(64, 2048)
	n := New(Config{Queues: 1, RingSize: 64, Pool: pool, Capability: ConnectX5Model()})

	fwd := buildTCP("10.0.0.1", "10.0.0.2", 1234, 443)
	rev := buildTCP("10.0.0.2", "10.0.0.1", 443, 1234)
	other := buildTCP("10.0.0.3", "10.0.0.4", 5678, 443)

	added, refreshed, rejected := n.AddFlowRules([]layers.FiveTuple{tupleOf(t, fwd)}, 10)
	if added != 1 || refreshed != 0 || rejected != 0 {
		t.Fatalf("AddFlowRules = (%d, %d, %d), want (1, 0, 0)", added, refreshed, rejected)
	}
	if n.FlowRuleCount() != 1 {
		t.Fatalf("FlowRuleCount = %d", n.FlowRuleCount())
	}

	deliverOne(n, fwd, 11)
	deliverOne(n, rev, 12) // canonical key matches the reverse direction too
	deliverOne(n, other, 13)
	st := n.Stats()
	if st.HWOffloadDrop != 2 || st.Delivered != 1 {
		t.Fatalf("stats %+v, want 2 offload drops and 1 delivery", st)
	}
	if st.RxFrames != 3 || st.Disposed() != st.RxFrames {
		t.Fatalf("conservation violated: %+v", st)
	}

	infos := n.FlowRules()
	if len(infos) != 1 || infos[0].Hits != 2 || infos[0].LastHit != 12 {
		t.Fatalf("rule info = %+v, want 2 hits with last at tick 12", infos)
	}

	// Re-adding the same key refreshes instead of duplicating.
	_, refreshed, _ = n.AddFlowRules([]layers.FiveTuple{tupleOf(t, fwd)}, 20)
	if refreshed != 1 || n.FlowRuleCount() != 1 {
		t.Fatalf("refresh = %d count = %d", refreshed, n.FlowRuleCount())
	}

	if removed := n.RemoveFlowRules([]layers.FiveTuple{tupleOf(t, fwd)}); removed != 1 {
		t.Fatalf("RemoveFlowRules = %d", removed)
	}
	deliverOne(n, fwd, 30)
	if st := n.Stats(); st.HWOffloadDrop != 2 || st.Delivered != 2 {
		t.Fatalf("post-remove stats %+v", st)
	}
}

// TestFlowRulesCapacityAndStaticPrecedence: the dynamic partition is
// bounded by MaxRules minus the static rules, and a static install
// evicts least-recently-hit flow rules to make room.
func TestFlowRulesCapacityAndStaticPrecedence(t *testing.T) {
	pool := mbuf.NewPool(64, 2048)
	capModel := CapabilityModel{ExactMatch: true, PrefixMatch: true, MaxRules: 4}
	n := New(Config{Queues: 1, RingSize: 64, Pool: pool, Capability: capModel})

	keys := make([]layers.FiveTuple, 6)
	for i := range keys {
		keys[i] = tupleOf(t, buildTCP("10.0.0.1", "10.0.0.2", uint16(1000+i), 443))
	}

	// No static rules: full table available to flows, overflow rejected.
	added, _, rejected := n.AddFlowRules(keys, 1)
	if added != 4 || rejected != 2 {
		t.Fatalf("AddFlowRules = added %d rejected %d, want 4, 2", added, rejected)
	}
	if got := n.FlowCapacity(); got != 4 {
		t.Fatalf("FlowCapacity = %d, want 4", got)
	}

	// Touch keys[1] so it is the most recently hit; the rest idle.
	deliverOne(n, buildTCP("10.0.0.1", "10.0.0.2", 1001, 443), 50)

	// Installing 3 static rules leaves room for 1 flow rule: the three
	// least-recently-hit flow rules are evicted, the hot one survives.
	rules := append(rulesOf(t, "ipv4 and tcp.port = 443", capModel),
		append(rulesOf(t, "ipv4 and udp.port = 53", capModel),
			rulesOf(t, "ipv4 and tcp.port = 80", capModel)...)...)
	if err := n.InstallRules(rules); err != nil {
		t.Fatal(err)
	}
	if got := n.FlowCapacity(); got != 1 {
		t.Fatalf("FlowCapacity after static install = %d, want 1", got)
	}
	if n.FlowRuleCount() != 1 {
		t.Fatalf("FlowRuleCount = %d, want 1 (static precedence trims flows)", n.FlowRuleCount())
	}
	if n.FlowTrims() != 3 {
		t.Fatalf("FlowTrims = %d, want 3", n.FlowTrims())
	}
	if infos := n.FlowRules(); len(infos) != 1 || infos[0].Key != keys[1] {
		t.Fatalf("surviving rule %+v, want the most recently hit key", infos)
	}

	// ClearRules (fallback to pass-everything) keeps the dynamic
	// partition: per-flow verdicts stay valid without static filtering.
	n.ClearRules()
	if n.FlowRuleCount() != 1 {
		t.Fatalf("ClearRules dropped the dynamic partition (count %d)", n.FlowRuleCount())
	}

	if flushed := n.FlushFlowRules(); flushed != 1 {
		t.Fatalf("FlushFlowRules = %d", flushed)
	}
	if n.FlowRuleCount() != 0 {
		t.Fatalf("flush left %d rules", n.FlowRuleCount())
	}
}

// TestStaticRuleHitCounters: the per-rule hit counters survive reinstalls
// of overlapping rule sets (entries are carried over by source).
func TestStaticRuleHitCounters(t *testing.T) {
	pool := mbuf.NewPool(64, 2048)
	n := New(Config{Queues: 1, RingSize: 64, Pool: pool, Capability: ConnectX5Model()})
	tcp := rulesOf(t, "ipv4 and tcp.port = 443", n.Capability())
	if err := n.InstallRules(tcp); err != nil {
		t.Fatal(err)
	}
	deliverOne(n, buildTCP("1.1.1.1", "2.2.2.2", 1, 443), 1)
	deliverOne(n, buildTCP("1.1.1.1", "2.2.2.2", 2, 443), 2)

	both := append(append([]filter.FlowRule{}, tcp...), rulesOf(t, "ipv4 and udp.port = 53", n.Capability())...)
	if err := n.InstallRules(both); err != nil {
		t.Fatal(err)
	}
	stats := n.InstalledRuleStats()
	var tcpHits uint64
	for _, rs := range stats {
		if rs.Hits > 0 {
			tcpHits = rs.Hits
		}
	}
	if tcpHits != 2 {
		t.Fatalf("hit counter lost across reinstall: %+v", stats)
	}
}

// TestOversizeFrameAttribution is the allocMbuf misattribution
// regression: a frame larger than the pool's buffers must count as
// oversize_frame, not no_mbuf, with one-packet and with 8-frame bursts —
// and conservation must hold either way.
func TestOversizeFrameAttribution(t *testing.T) {
	big := make([]byte, 4096)
	copy(big, buildTCP("1.1.1.1", "2.2.2.2", 1, 443))

	for _, tc := range []struct {
		name  string
		burst int
	}{
		{"legacy", 1},
		{"burst", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := mbuf.NewPool(64, 2048)
			n := New(Config{Queues: 1, RingSize: 64, Pool: pool, Burst: tc.burst})
			deliverOne(n, buildTCP("1.1.1.1", "2.2.2.2", 1, 443), 1)
			deliverOne(n, big, 2)
			deliverOne(n, buildTCP("1.1.1.1", "2.2.2.2", 2, 443), 3)
			n.Close() // flush staged bursts and return the bulk cache

			st := n.Stats()
			if st.Oversize != 1 {
				t.Fatalf("Oversize = %d, want 1 (%+v)", st.Oversize, st)
			}
			if st.NoMbuf != 0 {
				t.Fatalf("oversized frame misattributed to no_mbuf: %+v", st)
			}
			if st.Delivered != 2 {
				t.Fatalf("Delivered = %d, want 2 (%+v)", st.Delivered, st)
			}
			if st.RxFrames != st.Delivered+st.Oversize {
				t.Fatalf("conservation violated: %+v", st)
			}
			if st.Loss() != 1 {
				t.Fatalf("Loss = %d, want the oversized frame counted", st.Loss())
			}
			// The failed SetData released its buffer: only the ring-resident
			// mbufs stay out.
			if pool.InUse() != 2 {
				t.Fatalf("pool InUse = %d, want 2", pool.InUse())
			}
		})
	}
}
