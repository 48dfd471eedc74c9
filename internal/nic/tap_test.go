package nic

import (
	"sync/atomic"
	"testing"

	"retina/internal/filter"
	"retina/internal/mbuf"
)

func drainAll(n *NIC) {
	var buf [64]*mbuf.Mbuf
	for i := 0; i < n.Queues(); i++ {
		for {
			got := n.Queue(i).DequeueBurst(buf[:])
			if got == 0 {
				break
			}
			for _, m := range buf[:got] {
				m.Free()
			}
		}
	}
}

func TestAggTapCountsMatchingFrames(t *testing.T) {
	pool := mbuf.NewPool(64, 2048)
	n := New(Config{Queues: 1, RingSize: 32, Pool: pool, Capability: ConnectX5Model()})
	prog := filter.MustCompile("udp.port = 53", filter.Options{HW: n.Capability()})
	var count, bytes atomic.Uint64
	id, err := n.AddAggTap(prog.Rules, func(wire int, tick uint64) {
		count.Add(1)
		bytes.Add(uint64(wire))
	})
	if err != nil {
		t.Fatal(err)
	}
	dns := buildUDP("1.1.1.1", "2.2.2.2", 4000, 53)
	deliverOne(n, dns, 1)
	deliverOne(n, buildTCP("1.1.1.1", "2.2.2.2", 4000, 80), 2)
	deliverOne(n, dns, 3)
	if got := count.Load(); got != 2 {
		t.Fatalf("tap count = %d, want 2", got)
	}
	if got := bytes.Load(); got != uint64(2*len(dns)) {
		t.Fatalf("tap bytes = %d, want %d", got, 2*len(dns))
	}
	n.RemoveAggTap(id)
	deliverOne(n, dns, 4)
	if got := count.Load(); got != 2 {
		t.Fatalf("tap fired after removal: count = %d", got)
	}
	drainAll(n)
}

func TestAggTapCatchAll(t *testing.T) {
	pool := mbuf.NewPool(64, 2048)
	n := New(Config{Queues: 1, RingSize: 32, Pool: pool})
	var count atomic.Uint64
	// No rules = catch-all: every decodable frame fires the tap.
	if _, err := n.AddAggTap(nil, func(int, uint64) { count.Add(1) }); err != nil {
		t.Fatal(err)
	}
	deliverOne(n, buildTCP("1.1.1.1", "2.2.2.2", 1, 2), 1)
	deliverOne(n, buildUDP("3.3.3.3", "4.4.4.4", 5, 6), 2)
	if got := count.Load(); got != 2 {
		t.Fatalf("catch-all tap count = %d, want 2", got)
	}
	drainAll(n)
}

// TestAggTapSeesFramesDroppedLater pins the hardware-counter semantics:
// the tap observes frames at the parser, before the flow-offload and
// static-rule drop stages, so a frame the NIC then drops still counts.
func TestAggTapSeesFramesDroppedLater(t *testing.T) {
	pool := mbuf.NewPool(64, 2048)
	n := New(Config{Queues: 1, RingSize: 16, Pool: pool, Capability: ConnectX5Model()})
	// Static rules admit only TCP; the tap counts UDP port 53.
	keep := filter.MustCompile("ipv4 and tcp", filter.Options{HW: n.Capability()})
	if err := n.InstallRules(keep.Rules); err != nil {
		t.Fatal(err)
	}
	tapProg := filter.MustCompile("udp.port = 53", filter.Options{HW: n.Capability()})
	var count atomic.Uint64
	if _, err := n.AddAggTap(tapProg.Rules, func(int, uint64) { count.Add(1) }); err != nil {
		t.Fatal(err)
	}
	deliverOne(n, buildUDP("1.1.1.1", "2.2.2.2", 4000, 53), 1)
	st := n.Stats()
	if st.HWDropped != 1 {
		t.Fatalf("frame not dropped by static rules: %+v", st)
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("tap missed a hardware-dropped frame: count = %d", got)
	}
	drainAll(n)
}

func TestAggTapNilFuncRejected(t *testing.T) {
	pool := mbuf.NewPool(4, 2048)
	n := New(Config{Queues: 1, Pool: pool})
	if _, err := n.AddAggTap(nil, nil); err == nil {
		t.Fatal("nil tap func accepted")
	}
}

func TestAggTapUnsupportedRuleRejected(t *testing.T) {
	pool := mbuf.NewPool(4, 2048)
	n := New(Config{Queues: 1, Pool: pool}) // zero capability
	prog := filter.MustCompile("tcp.port = 443", filter.Options{HW: filter.PermissiveCapability{}})
	if _, err := n.AddAggTap(prog.Rules, func(int, uint64) {}); err == nil {
		t.Fatal("zero-capability device accepted a tap with exact-match rules")
	}
}
