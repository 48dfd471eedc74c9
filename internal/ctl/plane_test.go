package ctl

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"retina/internal/conntrack"
	"retina/internal/core"
	"retina/internal/filter"
	"retina/internal/layers"
	"retina/internal/mbuf"
	"retina/internal/nic"
)

func pktSub(count *atomic.Uint64) *core.Subscription {
	return &core.Subscription{Level: core.LevelPacket, OnPacket: func(*core.Packet) { count.Add(1) }}
}

func connSub(count *atomic.Uint64) *core.Subscription {
	return &core.Subscription{Level: core.LevelConnection, OnConn: func(*core.ConnRecord) { count.Add(1) }}
}

func mustSpec(t *testing.T, name, filterSrc string, sub *core.Subscription) *core.SubSpec {
	t.Helper()
	spec, err := NewSpec(name, filterSrc, sub, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func newTestCore(t *testing.T, p *Plane) *core.Core {
	t.Helper()
	c, err := core.NewCore(0, core.Config{Set: p.Current(), Conntrack: conntrack.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// conn synthesizes one TCP or UDP connection's frames.
type conn struct {
	b        layers.Builder
	srvPort  uint16
	cliPort  uint16
	proto    uint8
	cliSeq   uint32
	srvSeq   uint32
	tickBase uint64
}

func newConn(cliPort, srvPort uint16, proto uint8) *conn {
	return &conn{cliPort: cliPort, srvPort: srvPort, proto: proto, cliSeq: 1000, srvSeq: 50000}
}

func (c *conn) pkt(fromClient bool, flags uint8, payload []byte) []byte {
	spec := &layers.PacketSpec{Proto: c.proto, TCPFlags: flags, Payload: payload}
	cli, srv := layers.ParseAddr4("10.2.0.9"), layers.ParseAddr4("192.0.2.7")
	if fromClient {
		spec.SrcIP4, spec.DstIP4 = cli, srv
		spec.SrcPort, spec.DstPort = c.cliPort, c.srvPort
		spec.Seq = c.cliSeq
		c.cliSeq += uint32(len(payload))
		if flags&(layers.TCPSyn|layers.TCPFin) != 0 {
			c.cliSeq++
		}
	} else {
		spec.SrcIP4, spec.DstIP4 = srv, cli
		spec.SrcPort, spec.DstPort = c.srvPort, c.cliPort
		spec.Seq = c.srvSeq
		c.srvSeq += uint32(len(payload))
		if flags&(layers.TCPSyn|layers.TCPFin) != 0 {
			c.srvSeq++
		}
	}
	return c.b.Build(spec)
}

func feed(c *core.Core, frames ...[]byte) {
	for i, fr := range frames {
		m := mbuf.FromBytes(fr)
		m.RxTick = c.Now() + uint64(i+1)*1000
		c.ProcessBurst([]*mbuf.Mbuf{m})
	}
}

// TestPlaneBookkeeping exercises the slot table without any cores:
// names are unique, IDs are never reused, removes retire immediately
// when nothing holds a match.
func TestPlaneBookkeeping(t *testing.T) {
	var n atomic.Uint64
	p, err := New(Options{Slots: []*core.SubSpec{mustSpec(t, "main", "tcp.port = 443", pktSub(&n))}})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.List(); len(got) != 1 || got[0].Name != "main" || got[0].ID != 0 {
		t.Fatalf("initial list = %+v", got)
	}

	info, err := p.Add("web", "tcp.port = 80", pktSub(&n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != 1 || p.Epoch() != 1 || p.Swaps() != 1 {
		t.Fatalf("after add: info %+v epoch %d swaps %d", info, p.Epoch(), p.Swaps())
	}
	if _, err := p.Add("web", "udp", pktSub(&n), nil); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := p.Add("bad", "no such proto &&&", pktSub(&n), nil); err == nil {
		t.Fatal("bad filter accepted")
	}
	if err := p.Remove("ghost"); err == nil {
		t.Fatal("removing unknown subscription succeeded")
	}

	// No cores and no live connections: the removal retires immediately.
	if err := p.Remove("main"); err != nil {
		t.Fatal(err)
	}
	got := p.List()
	if len(got) != 1 || got[0].Name != "web" {
		t.Fatalf("after remove: %+v", got)
	}

	// The freed slot is reused, the ID is not.
	info, err = p.Add("main", "udp.port = 53", pktSub(&n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != 2 {
		t.Fatalf("reused ID %d, want 2", info.ID)
	}
	if p.Epoch() != 3 || p.Swaps() != 3 {
		t.Fatalf("epoch %d swaps %d, want 3/3", p.Epoch(), p.Swaps())
	}
}

// TestPlanePickupAndDispatch: a core picks a published set up at its
// next burst boundary, acks the epoch, and dispatches each packet to
// every matching subscription.
func TestPlanePickupAndDispatch(t *testing.T) {
	var nA, nB atomic.Uint64
	p, err := New(Options{Slots: []*core.SubSpec{mustSpec(t, "a", "tcp.port = 443", pktSub(&nA))}})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCore(t, p)
	p.AttachCores([]*core.Core{c}, nil)

	tls := newConn(40100, 443, layers.IPProtoTCP)
	feed(c, tls.pkt(true, layers.TCPSyn, nil))
	if nA.Load() != 1 {
		t.Fatalf("a delivered %d, want 1", nA.Load())
	}

	if _, err := p.Add("b", "tcp", pktSub(&nB), nil); err != nil {
		t.Fatal(err)
	}
	if got := c.AckedEpoch(); got != 0 {
		t.Fatalf("core acked %d before processing any packet, want 0", got)
	}
	// Next packet: pickup happens first, then the packet is evaluated
	// against the new set — both subscriptions match it.
	feed(c, tls.pkt(false, layers.TCPSyn|layers.TCPAck, nil))
	if got := c.AckedEpoch(); got != 1 {
		t.Fatalf("core acked %d, want 1", got)
	}
	if nA.Load() != 2 || nB.Load() != 1 {
		t.Fatalf("a=%d b=%d, want 2/1", nA.Load(), nB.Load())
	}
	if st := c.Stats(); st.EpochSwaps != 1 {
		t.Fatalf("EpochSwaps = %d, want 1", st.EpochSwaps)
	}

	// Remove a: the next packet is delivered only to b.
	if err := p.Remove("a"); err != nil {
		t.Fatal(err)
	}
	feed(c, tls.pkt(true, layers.TCPAck, nil))
	if nA.Load() != 2 || nB.Load() != 2 {
		t.Fatalf("after remove: a=%d b=%d, want 2/2", nA.Load(), nB.Load())
	}
}

// TestPlaneAckWaiting: once Start is called, Add blocks until the cores
// ack — and reports a timeout (while still committing the swap) when
// they don't.
func TestPlaneAckWaiting(t *testing.T) {
	var n atomic.Uint64
	p, err := New(Options{
		Slots:       []*core.SubSpec{mustSpec(t, "main", "tcp", pktSub(&n))},
		SwapTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCore(t, p)
	p.AttachCores([]*core.Core{c}, nil)
	p.Start()
	defer p.Stop()

	// The core consumes while the add is in flight: the add completes
	// without a timeout.
	done := make(chan error, 1)
	go func() {
		_, err := p.Add("late", "udp", pktSub(&n), nil)
		done <- err
	}()
	flow := newConn(40200, 443, layers.IPProtoTCP)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if c.AckedEpoch() != 1 {
				t.Fatalf("acked %d, want 1", c.AckedEpoch())
			}
			goto timeoutCase
		default:
			feed(c, flow.pkt(true, layers.TCPAck, nil))
		}
	}

timeoutCase:
	// Nothing consumes: the add times out but the swap is committed.
	if _, err := p.Add("stalled", "udp.port = 53", pktSub(&n), nil); err == nil {
		t.Fatal("expected ack timeout")
	} else if !strings.Contains(err.Error(), "not acked") {
		t.Fatalf("unexpected error: %v", err)
	}
	if p.Epoch() != 2 {
		t.Fatalf("epoch %d, want 2 (timeout must still commit)", p.Epoch())
	}
	found := false
	for _, info := range p.List() {
		if info.Name == "stalled" {
			found = true
		}
	}
	if !found {
		t.Fatal("timed-out add missing from List")
	}
}

// TestPlaneDrain: removing a connection-level subscription keeps its
// matched connections alive until termination — the final callback is
// still delivered — while new connections never match. The spec stays
// visible (draining) until its live-connection count reaches zero.
func TestPlaneDrain(t *testing.T) {
	var n atomic.Uint64
	p, err := New(Options{Slots: []*core.SubSpec{mustSpec(t, "conns", "tcp.port = 443", connSub(&n))}})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCore(t, p)
	p.AttachCores([]*core.Core{c}, nil)

	f := newConn(40300, 443, layers.IPProtoTCP)
	feed(c,
		f.pkt(true, layers.TCPSyn, nil),
		f.pkt(false, layers.TCPSyn|layers.TCPAck, nil),
		f.pkt(true, layers.TCPAck, []byte("x")),
	)
	list := p.List()
	if len(list) != 1 || list[0].LiveConns != 1 {
		t.Fatalf("before remove: %+v", list)
	}

	if err := p.Remove("conns"); err != nil {
		t.Fatal(err)
	}
	list = p.List()
	if len(list) != 1 || !list[0].Draining {
		t.Fatalf("removed sub should be draining: %+v", list)
	}

	// A brand-new 443 connection no longer matches.
	g := newConn(40301, 443, layers.IPProtoTCP)
	feed(c, g.pkt(true, layers.TCPSyn, nil), g.pkt(false, layers.TCPSyn|layers.TCPAck, nil))

	// The matched connection terminates: its final record is delivered
	// to the draining subscription.
	feed(c,
		f.pkt(true, layers.TCPFin|layers.TCPAck, nil),
		f.pkt(false, layers.TCPFin|layers.TCPAck, nil),
	)
	c.Flush()
	if n.Load() != 1 {
		t.Fatalf("final records delivered = %d, want exactly 1 (the drained conn)", n.Load())
	}
	if list = p.List(); len(list) != 0 {
		t.Fatalf("drained sub not retired: %+v", list)
	}
}

// BenchmarkSubscriptionSwap measures the control-plane swap: epoch-ack
// latency while one core keeps consuming packets, with packets/s
// sustained during the churn reported alongside.
func BenchmarkSubscriptionSwap(b *testing.B) {
	var n atomic.Uint64
	p, err := New(Options{Slots: []*core.SubSpec{{
		Name:   "base",
		Filter: "tcp",
		Sub:    &core.Subscription{Level: core.LevelPacket, OnPacket: func(*core.Packet) { n.Add(1) }},
		Prog:   mustCompile(b, "tcp"),
	}}})
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.NewCore(0, core.Config{Set: p.Current(), Conntrack: conntrack.DefaultConfig()})
	if err != nil {
		b.Fatal(err)
	}
	p.AttachCores([]*core.Core{c}, nil)
	p.Start()
	defer p.Stop()

	// One goroutine consumes packets continuously (each one-packet
	// ProcessBurst is a burst boundary, i.e. a pickup opportunity), while
	// the benchmark loop churns add/remove swaps through the plane.
	stop := make(chan struct{})
	var pkts atomic.Uint64
	go func() {
		f := newConn(40400, 443, layers.IPProtoTCP)
		frame := f.pkt(true, layers.TCPAck, []byte("y"))
		var tick uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := mbuf.FromBytes(frame)
			tick += 1000
			m.RxTick = tick
			c.ProcessBurst([]*mbuf.Mbuf{m})
			pkts.Add(1)
		}
	}()

	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Add("churn", "udp.port = 53", pktSub(&n), nil); err != nil {
			b.Fatal(err)
		}
		if err := p.Remove("churn"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := time.Since(start)
	close(stop)

	// Each iteration is two swaps (add + remove), each waiting for the
	// core's epoch ack.
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N*2), "ns/swap-ack")
	b.ReportMetric(float64(pkts.Load())/elapsed.Seconds(), "pkts/s")
}

func mustCompile(tb testing.TB, src string) *filter.Program {
	tb.Helper()
	prog, err := filter.Compile(src, filter.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// TestPlaneReconcileErrorSurfaced: a subscription add whose merged rule
// set exceeds the device's rule capacity must not silently degrade. The
// swap itself succeeds — the NIC falls back to pass-everything and
// software filters keep the output correct — but the operator sees the
// error counter, the last-error string, and exactly one log line.
func TestPlaneReconcileErrorSurfaced(t *testing.T) {
	capModel := nic.CapabilityModel{ExactMatch: true, PrefixMatch: true, MaxRules: 1}
	pool := mbuf.NewPool(64, 2048)
	dev := nic.New(nic.Config{Queues: 1, RingSize: 64, Pool: pool, Capability: capModel})

	var nTLS, nDNS atomic.Uint64
	var logs []string
	spec, err := NewSpec("tls", "ipv4 and tcp.port = 443", pktSub(&nTLS), nil, Options{HW: capModel})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Options{
		Slots: []*core.SubSpec{spec},
		HW:    capModel,
		Logf:  func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.InstallRules(p.Current().Multi.Rules); err != nil {
		t.Fatal(err)
	}
	if !dev.HardwareActive() {
		t.Fatal("initial single-rule program should fit the device")
	}
	c := newTestCore(t, p)
	p.AttachCores([]*core.Core{c}, dev)

	// The union (tcp.443 + udp.53) needs 2 rules > MaxRules 1: the grow
	// reconcile fails mid-swap, the swap still commits.
	if _, err := p.Add("dns", "ipv4 and udp.port = 53", pktSub(&nDNS), nil); err != nil {
		t.Fatalf("swap must survive a hardware reconcile failure: %v", err)
	}
	// Both the grow (union) and the shrink (new set) fail — two counted
	// operations, but the operator log carries one line per transition.
	if got := p.ReconcileErrors(); got != 2 {
		t.Fatalf("ReconcileErrors = %d, want 2 (grow and shrink)", got)
	}
	if last := p.LastReconcileError(); !strings.Contains(last, "shrink") {
		t.Fatalf("LastReconcileError = %q, want the most recent failing operation named", last)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "grow") {
		t.Fatalf("logged %q, want exactly one warning naming the first failure", logs)
	}
	if dev.HardwareActive() {
		t.Fatal("failed grow must fall back to pass-everything")
	}

	// End-to-end through the device: everything passes to software,
	// software filters keep per-subscription deliveries exact.
	tls := newConn(40500, 443, layers.IPProtoTCP)
	dns := newConn(40501, 53, layers.IPProtoUDP)
	other := newConn(40502, 8080, layers.IPProtoTCP)
	dev.DeliverBurst([][]byte{
		tls.pkt(true, layers.TCPSyn, nil),
		dns.pkt(true, 0, []byte("q")),
		other.pkt(true, layers.TCPSyn, nil),
	}, []uint64{1000, 2000, 3000})
	st := dev.Stats()
	if st.HWDropped != 0 || st.Delivered != 3 {
		t.Fatalf("device stats %+v, want all 3 frames delivered", st)
	}

	buf := make([]*mbuf.Mbuf, 8)
	n := dev.Queue(0).DequeueBurst(buf)
	if n != 3 {
		t.Fatalf("dequeued %d frames, want 3", n)
	}
	for _, m := range buf[:n] {
		c.ProcessBurst([]*mbuf.Mbuf{m})
	}
	if nTLS.Load() != 1 || nDNS.Load() != 1 {
		t.Fatalf("deliveries tls=%d dns=%d, want 1/1", nTLS.Load(), nDNS.Load())
	}
	cs := c.Stats()
	if cs.Processed != 3 || cs.FilterDropped != 1 {
		t.Fatalf("core stats %+v, want 3 processed with 1 filter drop", cs)
	}
	if st.RxFrames != st.Delivered+st.HWDropped+st.Loss()+st.Malformed {
		t.Fatalf("conservation violated: %+v", st)
	}
}
