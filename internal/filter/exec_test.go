package filter

import (
	"testing"

	"retina/internal/layers"
)

// fakeConn implements ConnView for tests.
type fakeConn struct{ svc string }

func (f fakeConn) ServiceName() string { return f.svc }

// fakeSession implements Session for tests.
type fakeSession struct {
	proto string
	strs  map[string]string
	ints  map[string]uint64
}

func (f fakeSession) ProtoName() string { return f.proto }
func (f fakeSession) StringField(name string) (string, bool) {
	v, ok := f.strs[name]
	return v, ok
}
func (f fakeSession) IntField(name string) (uint64, bool) {
	v, ok := f.ints[name]
	return v, ok
}

func buildPacket(t *testing.T, spec *layers.PacketSpec) *layers.Parsed {
	t.Helper()
	var b layers.Builder
	var p layers.Parsed
	if err := p.DecodeLayers(b.Build(spec)); err != nil {
		t.Fatal(err)
	}
	return &p
}

func tcpPkt(t *testing.T, srcPort, dstPort uint16) *layers.Parsed {
	return buildPacket(t, &layers.PacketSpec{
		SrcIP4: layers.ParseAddr4("10.1.1.1"), DstIP4: layers.ParseAddr4("10.2.2.2"),
		Proto: layers.IPProtoTCP, SrcPort: srcPort, DstPort: dstPort,
	})
}

func udpPkt(t *testing.T, dstPort uint16) *layers.Parsed {
	return buildPacket(t, &layers.PacketSpec{
		SrcIP4: layers.ParseAddr4("10.1.1.1"), DstIP4: layers.ParseAddr4("10.2.2.2"),
		Proto: layers.IPProtoUDP, SrcPort: 5555, DstPort: dstPort,
	})
}

func tcp6Pkt(t *testing.T, dstPort uint16) *layers.Parsed {
	return buildPacket(t, &layers.PacketSpec{
		IsIPv6: true,
		SrcIP6: layers.ParseAddr16("2001:db8::1"), DstIP6: layers.ParseAddr16("3::b"),
		Proto: layers.IPProtoTCP, SrcPort: 5555, DstPort: dstPort,
	})
}

// engines returns both execution engines for a filter so every test runs
// against compiled and interpreted code, asserting their equivalence.
// packet evaluates prog's packet filter with a fresh scratch.
func packet(prog *Program, p *layers.Parsed) Result {
	var s PacketScratch
	return prog.PacketWith(p, &s)
}

func engines(t *testing.T, src string) map[string]*Program {
	t.Helper()
	return map[string]*Program{
		"compiled":    MustCompile(src, Options{Engine: EngineCompiled}),
		"interpreted": MustCompile(src, Options{Engine: EngineInterpreted}),
	}
}

func TestPacketFilterBasic(t *testing.T) {
	for name, prog := range engines(t, "ipv4 and tcp") {
		t.Run(name, func(t *testing.T) {
			if r := packet(prog, tcpPkt(t, 1234, 80)); !r.Match || !r.Terminal {
				t.Fatalf("tcp packet: %+v", r)
			}
			if r := packet(prog, udpPkt(t, 53)); r.Match {
				t.Fatalf("udp packet matched: %+v", r)
			}
			if r := packet(prog, tcp6Pkt(t, 80)); r.Match {
				t.Fatalf("ipv6 packet matched ipv4 filter: %+v", r)
			}
		})
	}
}

func TestPacketFilterPortPredicates(t *testing.T) {
	for name, prog := range engines(t, "tcp.port >= 100") {
		t.Run(name, func(t *testing.T) {
			// Direction-agnostic: either port satisfies.
			if r := packet(prog, tcpPkt(t, 50, 443)); !r.Match {
				t.Fatal("dst port 443 should match")
			}
			if r := packet(prog, tcpPkt(t, 443, 50)); !r.Match {
				t.Fatal("src port 443 should match")
			}
			if r := packet(prog, tcpPkt(t, 50, 60)); r.Match {
				t.Fatal("both ports < 100 should not match")
			}
		})
	}
}

func TestPacketFilterSrcDstPorts(t *testing.T) {
	for name, prog := range engines(t, "tcp.dst_port = 443") {
		t.Run(name, func(t *testing.T) {
			if r := packet(prog, tcpPkt(t, 443, 80)); r.Match {
				t.Fatal("src-port-only packet matched dst_port predicate")
			}
			if r := packet(prog, tcpPkt(t, 80, 443)); !r.Match {
				t.Fatal("dst port 443 should match")
			}
		})
	}
}

func TestPacketFilterIPPredicates(t *testing.T) {
	for name, prog := range engines(t, "ipv4.addr in 10.1.0.0/16") {
		t.Run(name, func(t *testing.T) {
			if r := packet(prog, tcpPkt(t, 1, 2)); !r.Match {
				t.Fatal("10.1.1.1 in 10.1.0.0/16 should match")
			}
			far := buildPacket(t, &layers.PacketSpec{
				SrcIP4: layers.ParseAddr4("192.168.1.1"), DstIP4: layers.ParseAddr4("172.16.0.1"),
				Proto: layers.IPProtoTCP, SrcPort: 1, DstPort: 2,
			})
			if r := packet(prog, far); r.Match {
				t.Fatal("out-of-prefix addresses matched")
			}
		})
	}
}

func TestPacketFilterIPv6Prefix(t *testing.T) {
	for name, prog := range engines(t, "ipv6.addr in 3::b/125 and tcp") {
		t.Run(name, func(t *testing.T) {
			if r := packet(prog, tcp6Pkt(t, 80)); !r.Match {
				t.Fatal("3::b should be inside 3::b/125 (masked 3::8/125)")
			}
		})
	}
}

func TestPacketFilterTTL(t *testing.T) {
	for name, prog := range engines(t, "ipv4.ttl > 64") {
		t.Run(name, func(t *testing.T) {
			hi := buildPacket(t, &layers.PacketSpec{
				SrcIP4: layers.ParseAddr4("1.1.1.1"), DstIP4: layers.ParseAddr4("2.2.2.2"),
				TTL: 128, Proto: layers.IPProtoTCP, SrcPort: 1, DstPort: 2,
			})
			if !packet(prog, hi).Match {
				t.Fatal("TTL 128 should match > 64")
			}
			if packet(prog, tcpPkt(t, 1, 2)).Match { // default TTL 64
				t.Fatal("TTL 64 should not match > 64")
			}
		})
	}
}

// TestFigure3EndToEnd walks the full three-stage decision process for the
// paper's running example across representative inputs.
func TestFigure3EndToEnd(t *testing.T) {
	const src = "(ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix') or http"
	for name, prog := range engines(t, src) {
		t.Run(name, func(t *testing.T) {
			// IPv4 TCP with port >= 100: non-terminal packet match.
			r := packet(prog, tcpPkt(t, 34567, 443))
			if !r.Match || r.Terminal {
				t.Fatalf("packet result: %+v", r)
			}
			mark := r.Node

			// Connection turns out to be TLS: non-terminal conn match.
			cr := prog.Conn(fakeConn{"tls"}, mark)
			if !cr.Match || cr.Terminal {
				t.Fatalf("conn result: %+v", cr)
			}

			// Session filter decides on the SNI.
			nf := fakeSession{proto: "tls", strs: map[string]string{"sni": "example.netflix.com"}}
			if !prog.Session(nf, cr.Node) {
				t.Fatal("netflix SNI should match")
			}
			other := fakeSession{proto: "tls", strs: map[string]string{"sni": "example.com"}}
			if prog.Session(other, cr.Node) {
				t.Fatal("non-netflix SNI matched")
			}

			// Connection turns out to be HTTP: pattern 2 matches
			// terminally even though the port predicate also matched
			// (the mark's ancestors carry the http branch).
			hr := prog.Conn(fakeConn{"http"}, mark)
			if !hr.Match || !hr.Terminal {
				t.Fatalf("http conn from port mark: %+v", hr)
			}
			if !prog.Session(fakeSession{proto: "http"}, hr.Node) {
				t.Fatal("terminal conn node should pass session filter")
			}

			// Ports below 100: packet mark at tcp; only http can match.
			r2 := packet(prog, tcpPkt(t, 50, 60))
			if !r2.Match || r2.Terminal {
				t.Fatalf("low-port packet result: %+v", r2)
			}
			if cr := prog.Conn(fakeConn{"tls"}, r2.Node); cr.Match {
				t.Fatal("tls on low ports should not match")
			}
			if cr := prog.Conn(fakeConn{"http"}, r2.Node); !cr.Match || !cr.Terminal {
				t.Fatalf("http on low ports: %+v", cr)
			}

			// IPv6 TCP: only the http pattern applies.
			r3 := packet(prog, tcp6Pkt(t, 8080))
			if !r3.Match || r3.Terminal {
				t.Fatalf("ipv6 packet result: %+v", r3)
			}
			if cr := prog.Conn(fakeConn{"tls"}, r3.Node); cr.Match {
				t.Fatal("ipv6 tls should not match")
			}
			if cr := prog.Conn(fakeConn{"http"}, r3.Node); !cr.Match || !cr.Terminal {
				t.Fatalf("ipv6 http: %+v", cr)
			}

			// UDP never matches.
			if r := packet(prog, udpPkt(t, 53)); r.Match {
				t.Fatalf("udp matched: %+v", r)
			}

			// Unknown service: conn filter rejects.
			if cr := prog.Conn(fakeConn{""}, mark); cr.Match {
				t.Fatal("unidentified service matched")
			}
		})
	}
}

func TestSessionFilterRegexAnchors(t *testing.T) {
	for name, prog := range engines(t, `tls.sni matches '.*\.com$'`) {
		t.Run(name, func(t *testing.T) {
			r := packet(prog, tcpPkt(t, 1000, 443))
			cr := prog.Conn(fakeConn{"tls"}, r.Node)
			if !cr.Match {
				t.Fatalf("conn: %+v", cr)
			}
			yes := fakeSession{proto: "tls", strs: map[string]string{"sni": "www.example.com"}}
			no := fakeSession{proto: "tls", strs: map[string]string{"sni": "www.example.org"}}
			tricky := fakeSession{proto: "tls", strs: map[string]string{"sni": "example.com.evil.org"}}
			if !prog.Session(yes, cr.Node) {
				t.Fatal(".com SNI rejected")
			}
			if prog.Session(no, cr.Node) {
				t.Fatal(".org SNI accepted")
			}
			if prog.Session(tricky, cr.Node) {
				t.Fatal("anchored regex failed: .com.evil.org accepted")
			}
		})
	}
}

func TestSessionFilterIntField(t *testing.T) {
	for name, prog := range engines(t, "tls.version = 0x0304") {
		t.Run(name, func(t *testing.T) {
			r := packet(prog, tcpPkt(t, 1000, 443))
			cr := prog.Conn(fakeConn{"tls"}, r.Node)
			tls13 := fakeSession{proto: "tls", ints: map[string]uint64{"version": 0x0304}}
			tls12 := fakeSession{proto: "tls", ints: map[string]uint64{"version": 0x0303}}
			if !prog.Session(tls13, cr.Node) {
				t.Fatal("TLS 1.3 rejected")
			}
			if prog.Session(tls12, cr.Node) {
				t.Fatal("TLS 1.2 accepted")
			}
		})
	}
}

func TestSessionFilterMissingField(t *testing.T) {
	for name, prog := range engines(t, "tls.sni ~ 'x'") {
		t.Run(name, func(t *testing.T) {
			r := packet(prog, tcpPkt(t, 1000, 443))
			cr := prog.Conn(fakeConn{"tls"}, r.Node)
			empty := fakeSession{proto: "tls"}
			if prog.Session(empty, cr.Node) {
				t.Fatal("session without SNI matched SNI predicate")
			}
		})
	}
}

func TestConnFilterTLSOrSSH(t *testing.T) {
	for name, prog := range engines(t, "ipv4 and (tls or ssh)") {
		t.Run(name, func(t *testing.T) {
			r := packet(prog, tcpPkt(t, 1000, 22))
			if !r.Match || r.Terminal {
				t.Fatalf("packet: %+v", r)
			}
			for _, svc := range []string{"tls", "ssh"} {
				cr := prog.Conn(fakeConn{svc}, r.Node)
				if !cr.Match || !cr.Terminal {
					t.Fatalf("%s: %+v", svc, cr)
				}
				if !prog.Session(fakeSession{proto: svc}, cr.Node) {
					t.Fatalf("%s terminal session check failed", svc)
				}
			}
			if cr := prog.Conn(fakeConn{"http"}, r.Node); cr.Match {
				t.Fatal("http matched tls-or-ssh filter")
			}
		})
	}
}

func TestPacketTerminalPassesStatefulStages(t *testing.T) {
	// A packet-terminal filter still yields terminal conn/session
	// results so stateful subscriptions (e.g. connection records with an
	// "ipv4 and tcp" filter) work.
	for name, prog := range engines(t, "ipv4 and tcp") {
		t.Run(name, func(t *testing.T) {
			r := packet(prog, tcpPkt(t, 1, 2))
			if !r.Terminal {
				t.Fatalf("packet: %+v", r)
			}
			cr := prog.Conn(fakeConn{""}, r.Node)
			if !cr.Match || !cr.Terminal {
				t.Fatalf("conn on pkt-terminal mark: %+v", cr)
			}
			if !prog.Session(fakeSession{}, r.Node) {
				t.Fatal("session on pkt-terminal mark should be true")
			}
		})
	}
}

func TestMatchAllFilter(t *testing.T) {
	for name, prog := range engines(t, "") {
		t.Run(name, func(t *testing.T) {
			if r := packet(prog, tcpPkt(t, 1, 2)); !r.Match || !r.Terminal {
				t.Fatalf("tcp: %+v", r)
			}
			if r := packet(prog, udpPkt(t, 53)); !r.Match || !r.Terminal {
				t.Fatalf("udp: %+v", r)
			}
			if prog.NeedsConnTracking() {
				t.Fatal("match-all should not need conn tracking")
			}
		})
	}
}

// TestEnginesAgree cross-checks compiled vs interpreted results over a
// grid of filters and packets.
func TestEnginesAgree(t *testing.T) {
	filters := []string{
		"ipv4", "tcp", "udp", "tcp.port = 443", "tcp.port >= 100",
		"ipv4.ttl > 64", "ipv4.addr in 10.0.0.0/8",
		"(ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix') or http",
		"ipv4 and (tls or ssh)", "tls.sni matches '.*\\.com$'",
		"tcp.port in 100..2000", "ipv6.addr in 3::b/125 and tcp",
	}
	packets := []*layers.Parsed{
		tcpPkt(t, 34567, 443), tcpPkt(t, 50, 60), udpPkt(t, 53),
		tcp6Pkt(t, 80), tcpPkt(t, 443, 443),
	}
	for _, src := range filters {
		comp := MustCompile(src, Options{Engine: EngineCompiled})
		interp := MustCompile(src, Options{Engine: EngineInterpreted})
		for i, pkt := range packets {
			rc := packet(comp, pkt)
			ri := packet(interp, pkt)
			if !rc.Equal(ri) {
				t.Errorf("filter %q packet %d: compiled %+v vs interpreted %+v", src, i, rc, ri)
			}
			if rc.Match && !rc.Terminal {
				for _, svc := range []string{"tls", "http", "ssh", ""} {
					cc := comp.Conn(fakeConn{svc}, rc.Node)
					ci := interp.Conn(fakeConn{svc}, ri.Node)
					if !cc.Equal(ci) {
						t.Errorf("filter %q svc %q: conn compiled %+v vs interpreted %+v", src, svc, cc, ci)
					}
					if cc.Match && !cc.Terminal {
						s := fakeSession{proto: svc, strs: map[string]string{"sni": "a.netflix.com"}}
						if comp.Session(s, cc.Node) != interp.Session(s, ci.Node) {
							t.Errorf("filter %q: session engines disagree", src)
						}
					}
				}
			}
		}
	}
}

func BenchmarkPacketFilterCompiled(b *testing.B) {
	prog := MustCompile("(ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix') or http", Options{Engine: EngineCompiled})
	var bld layers.Builder
	var p layers.Parsed
	pkt := bld.Build(&layers.PacketSpec{
		SrcIP4: layers.ParseAddr4("10.1.1.1"), DstIP4: layers.ParseAddr4("10.2.2.2"),
		Proto: layers.IPProtoTCP, SrcPort: 34567, DstPort: 443,
	})
	p.DecodeLayers(pkt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = packet(prog, &p)
	}
}

func BenchmarkPacketFilterInterpreted(b *testing.B) {
	prog := MustCompile("(ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix') or http", Options{Engine: EngineInterpreted})
	var bld layers.Builder
	var p layers.Parsed
	pkt := bld.Build(&layers.PacketSpec{
		SrcIP4: layers.ParseAddr4("10.1.1.1"), DstIP4: layers.ParseAddr4("10.2.2.2"),
		Proto: layers.IPProtoTCP, SrcPort: 34567, DstPort: 443,
	})
	p.DecodeLayers(pkt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = packet(prog, &p)
	}
}
