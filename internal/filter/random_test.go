package filter

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"retina/internal/layers"
)

// randomFilterExpr builds a random (valid) filter expression from the
// default registry's vocabulary.
func randomFilterExpr(rng *rand.Rand, depth int) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		return randomPredicate(rng)
	}
	op := " and "
	if rng.Intn(2) == 0 {
		op = " or "
	}
	l := randomFilterExpr(rng, depth-1)
	r := randomFilterExpr(rng, depth-1)
	if rng.Intn(2) == 0 {
		return "(" + l + op + r + ")"
	}
	return l + op + r
}

func randomPredicate(rng *rand.Rand) string {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	preds := []func() string{
		func() string {
			return pick("eth", "vlan", "ipv4", "ipv6", "tcp", "udp", "icmp", "tls", "http", "ssh")
		},
		func() string { return fmt.Sprintf("tcp.port = %d", randomPort(rng)) },
		func() string { return fmt.Sprintf("tcp.port >= %d", rng.Intn(65536)) },
		func() string {
			lo := rng.Intn(60000)
			return fmt.Sprintf("tcp.port in %d..%d", lo, lo+rng.Intn(5000)+1)
		},
		func() string { return fmt.Sprintf("udp.dst_port = %d", randomPort(rng)) },
		func() string { return fmt.Sprintf("ipv4.ttl > %d", rng.Intn(255)) },
		func() string {
			return fmt.Sprintf("ipv4.addr in %d.%d.0.0/16", randomOctetA(rng), randomOctetB(rng))
		},
		// Every other packet-layer field of DefaultRegistry, with every
		// operator its kind accepts.
		func() string { return intPredicate(rng, "eth.ethertype", pick("0x0800", "0x86dd", "0x8100", "2048")) },
		func() string { return intPredicate(rng, "vlan.id", pick("0", "10", "100", "4000")) },
		func() string { return intPredicate(rng, "ipv4.tos", pick("0", "8", "32", "184")) },
		func() string { return intPredicate(rng, "ipv4.length", fmt.Sprint(24+rng.Intn(100))) },
		func() string { return intPredicate(rng, "ipv4.ttl", fmt.Sprint(rng.Intn(256))) },
		func() string { return intPredicate(rng, "ipv6.hop_limit", fmt.Sprint(rng.Intn(256))) },
		func() string {
			return intPredicate(rng, pick("tcp.src_port", "tcp.dst_port"), fmt.Sprint(randomPort(rng)))
		},
		func() string { return intPredicate(rng, "tcp.flags", fmt.Sprint(rng.Intn(64))) },
		func() string { return intPredicate(rng, "tcp.window", pick("1024", "8192", "65535", "30000")) },
		func() string { return intPredicate(rng, pick("udp.port", "udp.src_port"), fmt.Sprint(randomPort(rng))) },
		func() string { return intPredicate(rng, "icmp.type", pick("0", "3", "8", "11")) },
		func() string {
			a, b := randomOctetA(rng), randomOctetB(rng)
			switch rng.Intn(4) {
			case 0:
				return fmt.Sprintf("ipv4.src_addr = %d.%d.0.1", a, b)
			case 1:
				return fmt.Sprintf("ipv4.dst_addr != %d.%d.0.2", a, b)
			case 2:
				return fmt.Sprintf("%s in %d.0.0.0/8", pick("ipv4.src_addr", "ipv4.dst_addr"), a)
			}
			return fmt.Sprintf("ipv4.addr %s %d.%d.0.%d", pick("=", "!="), a, b, 1+rng.Intn(2))
		},
		func() string {
			h := randomV6Host(rng)
			switch rng.Intn(4) {
			case 0:
				return fmt.Sprintf("ipv6.src_addr = 2001:db8::%x", h)
			case 1:
				return fmt.Sprintf("ipv6.dst_addr != 2001:db8::%x", h)
			case 2:
				return fmt.Sprintf("%s in %s", pick("ipv6.addr", "ipv6.src_addr", "ipv6.dst_addr"),
					pick("2001:db8::/32", "2001:db9::/32", fmt.Sprintf("2001:db8::%x/128", h)))
			}
			return fmt.Sprintf("ipv6.addr %s 2001:db8::%x", pick("=", "!="), h)
		},
		func() string { return fmt.Sprintf("tls.sni ~ 'host%d'", rng.Intn(10)) },
		func() string { return fmt.Sprintf("http.host = 'h%d.example'", rng.Intn(10)) },
		func() string { return fmt.Sprintf("tls.version = %d", 0x0301+rng.Intn(4)) },
	}
	return preds[rng.Intn(len(preds))]()
}

// intPredicate compares an integer field to val with a random operator
// (every one an int field accepts), or tests it against a range that
// contains val.
func intPredicate(rng *rand.Rand, field, val string) string {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	if rng.Intn(len(ops)+1) == len(ops) {
		n, err := parseUint(val)
		if err != nil {
			panic(err)
		}
		lo := n - min(n, uint64(rng.Intn(3)))
		return fmt.Sprintf("%s in %d..%d", field, lo, n+uint64(rng.Intn(3)))
	}
	return fmt.Sprintf("%s %s %s", field, ops[rng.Intn(len(ops))], val)
}

// The random packets draw addresses, ports and header values from the
// same small families the predicates use, so equality and membership
// tests match often enough to exercise both outcomes.
func randomOctetA(rng *rand.Rand) int { return []int{10, 172, 192, 8}[rng.Intn(4)] }
func randomOctetB(rng *rand.Rand) int { return []int{0, 16, 168, 1}[rng.Intn(4)] }
func randomV6Host(rng *rand.Rand) int { return []int{1, 2, 0x53, 0xbeef}[rng.Intn(4)] }

func randomPort(rng *rand.Rand) int {
	if rng.Intn(2) == 0 {
		return []int{53, 80, 443, 8080}[rng.Intn(4)]
	}
	return rng.Intn(65536)
}

func randomParsedPacket(rng *rand.Rand) *layers.Parsed {
	var b layers.Builder
	spec := &layers.PacketSpec{
		SrcPort: uint16(randomPort(rng)), DstPort: uint16(randomPort(rng)),
		TTL:      uint8(rng.Intn(255) + 1),
		TOS:      []uint8{0, 8, 32, 184}[rng.Intn(4)],
		TCPFlags: uint8(rng.Intn(64)),
		Window:   []uint16{1024, 8192, 65535, 30000}[rng.Intn(4)],
		Payload:  make([]byte, rng.Intn(64)),
	}
	if rng.Intn(4) == 0 {
		spec.VLANID = []uint16{10, 100, 4000}[rng.Intn(3)]
	}
	if rng.Intn(5) == 0 {
		spec.IsIPv6 = true
		spec.SrcIP6 = netip.MustParseAddr(fmt.Sprintf("2001:db8::%x", randomV6Host(rng))).As16()
		spec.DstIP6 = netip.MustParseAddr(fmt.Sprintf("2001:db%d::%x", 8+rng.Intn(2), randomV6Host(rng))).As16()
	} else {
		spec.SrcIP4 = [4]byte{byte(randomOctetA(rng)), byte(randomOctetB(rng)), 0, 1}
		spec.DstIP4 = [4]byte{byte(randomOctetA(rng)), byte(randomOctetB(rng)), 0, 2}
	}
	switch k := rng.Intn(10); {
	case k < 4:
		spec.Proto = layers.IPProtoTCP
	case k < 8:
		spec.Proto = layers.IPProtoUDP
	case k < 9:
		spec.Proto = layers.IPProtoICMP
		if spec.IsIPv6 {
			spec.Proto = layers.IPProtoICMPv6
		}
	default:
		spec.Proto = 47 // GRE: an L3 packet with no decoded L4
	}
	var p layers.Parsed
	if err := p.DecodeLayers(b.Build(spec)); err != nil {
		panic(err)
	}
	if p.L4 == layers.LayerTypeICMPv4 || p.L4 == layers.LayerTypeICMPv6 {
		p.ICMP.Type = []uint8{0, 3, 8, 11}[rng.Intn(4)] // the builder always writes echo request
	}
	if rng.Intn(50) == 0 {
		p.Reset() // an undecodable frame: not even eth matches
	}
	return &p
}

// TestRandomFiltersEnginesAgree generates hundreds of random filter
// expressions and checks that (a) every expression either fails to
// compile identically in both engines or compiles in both, and (b) the
// compiled and interpreted engines return identical packet-filter
// results on random packets.
func TestRandomFiltersEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	compiledOK := 0
	for i := 0; i < 300; i++ {
		src := randomFilterExpr(rng, 3)
		comp, errC := Compile(src, Options{Engine: EngineCompiled})
		interp, errI := Compile(src, Options{Engine: EngineInterpreted})
		if (errC == nil) != (errI == nil) {
			t.Fatalf("filter %q: engines disagree on compilability: %v vs %v", src, errC, errI)
		}
		if errC != nil {
			// Random conjunctions can be contradictory (tcp and udp);
			// rejection is fine as long as it is consistent.
			continue
		}
		compiledOK++
		for j := 0; j < 20; j++ {
			pkt := randomParsedPacket(rng)
			rc := packet(comp, pkt)
			ri := packet(interp, pkt)
			if !rc.Equal(ri) {
				t.Fatalf("filter %q: compiled %+v vs interpreted %+v", src, rc, ri)
			}
		}
	}
	if compiledOK < 100 {
		t.Fatalf("only %d random filters compiled; generator too contradictory", compiledOK)
	}
}

// TestRandomFiltersHWRulesAreBroader: for every random filter and
// packet, if the software packet filter matches, the generated hardware
// rule set must also admit the packet (rules are at least as broad).
func TestRandomFiltersHWRulesAreBroader(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reg := DefaultRegistry()
	cap := connectX5Like{}
	for i := 0; i < 200; i++ {
		src := randomFilterExpr(rng, 2)
		prog, err := Compile(src, Options{HW: cap})
		if err != nil {
			continue
		}
		matchers := make([][]func(*layers.Parsed) bool, 0, len(prog.Rules))
		for _, r := range prog.Rules {
			var ms []func(*layers.Parsed) bool
			for _, pred := range r.Preds {
				m, err := CompilePredicateMatcher(reg, pred)
				if err != nil {
					t.Fatalf("rule predicate %q: %v", pred, err)
				}
				ms = append(ms, m)
			}
			matchers = append(matchers, ms)
		}
		hwAdmits := func(p *layers.Parsed) bool {
			for _, ms := range matchers {
				all := true
				for _, m := range ms {
					if !m(p) {
						all = false
						break
					}
				}
				if all {
					return true
				}
			}
			return false
		}
		for j := 0; j < 30; j++ {
			pkt := randomParsedPacket(rng)
			if packet(prog, pkt).Match && !hwAdmits(pkt) {
				t.Fatalf("filter %q: software matched a packet the hardware rules drop", src)
			}
		}
	}
}
