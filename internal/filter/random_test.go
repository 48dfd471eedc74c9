package filter

import (
	"fmt"
	"math/rand"
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
	preds := []func() string{
		func() string { return []string{"ipv4", "ipv6", "tcp", "udp", "tls", "http", "ssh"}[rng.Intn(7)] },
		func() string { return fmt.Sprintf("tcp.port = %d", rng.Intn(65536)) },
		func() string { return fmt.Sprintf("tcp.port >= %d", rng.Intn(65536)) },
		func() string {
			lo := rng.Intn(60000)
			return fmt.Sprintf("tcp.port in %d..%d", lo, lo+rng.Intn(5000)+1)
		},
		func() string { return fmt.Sprintf("udp.dst_port = %d", rng.Intn(65536)) },
		func() string { return fmt.Sprintf("ipv4.ttl > %d", rng.Intn(255)) },
		func() string {
			return fmt.Sprintf("ipv4.addr in %d.%d.0.0/16", rng.Intn(223)+1, rng.Intn(255))
		},
		func() string { return fmt.Sprintf("tls.sni ~ 'host%d'", rng.Intn(10)) },
		func() string { return fmt.Sprintf("http.host = 'h%d.example'", rng.Intn(10)) },
		func() string { return fmt.Sprintf("tls.version = %d", 0x0301+rng.Intn(4)) },
	}
	return preds[rng.Intn(len(preds))]()
}

func randomParsedPacket(rng *rand.Rand) *layers.Parsed {
	var b layers.Builder
	spec := &layers.PacketSpec{
		SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
		TTL: uint8(rng.Intn(255) + 1),
	}
	if rng.Intn(5) == 0 {
		spec.IsIPv6 = true
		spec.SrcIP6[0], spec.SrcIP6[15] = 0x20, byte(rng.Intn(255))
		spec.DstIP6[0], spec.DstIP6[15] = 0x20, byte(rng.Intn(255))
	} else {
		spec.SrcIP4 = [4]byte{byte(rng.Intn(223) + 1), byte(rng.Intn(255)), 0, 1}
		spec.DstIP4 = [4]byte{byte(rng.Intn(223) + 1), byte(rng.Intn(255)), 0, 2}
	}
	if rng.Intn(2) == 0 {
		spec.Proto = layers.IPProtoTCP
	} else {
		spec.Proto = layers.IPProtoUDP
	}
	var p layers.Parsed
	if err := p.DecodeLayers(b.Build(spec)); err != nil {
		panic(err)
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
