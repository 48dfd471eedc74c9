package filter

import (
	"go/parser"
	"go/token"
	"math/rand"
	"testing"

	"retina/internal/layers"
)

type fuzzConnView string

func (v fuzzConnView) ServiceName() string { return string(v) }

type fuzzSession struct {
	proto string
	strs  map[string]string
	ints  map[string]uint64
}

func (s fuzzSession) ProtoName() string { return s.proto }
func (s fuzzSession) StringField(name string) (string, bool) {
	v, ok := s.strs[name]
	return v, ok
}
func (s fuzzSession) IntField(name string) (uint64, bool) {
	v, ok := s.ints[name]
	return v, ok
}

func randomFuzzSession(rng *rand.Rand, proto string) fuzzSession {
	s := fuzzSession{proto: proto, strs: map[string]string{}, ints: map[string]uint64{}}
	// Field values drawn from the same families the filter generator
	// uses, so predicates actually match sometimes.
	switch proto {
	case "tls":
		if rng.Intn(4) > 0 {
			s.strs["sni"] = []string{"host1", "host3.example.com", "www.host7.net", ""}[rng.Intn(4)]
		}
		if rng.Intn(4) > 0 {
			s.ints["version"] = uint64(0x0301 + rng.Intn(4))
		}
	case "http":
		if rng.Intn(4) > 0 {
			s.strs["host"] = []string{"h1.example", "h4.example", "other.com"}[rng.Intn(3)]
		}
	}
	return s
}

// naiveVerdicts evaluates the flat expanded DNF patterns directly — no
// trie, no staging, no mark threading. It is the third, independent
// semantics the staged engines are compared against: a pattern matches
// iff all its packet predicates match the packet, all its connection
// predicates name the identified service, and all its session predicates
// match the session.
type naiveVerdicts struct {
	pktMatch, pktTerminal   bool
	connMatch, connTerminal bool
	delivered               bool
}

func naiveEval(in *Interpreter, reg *Registry, pats []Pattern, p *layers.Parsed, svc string, s Session) naiveVerdicts {
	var v naiveVerdicts
	for _, pat := range pats {
		pktOK, connOK, sessOK := true, true, true
		hasNonPkt, hasSess := false, false
		for _, pred := range pat {
			layer, err := reg.FieldLayer(pred)
			if err != nil {
				pktOK = false
				break
			}
			switch layer {
			case LayerPacket:
				if pktOK && !in.evalPacketPred(pred, p) {
					pktOK = false
				}
			case LayerConnection:
				hasNonPkt = true
				if pred.Proto != svc {
					connOK = false
				}
			case LayerSession:
				hasNonPkt, hasSess = true, true
				if sessOK && !in.evalSessionPred(pred, s) {
					sessOK = false
				}
			}
		}
		if !pktOK {
			continue
		}
		v.pktMatch = true
		if !hasNonPkt {
			v.pktTerminal = true
		}
		if !connOK {
			continue
		}
		v.connMatch = true
		if !hasSess {
			v.connTerminal = true
		}
		if sessOK {
			v.delivered = true
		}
	}
	return v
}

// FuzzFilterEnginesDifferential cross-checks three independent filter
// semantics — the compiled engine, the trie interpreter, and a
// naive flat-DNF evaluator — over random filters × random packets ×
// services × sessions, at every sub-filter stage. It also requires the
// emitted Go source (GenerateGoSource) to stay syntactically valid for
// every compilable filter.
func FuzzFilterEnginesDifferential(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(2024), uint64(7))
	f.Add(uint64(0xdeadbeef), uint64(0xcafe))
	f.Fuzz(func(t *testing.T, fseed, pseed uint64) {
		rng := rand.New(rand.NewSource(int64(fseed)))
		src := randomFilterExpr(rng, 3)
		comp, errC := Compile(src, Options{Engine: EngineCompiled})
		interp, errI := Compile(src, Options{Engine: EngineInterpreted})
		if (errC == nil) != (errI == nil) {
			t.Fatalf("filter %q: engines disagree on compilability: %v vs %v", src, errC, errI)
		}
		if errC != nil {
			return // contradictory filters reject consistently; nothing to compare
		}
		reg := comp.Registry()

		// The emitted Go source must parse for every compilable filter.
		goSrc, err := GenerateGoSource(reg, comp.Trie, "genfilter")
		if err != nil {
			t.Fatalf("filter %q: GenerateGoSource: %v", src, err)
		}
		if _, err := parser.ParseFile(token.NewFileSet(), "genfilter.go", goSrc, parser.SkipObjectResolution); err != nil {
			t.Fatalf("filter %q: emitted source does not parse: %v\n%s", src, err, goSrc)
		}

		expr, err := Parse(src)
		if err != nil {
			t.Fatalf("filter %q: reparse: %v", src, err)
		}
		pats, err := Expand(reg, ToDNF(expr))
		if err != nil {
			t.Fatalf("filter %q: re-expand: %v", src, err)
		}
		in := NewInterpreter(reg, comp.Trie) // predicate-eval primitives for the oracle

		prng := rand.New(rand.NewSource(int64(pseed)))
		for i := 0; i < 25; i++ {
			pkt := randomParsedPacket(prng)
			rc, ri := packet(comp, pkt), packet(interp, pkt)
			if !rc.Equal(ri) {
				t.Fatalf("filter %q: packet engines diverge: %+v vs %+v", src, rc, ri)
			}
			for _, svc := range []string{"", "tls", "http", "ssh"} {
				sess := randomFuzzSession(prng, svc)
				nv := naiveEval(in, reg, pats, pkt, svc, sess)
				if rc.Match != nv.pktMatch || rc.Terminal != nv.pktTerminal {
					t.Fatalf("filter %q: packet stage %+v vs naive %+v", src, rc, nv)
				}
				if !rc.Match {
					continue
				}
				// Connection stage: union over the matched frontier, the
				// way the pipeline resumes (a single mark commits to one
				// branch and was the bug the oracle caught first).
				connMatch, connTerm, delivered := false, false, false
				rc.FrontierNodes(func(node int) {
					cc := comp.Conn(fuzzConnView(svc), node)
					ci := interp.Conn(fuzzConnView(svc), node)
					if !cc.Equal(ci) {
						t.Fatalf("filter %q svc %q node %d: conn engines diverge: %+v vs %+v", src, svc, node, cc, ci)
					}
					if !cc.Match {
						return
					}
					connMatch = true
					if cc.Terminal {
						connTerm = true
					}
					cc.FrontierNodes(func(cn int) {
						sc, si := comp.Session(sess, cn), interp.Session(sess, cn)
						if sc != si {
							t.Fatalf("filter %q svc %q conn node %d: session engines diverge", src, svc, cn)
						}
						if sc {
							delivered = true
						}
					})
				})
				if connMatch != nv.connMatch || connTerm != nv.connTerminal {
					t.Fatalf("filter %q svc %q: conn stage match=%v/term=%v vs naive %+v\ntrie:\n%s",
						src, svc, connMatch, connTerm, nv, comp.Trie)
				}
				if delivered != nv.delivered {
					t.Fatalf("filter %q svc %q session %+v: staged delivered=%v vs naive %v\ntrie:\n%s",
						src, svc, sess, delivered, nv.delivered, comp.Trie)
				}
			}
		}
	})
}

// Regression: a packet matching two disjoint trie branches must stay
// viable for both services. Before the frontier fix, the packet filter
// committed to the first matching branch and the connection filter — in
// both engines — rejected connections whose service lived on the sibling
// branch.
func TestMultiBranchFrontierConnMatch(t *testing.T) {
	src := "(tcp.port = 8080 and tls) or (ipv4.ttl > 5 and http)"
	pkt := buildFuzzPkt(t, 8080, 200)
	for _, eng := range []Engine{EngineCompiled, EngineInterpreted} {
		prog := MustCompile(src, Options{Engine: eng})
		r1 := packet(prog, pkt)
		if !r1.Match || r1.Terminal {
			t.Fatalf("engine %d: packet result %+v", eng, r1)
		}
		if len(r1.Frontier) != 2 {
			t.Fatalf("engine %d: frontier %v, want both branches", eng, r1.Frontier)
		}
		for _, svc := range []string{"tls", "http"} {
			matched := false
			r1.FrontierNodes(func(node int) {
				if prog.Conn(fuzzConnView(svc), node).Match {
					matched = true
				}
			})
			if !matched {
				t.Fatalf("engine %d: service %q not reachable from frontier %v", eng, svc, r1.Frontier)
			}
		}
	}
}

// Regression: a matching non-terminal branch must not shadow a terminal
// sibling. `(tcp.port = 8080 and tls) or ipv4.ttl > 5` is terminally
// satisfied by any packet with ttl > 5, even one that also matches the
// tls branch.
func TestTerminalSiblingNotShadowed(t *testing.T) {
	src := "(tcp.port = 8080 and tls) or ipv4.ttl > 5"
	pkt := buildFuzzPkt(t, 8080, 200)
	for _, eng := range []Engine{EngineCompiled, EngineInterpreted} {
		prog := MustCompile(src, Options{Engine: eng})
		r1 := packet(prog, pkt)
		if !r1.Match || !r1.Terminal {
			t.Fatalf("engine %d: packet result %+v, want terminal match", eng, r1)
		}
	}
}

// Regression (found by FuzzFilterEnginesDifferential): the identified
// service can match a connection branch on the packet mark AND one on a
// packet-layer ancestor, each with distinct session predicates. With
// `tcp.port >= 23365 and tls.sni ~ 'host5' or tls.version = 772`, a
// port-30000 TLS connection has conn branches under both `tcp.port >=
// 23365` (sni continuation) and `tcp` (version continuation); returning
// only the first dropped sessions matching `tls.version = 772`.
func TestConnFrontierAncestorBranchNotShadowed(t *testing.T) {
	src := "tcp.port >= 23365 and tls.sni ~ 'host5' or tls.version = 772"
	pkt := buildFuzzPkt(t, 30000, 64)
	sess := fuzzSession{proto: "tls", strs: map[string]string{"sni": "unrelated"}, ints: map[string]uint64{"version": 772}}
	for _, eng := range []Engine{EngineCompiled, EngineInterpreted} {
		prog := MustCompile(src, Options{Engine: eng})
		r1 := packet(prog, pkt)
		if !r1.Match || r1.Terminal {
			t.Fatalf("engine %d: packet result %+v", eng, r1)
		}
		connNodes := 0
		delivered := false
		r1.FrontierNodes(func(node int) {
			r2 := prog.Conn(fuzzConnView("tls"), node)
			if !r2.Match {
				return
			}
			r2.FrontierNodes(func(cn int) {
				connNodes++
				if prog.Session(sess, cn) {
					delivered = true
				}
			})
		})
		if connNodes < 2 {
			t.Fatalf("engine %d: only %d conn branches reached, want both sni and version continuations", eng, connNodes)
		}
		if !delivered {
			t.Fatalf("engine %d: session with version=772 not delivered", eng)
		}
	}
}

func buildFuzzPkt(t *testing.T, port uint16, ttl uint8) *layers.Parsed {
	t.Helper()
	var b layers.Builder
	var p layers.Parsed
	if err := p.DecodeLayers(b.Build(&layers.PacketSpec{
		SrcIP4: [4]byte{10, 0, 0, 1}, DstIP4: [4]byte{10, 0, 0, 2},
		Proto: layers.IPProtoTCP, SrcPort: port, DstPort: 9999, TTL: ttl,
	})); err != nil {
		t.Fatal(err)
	}
	return &p
}
