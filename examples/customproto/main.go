// Customproto demonstrates the framework extensibility of §3.3 /
// Appendix A: it registers a user-defined protocol module — a toy
// line-based "MEMO" protocol — and then filters on its fields with the
// ordinary filter language (`memo.topic matches 'alerts'`), exactly as
// if the protocol were built in.
//
// A protocol module contributes two pieces:
//
//  1. filter metadata (name, parent protocol, filterable fields), and
//
//  2. a stateful per-connection parser implementing proto.Parser, whose
//     Probe method is stateless (one instance probes every connection).
//
//     go run ./examples/customproto
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"retina"
	"retina/internal/conntrack"
	"retina/internal/filter"
	"retina/internal/layers"
	"retina/internal/proto"
	"retina/internal/traffic"
)

// MemoMessage is the parsed session data: "MEMO <topic>\n<body>".
type MemoMessage struct {
	Topic string
	Size  int
}

// ProtoName implements proto.Data.
func (m *MemoMessage) ProtoName() string { return "memo" }

// StringField implements proto.Data (filterable fields).
func (m *MemoMessage) StringField(name string) (string, bool) {
	if name == "topic" {
		return m.Topic, true
	}
	return "", false
}

// IntField implements proto.Data.
func (m *MemoMessage) IntField(name string) (uint64, bool) {
	if name == "size" {
		return uint64(m.Size), true
	}
	return 0, false
}

// memoParser implements proto.Parser for one connection.
type memoParser struct {
	buf    []byte
	out    []*proto.Session
	nextID uint64
	failed bool
}

func (p *memoParser) Name() string { return "memo" }

// Probe must be stateless: it may read only its arguments, never p.
// The runtime probes every connection with one shared memoParser and
// builds a connection's own parser only once Probe reports a match.
func (p *memoParser) Probe(data []byte, orig bool) proto.ProbeResult {
	if !orig {
		return proto.ProbeUnsure
	}
	if len(data) < 5 {
		if bytes.HasPrefix([]byte("MEMO "), data) {
			return proto.ProbeUnsure
		}
		return proto.ProbeReject
	}
	if string(data[:5]) == "MEMO " {
		return proto.ProbeMatch
	}
	return proto.ProbeReject
}

func (p *memoParser) Parse(data []byte, orig bool) proto.ParseResult {
	if p.failed {
		return proto.ParseError
	}
	if !orig {
		return proto.ParseContinue
	}
	p.buf = append(p.buf, data...)
	if len(p.buf) > 4096 {
		p.failed = true
		return proto.ParseError
	}
	nl := bytes.IndexByte(p.buf, '\n')
	if nl < 0 {
		return proto.ParseContinue
	}
	head := string(p.buf[:nl])
	if len(head) < 5 || head[:5] != "MEMO " {
		p.failed = true
		return proto.ParseError
	}
	p.nextID++
	p.out = append(p.out, &proto.Session{
		ID:    p.nextID,
		Proto: "memo",
		Data:  &MemoMessage{Topic: head[5:], Size: len(p.buf) - nl - 1},
	})
	return proto.ParseDone
}

func (p *memoParser) DrainSessions() []*proto.Session {
	s := p.out
	p.out = nil
	return s
}

func (p *memoParser) SessionMatchState() conntrack.State   { return conntrack.StateDelete }
func (p *memoParser) SessionNoMatchState() conntrack.State { return conntrack.StateDelete }

// MemoModule is the complete protocol module.
func MemoModule() retina.ProtocolModule {
	return retina.ProtocolModule{
		Filter: &filter.ProtoDef{
			Name:    "memo",
			Layer:   filter.LayerConnection,
			Parents: []string{"tcp"},
			Fields: map[string]*filter.FieldDef{
				"topic": {Name: "topic", Kind: filter.KindString, Layer: filter.LayerSession},
				"size":  {Name: "size", Kind: filter.KindInt, Layer: filter.LayerSession},
			},
		},
		Parser: func() proto.Parser { return &memoParser{} },
	}
}

// memoSource generates MEMO flows mixed with ordinary campus traffic.
func memoSource() retina.Source {
	return &memoMixer{
		topics: []string{"alerts", "billing", "ops", "random"},
		rng:    rand.New(rand.NewSource(5)),
	}
}

// memoMixer interleaves MEMO flows with campus traffic.
type memoMixer struct {
	topics  []string
	rng     *rand.Rand
	campus  retina.Source
	b       layers.Builder
	pending [][]byte
	ticks   uint64
	emitted int
}

func (m *memoMixer) Next() ([]byte, uint64, bool) {
	if m.campus == nil {
		m.campus = traffic.NewCampusMix(traffic.CampusConfig{Seed: 9, Flows: 300, Gbps: 10})
	}
	if len(m.pending) > 0 {
		f := m.pending[0]
		m.pending = m.pending[1:]
		m.ticks += 10
		return f, m.ticks, true
	}
	if m.emitted < 40 && m.rng.Intn(8) == 0 {
		m.emitted++
		topic := m.topics[m.rng.Intn(len(m.topics))]
		spec := &traffic.FlowSpec{
			Kind:    traffic.KindPlainTCP,
			CliIP:   layers.ParseAddr4("10.3.0.9"),
			SrvIP:   layers.ParseAddr4("192.0.2.50"),
			CliPort: uint16(30000 + m.emitted), SrvPort: 9999,
			DataSegments: 0, Teardown: true,
		}
		s := traffic.BuildScript(&m.b, spec, m.rng)
		// Splice the MEMO payload between handshake and teardown.
		body := fmt.Sprintf("MEMO %s\npayload %d", topic, m.emitted)
		frames := injectPayload(&m.b, spec, s, body)
		m.pending = frames
		return m.Next()
	}
	f, tk, ok := m.campus.Next()
	if ok {
		m.ticks = tk
	}
	return f, tk, ok
}

// injectPayload rebuilds the flow with the memo body as its single data
// segment (BuildScript has no raw-payload kind, so we assemble manually).
func injectPayload(b *layers.Builder, spec *traffic.FlowSpec, s *traffic.Script, body string) [][]byte {
	var frames [][]byte
	var p layers.Parsed
	var seq uint32
	// Reuse the handshake from the script (first 3 frames).
	for i := 0; i < 3 && i < len(s.Frames); i++ {
		frames = append(frames, s.Frames[i])
	}
	if len(frames) >= 1 {
		if err := p.DecodeLayers(frames[0]); err == nil {
			seq = p.TCP.Seq + 1 // after SYN
		}
	}
	data := b.Build(&layers.PacketSpec{
		SrcIP4: spec.CliIP, DstIP4: spec.SrvIP,
		Proto: layers.IPProtoTCP, SrcPort: spec.CliPort, DstPort: spec.SrvPort,
		Seq: seq, TCPFlags: layers.TCPAck | layers.TCPPsh,
		Payload: []byte(body),
	})
	frames = append(frames, data)
	return frames
}

func main() {
	cfg := retina.DefaultConfig()
	cfg.Filter = `memo.topic matches 'alerts|billing'`
	cfg.Modules = []retina.ProtocolModule{MemoModule()}

	var hits int
	rt, err := retina.New(cfg, retina.Sessions(func(ev *retina.SessionEvent) {
		m := ev.Session.Data.(*MemoMessage)
		hits++
		log.Printf("memo on topic %q (%d bytes of body)", m.Topic, m.Size)
	}))
	if err != nil {
		log.Fatal(err)
	}
	stats := rt.Run(memoSource())
	fmt.Printf("matched %d memo sessions out of %d ingress frames\n", hits, stats.NIC.RxFrames)
}
