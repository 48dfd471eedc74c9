package core

import (
	"strings"
	"testing"

	"retina/internal/conntrack"
	"retina/internal/filter"
	"retina/internal/layers"
	"retina/internal/mbuf"
	"retina/internal/proto"
)

// flow synthesizes the packets of one TCP (or UDP) connection.
type flow struct {
	t       *testing.T
	b       layers.Builder
	cliIP   [4]byte
	srvIP   [4]byte
	cliPort uint16
	srvPort uint16
	proto   uint8
	cliSeq  uint32
	srvSeq  uint32
}

func newFlow(t *testing.T, cliPort, srvPort uint16) *flow {
	return &flow{
		t:     t,
		cliIP: layers.ParseAddr4("10.1.0.1"), srvIP: layers.ParseAddr4("93.184.216.34"),
		cliPort: cliPort, srvPort: srvPort,
		proto:  layers.IPProtoTCP,
		cliSeq: 1000, srvSeq: 50000,
	}
}

func (f *flow) pkt(fromClient bool, flags uint8, payload []byte) []byte {
	spec := &layers.PacketSpec{Proto: f.proto, TCPFlags: flags, Payload: payload}
	if fromClient {
		spec.SrcIP4, spec.DstIP4 = f.cliIP, f.srvIP
		spec.SrcPort, spec.DstPort = f.cliPort, f.srvPort
		spec.Seq = f.cliSeq
		f.cliSeq += uint32(len(payload))
		if flags&layers.TCPSyn != 0 || flags&layers.TCPFin != 0 {
			f.cliSeq++
		}
	} else {
		spec.SrcIP4, spec.DstIP4 = f.srvIP, f.cliIP
		spec.SrcPort, spec.DstPort = f.srvPort, f.cliPort
		spec.Seq = f.srvSeq
		f.srvSeq += uint32(len(payload))
		if flags&layers.TCPSyn != 0 || flags&layers.TCPFin != 0 {
			f.srvSeq++
		}
	}
	return f.b.Build(spec)
}

// handshake emits SYN, SYN-ACK, ACK.
func (f *flow) handshake() [][]byte {
	return [][]byte{
		f.pkt(true, layers.TCPSyn, nil),
		f.pkt(false, layers.TCPSyn|layers.TCPAck, nil),
		f.pkt(true, layers.TCPAck, nil),
	}
}

// teardown emits FIN/ACK from both sides.
func (f *flow) teardown() [][]byte {
	return [][]byte{
		f.pkt(true, layers.TCPFin|layers.TCPAck, nil),
		f.pkt(false, layers.TCPFin|layers.TCPAck, nil),
	}
}

func newTestCore(t *testing.T, filterSrc string, sub *Subscription) *Core {
	t.Helper()
	c, err := NewCore(0, Config{Set: testSet(t, filterSrc, sub), Conntrack: conntrack.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// staticSet compiles filterSrc into a one-slot program set for sub — the
// shape retina.New builds for a single subscription.
func staticSet(filterSrc string, sub *Subscription) (*ProgramSet, error) {
	prog, err := filter.Compile(filterSrc, filter.Options{})
	if err != nil {
		return nil, err
	}
	return NewProgramSet(0, []*SubSpec{{
		Name: "static", Filter: filterSrc, Sub: sub, Prog: prog,
		NeedsConn: prog.NeedsConnTracking(),
	}}, nil)
}

// testSet is staticSet failing the test on error.
func testSet(t testing.TB, filterSrc string, sub *Subscription) *ProgramSet {
	t.Helper()
	ps, err := staticSet(filterSrc, sub)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// feed pushes raw frames through the core at increasing ticks.
func feed(c *Core, frames [][]byte) {
	for i, fr := range frames {
		m := mbuf.FromBytes(fr)
		m.RxTick = c.Now() + uint64(i+1)*1000
		c.ProcessBurst([]*mbuf.Mbuf{m})
	}
}

func tlsFlowFrames(t *testing.T, sni string) [][]byte {
	f := newFlow(t, 40001, 443)
	spec := proto.HelloSpec{SNI: sni, Cipher: 0x1301}
	frames := f.handshake()
	frames = append(frames, f.pkt(true, layers.TCPAck|layers.TCPPsh, proto.BuildClientHello(spec)))
	frames = append(frames, f.pkt(false, layers.TCPAck|layers.TCPPsh, proto.BuildServerHello(spec)))
	frames = append(frames, f.pkt(false, layers.TCPAck, proto.BuildAppDataRecord(1000)))
	frames = append(frames, f.pkt(true, layers.TCPAck, proto.BuildAppDataRecord(200)))
	return frames
}

// TestFigure1TLSSubscription is the paper's headline example: subscribe
// to parsed TLS handshakes for .com domains.
func TestFigure1TLSSubscription(t *testing.T) {
	var got []*proto.TLSHandshake
	sub := &Subscription{
		Level:     LevelSession,
		OnSession: func(ev *SessionEvent) { got = append(got, ev.TLS()) },
	}
	c := newTestCore(t, `tls.sni matches '.*\.com$'`, sub)
	frames := tlsFlowFrames(t, "video.example.com")
	handshakeOnly, rest := frames[:5], frames[5:]
	feed(c, handshakeOnly)
	if len(got) != 1 {
		t.Fatalf("handshakes delivered = %d, want 1", len(got))
	}
	if got[0].SNI != "video.example.com" {
		t.Fatalf("SNI = %q", got[0].SNI)
	}
	if !strings.Contains(got[0].CipherName(), "AES_128_GCM") {
		t.Fatalf("cipher = %q", got[0].CipherName())
	}
	// Figure 4b: the connection is removed mid-stream after the match.
	if c.Table().Len() != 0 {
		t.Fatalf("connection not deleted after handshake delivery (len=%d)", c.Table().Len())
	}
	// Encrypted stragglers must not produce further sessions.
	feed(c, rest)
	if len(got) != 1 {
		t.Fatalf("stragglers produced sessions: %d", len(got))
	}
}

func TestTLSSubscriptionNonMatchingSNI(t *testing.T) {
	delivered := 0
	sub := &Subscription{
		Level:     LevelSession,
		OnSession: func(*SessionEvent) { delivered++ },
	}
	c := newTestCore(t, `tls.sni matches '.*\.com$'`, sub)
	feed(c, tlsFlowFrames(t, "example.org"))
	if delivered != 0 {
		t.Fatalf("non-matching SNI delivered %d sessions", delivered)
	}
	st := c.Stats()
	if st.SessionsSeen != 1 || st.SessionsMatch != 0 {
		t.Fatalf("stats %+v", st)
	}
	// Later packets of the rejected connection are tombstone hits.
	if st.TombstonePkts == 0 {
		t.Fatal("no tombstone packets counted")
	}
}

func TestNonTLSConnectionRejected(t *testing.T) {
	delivered := 0
	sub := &Subscription{Level: LevelSession, OnSession: func(*SessionEvent) { delivered++ }}
	c := newTestCore(t, "tls", sub)
	f := newFlow(t, 40002, 80)
	frames := f.handshake()
	frames = append(frames, f.pkt(true, layers.TCPAck|layers.TCPPsh, []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")))
	frames = append(frames, f.pkt(true, layers.TCPAck|layers.TCPPsh, []byte("more data")))
	feed(c, frames)
	if delivered != 0 {
		t.Fatal("HTTP connection matched a tls filter")
	}
	if c.Stats().TombstonePkts == 0 {
		t.Fatal("rejected connection packets not tombstoned")
	}
}

// TestFigure4aPacketsInHTTP: raw packets of HTTP connections — buffered
// during probing, flushed on match, delivered thereafter.
func TestFigure4aPacketsInHTTP(t *testing.T) {
	var pkts []*Packet
	var sizes []int
	sub := &Subscription{Level: LevelPacket, OnPacket: func(p *Packet) {
		pkts = append(pkts, p)
		sizes = append(sizes, len(p.Data))
	}}
	c := newTestCore(t, "http", sub)
	f := newFlow(t, 40003, 8080)
	frames := f.handshake() // 3 packets buffered (probe pending)
	frames = append(frames, f.pkt(true, layers.TCPAck|layers.TCPPsh, []byte("GET /a HTTP/1.1\r\nHost: x\r\n\r\n")))
	frames = append(frames, f.pkt(false, layers.TCPAck|layers.TCPPsh, []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")))
	frames = append(frames, f.pkt(true, layers.TCPAck, []byte("GET /b HTTP/1.1\r\nHost: x\r\n\r\n")))
	feed(c, frames)
	// All six packets must be delivered: 4 buffered + flushed at match
	// (SYN, SYN-ACK, ACK, request), then response and the second request
	// delivered directly.
	if len(pkts) != 6 {
		t.Fatalf("packets delivered = %d, want 6", len(pkts))
	}
	// SYN, SYN-ACK, ACK buffered; the request packet itself triggers the
	// match during stream processing and is delivered directly.
	if c.Stats().BufferedPkts != 3 {
		t.Fatalf("buffered = %d, want 3", c.Stats().BufferedPkts)
	}
}

func TestRawPacketFastPath(t *testing.T) {
	count := 0
	sub := &Subscription{Level: LevelPacket, OnPacket: func(*Packet) { count++ }}
	c := newTestCore(t, "ipv4 and tcp", sub)
	f := newFlow(t, 40004, 9999)
	feed(c, f.handshake())
	if count != 3 {
		t.Fatalf("delivered = %d, want 3", count)
	}
	// Fast path must not create connection state.
	if c.Table().Len() != 0 {
		t.Fatal("terminal packet subscription created connections")
	}
}

func TestPacketFilterDrops(t *testing.T) {
	count := 0
	sub := &Subscription{Level: LevelPacket, OnPacket: func(*Packet) { count++ }}
	c := newTestCore(t, "udp", sub)
	f := newFlow(t, 40005, 443)
	feed(c, f.handshake()) // TCP packets against a UDP filter
	if count != 0 || c.Stats().FilterDropped != 3 {
		t.Fatalf("count=%d dropped=%d", count, c.Stats().FilterDropped)
	}
}

func TestConnRecordsOnTermination(t *testing.T) {
	var recs []*ConnRecord
	sub := &Subscription{Level: LevelConnection, OnConn: func(r *ConnRecord) { recs = append(recs, r) }}
	c := newTestCore(t, "ipv4 and tcp", sub)
	f := newFlow(t, 40006, 443)
	frames := f.handshake()
	frames = append(frames, f.pkt(true, layers.TCPAck|layers.TCPPsh, []byte("hello")))
	frames = append(frames, f.teardown()...)
	feed(c, frames)
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	r := recs[0]
	if !r.Established || !r.FinSeen || r.Why != conntrack.ExpireTermination {
		t.Fatalf("record %+v", r)
	}
	if r.PktsOrig != 4 || r.PktsResp != 2 {
		t.Fatalf("pkts %d/%d", r.PktsOrig, r.PktsResp)
	}
	if r.PayloadOrig != 5 {
		t.Fatalf("payload orig = %d", r.PayloadOrig)
	}
	if c.Table().Len() != 0 {
		t.Fatal("terminated connection still tracked")
	}
}

func TestConnRecordsSingleSYNExpiry(t *testing.T) {
	var recs []*ConnRecord
	sub := &Subscription{Level: LevelConnection, OnConn: func(r *ConnRecord) { recs = append(recs, r) }}
	c := newTestCore(t, "ipv4 and tcp", sub)
	f := newFlow(t, 40007, 23)
	feed(c, [][]byte{f.pkt(true, layers.TCPSyn, nil)})
	// Advance the virtual clock beyond the establishment timeout.
	c.AdvanceTime(c.Now() + 10*conntrack.TickSecond)
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	if !recs[0].SingleSYN() {
		t.Fatalf("record not single-SYN: %+v", recs[0])
	}
	if recs[0].Why != conntrack.ExpireEstablishTimeout {
		t.Fatalf("reason = %v", recs[0].Why)
	}
}

func TestConnRecordsWithSessionFilter(t *testing.T) {
	// Figure 7's workload shape: connection records filtered by SNI.
	var recs []*ConnRecord
	sub := &Subscription{Level: LevelConnection, OnConn: func(r *ConnRecord) { recs = append(recs, r) }}
	c := newTestCore(t, `tcp.port = 443 and tls.sni ~ 'nflxvideo'`, sub)

	feed(c, tlsFlowFrames(t, "a13.nflxvideo.net"))
	feedOther := tlsFlowFrames(t, "www.youtube.com")
	feed(c, feedOther)
	c.Flush()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	if recs[0].Service != "tls" {
		t.Fatalf("service = %q", recs[0].Service)
	}
}

func TestFlushDeliversLiveConns(t *testing.T) {
	var recs []*ConnRecord
	sub := &Subscription{Level: LevelConnection, OnConn: func(r *ConnRecord) { recs = append(recs, r) }}
	c := newTestCore(t, "ipv4 and tcp", sub)
	f := newFlow(t, 40008, 443)
	feed(c, f.handshake()) // no teardown
	if len(recs) != 0 {
		t.Fatal("record delivered before termination")
	}
	c.Flush()
	if len(recs) != 1 || recs[0].Why != conntrack.ExpireEvicted {
		t.Fatalf("flush records = %v", recs)
	}
	c.Flush() // idempotent
	if len(recs) != 1 {
		t.Fatal("double flush double-delivered")
	}
}

func TestRSTTerminatesConnection(t *testing.T) {
	var recs []*ConnRecord
	sub := &Subscription{Level: LevelConnection, OnConn: func(r *ConnRecord) { recs = append(recs, r) }}
	c := newTestCore(t, "ipv4 and tcp", sub)
	f := newFlow(t, 40009, 443)
	frames := f.handshake()
	frames = append(frames, f.pkt(false, layers.TCPRst, nil))
	feed(c, frames)
	if len(recs) != 1 || !recs[0].RstSeen {
		t.Fatalf("records = %v", recs)
	}
}

func TestUDPDNSSessions(t *testing.T) {
	var names []string
	sub := &Subscription{Level: LevelSession, OnSession: func(ev *SessionEvent) {
		m := ev.Session.Data.(*proto.DNSMessage)
		names = append(names, m.QueryName)
	}}
	c := newTestCore(t, `dns.query_name ~ 'example'`, sub)

	var b layers.Builder
	mk := func(sport uint16, name string) []byte {
		return b.Build(&layers.PacketSpec{
			SrcIP4: layers.ParseAddr4("10.1.0.1"), DstIP4: layers.ParseAddr4("8.8.8.8"),
			Proto: layers.IPProtoUDP, SrcPort: sport, DstPort: 53,
			Payload: proto.BuildDNSQuery(7, name, 1),
		})
	}
	feed(c, [][]byte{mk(5001, "www.example.com"), mk(5002, "other.org")})
	if len(names) != 1 || names[0] != "www.example.com" {
		t.Fatalf("names = %v", names)
	}
}

func TestSessionDeliveryWithTerminalConnFilter(t *testing.T) {
	// Filter "tls" (terminal at connection layer) + session data type:
	// every TLS handshake is delivered, no session predicate applies.
	var got []*SessionEvent
	sub := &Subscription{Level: LevelSession, OnSession: func(ev *SessionEvent) { got = append(got, ev) }}
	c := newTestCore(t, "tls", sub)
	feed(c, tlsFlowFrames(t, "anything.example"))
	if len(got) != 1 {
		t.Fatalf("sessions = %d, want 1", len(got))
	}
}

func TestSessionSubscriptionWithPacketTerminalFilter(t *testing.T) {
	// Filter "ipv4 and tcp" is packet-terminal; a TLS-handshake data
	// type must still probe and parse (SessionProtos drives the
	// registry).
	var got []*proto.TLSHandshake
	sub := &Subscription{
		Level:         LevelSession,
		SessionProtos: []string{"tls"},
		OnSession: func(ev *SessionEvent) {
			if h := ev.TLS(); h != nil {
				got = append(got, h)
			}
		},
	}
	c := newTestCore(t, "ipv4 and tcp", sub)
	feed(c, tlsFlowFrames(t, "x.test"))
	if len(got) != 1 || got[0].SNI != "x.test" {
		t.Fatalf("got = %v", got)
	}
}

func TestOutOfOrderHandshakeStillParses(t *testing.T) {
	var got []*proto.TLSHandshake
	sub := &Subscription{Level: LevelSession, OnSession: func(ev *SessionEvent) { got = append(got, ev.TLS()) }}
	c := newTestCore(t, "tls", sub)

	f := newFlow(t, 40010, 443)
	spec := proto.HelloSpec{SNI: "ooo.example.com"}
	ch := proto.BuildClientHello(spec)
	// Split the ClientHello into two TCP segments and deliver swapped.
	half := len(ch) / 2
	frames := f.handshake()
	seg1 := f.pkt(true, layers.TCPAck, ch[:half])
	seg2 := f.pkt(true, layers.TCPAck, ch[half:])
	frames = append(frames, seg2, seg1) // out of order
	frames = append(frames, f.pkt(false, layers.TCPAck, proto.BuildServerHello(spec)))
	feed(c, frames)
	if len(got) != 1 || got[0].SNI != "ooo.example.com" {
		t.Fatalf("got = %+v", got)
	}
}

func TestStageCountsHierarchicallyDecrease(t *testing.T) {
	sub := &Subscription{Level: LevelConnection, OnConn: func(*ConnRecord) {}}
	c := newTestCore(t, `tcp.port = 443 and tls.sni ~ 'nflxvideo'`, sub)
	// One matching flow, one non-matching TLS flow, one UDP flow.
	feed(c, tlsFlowFrames(t, "a.nflxvideo.net"))
	feed(c, tlsFlowFrames(t, "www.google.com"))
	var b layers.Builder
	udp := b.Build(&layers.PacketSpec{
		SrcIP4: layers.ParseAddr4("1.1.1.1"), DstIP4: layers.ParseAddr4("2.2.2.2"),
		Proto: layers.IPProtoUDP, SrcPort: 1, DstPort: 53, Payload: []byte("xxxx")})
	feed(c, [][]byte{udp})
	c.Flush()

	st := c.StageStats()
	sw := st.Invocations(StageSWFilter)
	ct := st.Invocations(StageConnTrack)
	re := st.Invocations(StageReassembly)
	pa := st.Invocations(StageParsing)
	sf := st.Invocations(StageSessionFilter)
	cb := st.Invocations(StageCallback)
	if !(sw >= ct && ct >= re && re >= pa && pa >= sf && sf >= cb) {
		t.Fatalf("stage counts not hierarchical: sw=%d ct=%d re=%d pa=%d sf=%d cb=%d",
			sw, ct, re, pa, sf, cb)
	}
	if cb != 1 {
		t.Fatalf("callbacks = %d, want 1", cb)
	}
}

func TestMbufRefcountHygiene(t *testing.T) {
	// Every mbuf drawn from a pool must return to it after processing,
	// across buffering, reassembly parking, and rejection paths.
	pool := mbuf.NewPool(256, 2048)
	sub := &Subscription{Level: LevelPacket, OnPacket: func(*Packet) {}}
	c := newTestCore(t, "http", sub)

	frames := tlsFlowFrames(t, "not-http.example") // will be rejected by probe
	f := newFlow(t, 40011, 8080)
	frames = append(frames, f.handshake()...)
	frames = append(frames, f.pkt(true, layers.TCPAck, []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")))
	ch := []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
	frames = append(frames, f.pkt(false, layers.TCPAck, ch))

	for i, fr := range frames {
		m, err := pool.AllocData(fr)
		if err != nil {
			t.Fatal(err)
		}
		m.RxTick = uint64(i+1) * 1000
		c.ProcessBurst([]*mbuf.Mbuf{m})
	}
	c.Flush()
	if pool.Available() != pool.Size() {
		t.Fatalf("leaked mbufs: %d of %d free", pool.Available(), pool.Size())
	}
}

func TestSubscriptionValidation(t *testing.T) {
	build := func(sub *Subscription) error {
		ps, err := staticSet("ipv4", sub)
		if err == nil {
			_, err = NewCore(0, Config{Set: ps})
		}
		return err
	}
	if build(&Subscription{Level: LevelPacket}) == nil {
		t.Fatal("subscription without callback accepted")
	}
	if build(&Subscription{Level: LevelSession, OnSession: func(*SessionEvent) {}, SessionProtos: []string{"bogus"}}) == nil {
		t.Fatal("unknown session protocol accepted")
	}
}

func TestHTTPUserAgentFilter(t *testing.T) {
	var agents []string
	sub := &Subscription{Level: LevelSession, OnSession: func(ev *SessionEvent) {
		agents = append(agents, ev.HTTP().UserAgent)
	}}
	c := newTestCore(t, `http.user_agent matches 'Firefox'`, sub)
	f := newFlow(t, 40012, 80)
	frames := f.handshake()
	frames = append(frames, f.pkt(true, layers.TCPAck, []byte("GET / HTTP/1.1\r\nHost: x\r\nUser-Agent: Firefox/119\r\n\r\n")))
	frames = append(frames, f.pkt(false, layers.TCPAck, []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")))
	frames = append(frames, f.pkt(true, layers.TCPAck, []byte("GET /2 HTTP/1.1\r\nHost: x\r\nUser-Agent: curl/8\r\n\r\n")))
	frames = append(frames, f.pkt(false, layers.TCPAck, []byte("HTTP/1.1 404 NF\r\nContent-Length: 0\r\n\r\n")))
	feed(c, frames)
	if len(agents) != 1 || agents[0] != "Firefox/119" {
		t.Fatalf("agents = %v", agents)
	}
}
