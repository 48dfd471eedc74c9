package retina

import (
	"flag"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"retina/internal/conntrack"
	"retina/internal/filter"
	"retina/internal/layers"
	"retina/internal/mbuf"
	"retina/internal/proto"
	"retina/internal/telemetry"
	"retina/internal/traffic"
)

func TestEndToEndTLSHandshakes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = `tls.sni matches 'nflxvideo'`
	cfg.Cores = 2

	var mu sync.Mutex
	var snis []string
	rt, err := New(cfg, TLSHandshakes(func(h *TLSHandshake, ev *SessionEvent) {
		mu.Lock()
		snis = append(snis, h.SNI)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}

	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 42, Flows: 600, Gbps: 20})
	stats := rt.Run(src)

	if len(snis) == 0 {
		t.Fatal("no netflix handshakes delivered")
	}
	for _, s := range snis {
		if !strings.Contains(s, "nflxvideo") {
			t.Fatalf("filter leaked SNI %q", s)
		}
	}
	if stats.NIC.RxFrames == 0 || stats.NIC.Delivered == 0 {
		t.Fatalf("NIC stats empty: %+v", stats.NIC)
	}
	if stats.Loss() != 0 {
		t.Fatalf("unexpected loss: %d", stats.Loss())
	}
}

// TestPoolBalancedAfterRun checks the mbuf refcount invariant: whatever
// the subscription level and however many packets were buffered while
// filter verdicts were pending, every mbuf must be back in the pool once
// Run returns. A leak here is a slow out-of-memory on a live deployment.
func TestPoolBalancedAfterRun(t *testing.T) {
	cases := []struct {
		name   string
		filter string
		sub    func() *Subscription
	}{
		// Packet subscription with a conn-stage filter: frames are
		// buffered in mbufs until the service is identified, exercising
		// the buffered-packet free path.
		{"buffered-packets", "tls", func() *Subscription {
			return Packets(func(*Packet) {})
		}},
		{"sessions", "tls or http", func() *Subscription {
			return Sessions(func(*SessionEvent) {})
		}},
		{"connections", "ipv4 and tcp", func() *Subscription {
			return Connections(func(*ConnRecord) {})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Filter = tc.filter
			cfg.Cores = 2
			cfg.PoolSize = 2048
			rt, err := New(cfg, tc.sub())
			if err != nil {
				t.Fatal(err)
			}
			src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 17, Flows: 400, Gbps: 20})
			rt.Run(src)
			pool := rt.Pool()
			if got := pool.InUse(); got != 0 {
				t.Fatalf("%d mbufs still out of the pool after Run", got)
			}
			if allocs, _ := pool.Stats(); allocs == 0 {
				t.Fatal("pool was never used; test is vacuous")
			}
		})
	}
}

// TestRunGivesBackGrownChunks pins what a runtime keeps once Run
// returns: the buffer pool's first chunk (512 buffers) and nothing a
// deeper backlog made. The pool is grown to eight chunks before the
// run and the run's frames land in the last-freed buffers of the grown
// chunks; a pool that kept them, or a core still viewing one after its
// final flush, keeps that storage reachable.
func TestRunGivesBackGrownChunks(t *testing.T) {
	const firstChunk, grown = 512, 8 * 512
	cfg := DefaultConfig()
	cfg.Cores = 1
	rt, err := New(cfg, Packets(func(*Packet) {}))
	if err != nil {
		t.Fatal(err)
	}
	views := growPool(t, rt.Pool(), grown)
	st := rt.Run(campusTrace(7, 100).Replay())
	if err := rt.Check(st); err != nil {
		t.Fatal(err)
	}
	if st.Cores[0].DeliveredPackets == 0 {
		t.Fatal("nothing delivered; test is vacuous")
	}
	runtime.GC()
	var live int
	for _, v := range views {
		if v.Value() != nil {
			live++
		}
	}
	runtime.KeepAlive(rt)
	if live > firstChunk {
		t.Fatalf("%d of %d grown buffers' storage still reachable after Run; want at most the first chunk's %d", live, grown, firstChunk)
	}
}

// growPool allocates n buffers from p and frees them, returning weak
// views of each one's storage; it keeps no strong reference.
func growPool(t *testing.T, p *mbuf.Pool, n int) []weak.Pointer[byte] {
	t.Helper()
	ms := make([]*mbuf.Mbuf, n)
	if k := p.AllocBulk(ms); k != n {
		t.Fatalf("pool allocated %d of %d buffers", k, n)
	}
	views := make([]weak.Pointer[byte], n)
	for i, m := range ms {
		if err := m.SetData([]byte{1}); err != nil {
			t.Fatal(err)
		}
		views[i] = weak.Make(&m.Data()[0])
	}
	mbuf.FreeBulk(ms)
	return views
}

// TestRunTwice pins Run's re-entrance: the first Run closes the device's
// rings, and the second must reopen them before its cores start, or a
// core finding its ring closed and empty exits while the producer keeps
// enqueueing frames nobody processes. After each call the run's frame
// accounting closes: every frame the device delivered was processed by
// a core and every mbuf is back in the pool.
func TestRunTwice(t *testing.T) {
	tr := campusTrace(23, 300)
	half := len(tr.Frames) / 2
	cfg := DefaultConfig()
	cfg.Filter = "tls"
	cfg.Cores = 2
	cfg.RingSize = 1 << 16
	cfg.PoolSize = 1 << 17
	rt, err := New(cfg, Packets(func(*Packet) {}))
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []Source{tr.Slice(0, half).Replay(), tr.Slice(half, len(tr.Frames)).Replay()} {
		st := rt.Run(src)
		if st.NIC.Delivered == 0 {
			t.Fatalf("run %d: device delivered nothing; test is vacuous", i+1)
		}
		assertFrameConservation(t, rt, st)
	}
}

func TestEndToEndConnRecordsAcrossCores(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = "ipv4 and tcp"
	cfg.Cores = 4

	var count atomic.Uint64
	coreSeen := [8]atomic.Uint64{}
	rt, err := New(cfg, Connections(func(r *ConnRecord) {
		count.Add(1)
		coreSeen[r.CoreID].Add(1)
	}))
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 5, Flows: 800, Gbps: 40})
	assertFrameConservation(t, rt, rt.Run(src))

	if count.Load() < 400 {
		t.Fatalf("records = %d, too few", count.Load())
	}
	// RSS should spread connections over all cores.
	busy := 0
	for i := 0; i < 4; i++ {
		if coreSeen[i].Load() > 0 {
			busy++
		}
	}
	if busy < 3 {
		t.Fatalf("only %d of 4 cores saw connections", busy)
	}
}

func TestEndToEndPacketsWithHardwareFilter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = "udp"
	cfg.Cores = 2
	cfg.HardwareFilter = true

	var pkts atomic.Uint64
	rt, err := New(cfg, Packets(func(p *Packet) { pkts.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Program().Rules) == 0 {
		t.Fatal("no hardware rules generated")
	}
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 9, Flows: 300, Gbps: 20})
	stats := rt.Run(src)

	if pkts.Load() == 0 {
		t.Fatal("no UDP packets delivered")
	}
	if stats.NIC.HWDropped == 0 {
		t.Fatal("hardware filter dropped nothing (TCP should be dropped)")
	}
	// Every packet that reached software matched the filter: software
	// filter drops only what hardware could not express (here: none).
	if n := rt.DropBreakdown()[telemetry.DropSWFilter]; n != 0 {
		t.Fatalf("software dropped %d packets despite exact hardware rule", n)
	}
	assertFrameConservation(t, rt, stats)
}

func TestSinkFractionReducesDelivery(t *testing.T) {
	mk := func(sink float64) uint64 {
		cfg := DefaultConfig()
		cfg.Cores = 2
		cfg.SinkFraction = sink
		rt, err := New(cfg, Packets(func(*Packet) {}))
		if err != nil {
			t.Fatal(err)
		}
		src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 31, Flows: 300, Gbps: 20})
		st := rt.Run(src)
		return st.NIC.Delivered
	}
	full := mk(0)
	half := mk(0.5)
	if half >= full {
		t.Fatalf("sink did not reduce delivery: %d vs %d", half, full)
	}
	ratio := float64(half) / float64(full)
	if ratio < 0.2 || ratio > 0.8 {
		t.Fatalf("sink ratio %.2f far from 0.5", ratio)
	}
}

func TestOfflinePcapMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.pcap")
	gen := traffic.NewCampusMix(traffic.CampusConfig{Seed: 77, Flows: 150, Gbps: 10})
	if _, err := traffic.WriteSourceToPcap(gen, path); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Filter = "tls"
	cfg.Cores = 1
	var sessions int
	rt, err := New(cfg, Sessions(func(ev *SessionEvent) { sessions++ }))
	if err != nil {
		t.Fatal(err)
	}
	r, err := traffic.OpenPcap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stats := rt.RunOffline(r)
	if sessions == 0 {
		t.Fatal("offline mode delivered no TLS sessions")
	}
	if stats.Cores[0].Processed == 0 {
		t.Fatal("no packets processed")
	}
}

// TestOfflineUnbufferableFramesAccounted pins offline conservation: a
// frame RunOffline cannot buffer is counted under the reason the device
// would give it online — oversize_frame for one larger than a packet
// buffer, pool_exhausted when no buffer is free — so delivered plus the
// frame drop reasons equals the frames offered.
func TestOfflineUnbufferableFramesAccounted(t *testing.T) {
	frame, _, ok := traffic.NewCampusMix(traffic.CampusConfig{Seed: 77, Flows: 10, Gbps: 10}).Next()
	if !ok {
		t.Fatal("campus generator produced no frame")
	}
	frame = append([]byte(nil), frame...)
	big := make([]byte, 3000)
	copy(big, frame)
	for _, tc := range []struct {
		name     string
		poolSize int
		frames   [][]byte
		reason   string
	}{
		{"oversize", 0, [][]byte{frame, big}, telemetry.DropOversize},
		{"pool_exhausted", 1, [][]byte{frame, frame}, telemetry.DropPoolExhausted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Cores = 1
			cfg.PoolSize = tc.poolSize
			var delivered uint64
			rt, err := New(cfg, Packets(func(*Packet) { delivered++ }))
			if err != nil {
				t.Fatal(err)
			}
			stats := rt.RunOffline(struct{ Source }{(&traffic.Trace{Frames: tc.frames, Ticks: make([]uint64, len(tc.frames))}).Replay()})
			drops := rt.DropBreakdown()
			if delivered != 1 || drops[tc.reason] != 1 {
				t.Fatalf("delivered %d, %s %d; want 1 each (breakdown %v)", delivered, tc.reason, drops[tc.reason], drops)
			}
			if stats.Frames != uint64(len(tc.frames)) {
				t.Fatalf("stats count %d frames, %d were offered", stats.Frames, len(tc.frames))
			}
			assertFrameConservation(t, rt, stats)
		})
	}
}

func TestInterpretedEngineEquivalence(t *testing.T) {
	run := func(interpreted bool) uint64 {
		cfg := DefaultConfig()
		cfg.Filter = `tcp.port = 443 and tls.sni ~ 'nflxvideo'`
		cfg.Cores = 1
		cfg.Interpreted = interpreted
		var n atomic.Uint64
		rt, err := New(cfg, Sessions(func(*SessionEvent) { n.Add(1) }))
		if err != nil {
			t.Fatal(err)
		}
		src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 12, Flows: 400, Gbps: 20})
		rt.RunOffline(src)
		return n.Load()
	}
	c, i := run(false), run(true)
	if c == 0 || c != i {
		t.Fatalf("engines disagree: compiled=%d interpreted=%d", c, i)
	}
}

func TestTimeoutOverrides(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EstablishTimeout = 2 * time.Second
	cfg.InactivityTimeout = -1 // disabled
	ct := cfg.conntrack()
	if ct.EstablishTimeout != 2_000_000 {
		t.Fatalf("establish = %d", ct.EstablishTimeout)
	}
	if ct.InactivityTimeout != 0 {
		t.Fatalf("inactivity = %d", ct.InactivityTimeout)
	}
}

func TestBadFilterRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = "bogus.field > 1"
	if _, err := New(cfg, Packets(func(*Packet) {})); err == nil {
		t.Fatal("bad filter accepted")
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Fatal("nil subscription accepted")
	}
}

func TestSMTPSessionsEndToEnd(t *testing.T) {
	// §2's "all SMTP sessions" use case, end to end.
	cfg := DefaultConfig()
	cfg.Filter = `smtp.mail_from matches 'campus\.edu$'`
	cfg.Cores = 1
	var froms []string
	rt, err := New(cfg, Sessions(func(ev *SessionEvent) {
		s := ev.Session.Data.(*proto.SMTPSession)
		froms = append(froms, s.MailFrom)
	}))
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 29, Flows: 800, Gbps: 20})
	rt.RunOffline(src)
	if len(froms) == 0 {
		t.Fatal("no SMTP sessions delivered")
	}
	for _, f := range froms {
		if !strings.HasSuffix(f, "campus.edu") {
			t.Fatalf("filter leaked sender %q", f)
		}
	}
}

// echoParser is a minimal user-defined protocol for the Modules test: it
// matches streams starting with "ECHO " and exposes the echoed word.
type echoParser struct {
	word string
	out  []*proto.Session
}

type echoData struct{ word string }

func (d *echoData) ProtoName() string { return "echo" }
func (d *echoData) StringField(name string) (string, bool) {
	if name == "word" {
		return d.word, true
	}
	return "", false
}
func (d *echoData) IntField(string) (uint64, bool) { return 0, false }

func (p *echoParser) Name() string { return "echo" }
func (p *echoParser) Probe(data []byte, orig bool) proto.ProbeResult {
	if !orig || len(data) < 5 {
		return proto.ProbeUnsure
	}
	if string(data[:5]) == "ECHO " {
		return proto.ProbeMatch
	}
	return proto.ProbeReject
}
func (p *echoParser) Parse(data []byte, orig bool) proto.ParseResult {
	if !orig {
		return proto.ParseContinue
	}
	if len(data) > 5 {
		p.out = append(p.out, &proto.Session{ID: 1, Proto: "echo",
			Data: &echoData{word: strings.TrimSpace(string(data[5:]))}})
		return proto.ParseDone
	}
	return proto.ParseContinue
}
func (p *echoParser) DrainSessions() []*proto.Session {
	s := p.out
	p.out = nil
	return s
}
func (p *echoParser) SessionMatchState() conntrack.State   { return conntrack.StateTrack }
func (p *echoParser) SessionNoMatchState() conntrack.State { return conntrack.StateTrack }

func TestUserProtocolModule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Filter = `echo.word = 'hello'`
	cfg.Modules = []ProtocolModule{{
		Filter: &filter.ProtoDef{
			Name:    "echo",
			Layer:   filter.LayerConnection,
			Parents: []string{"tcp"},
			Fields: map[string]*filter.FieldDef{
				"word": {Name: "word", Kind: filter.KindString, Layer: filter.LayerSession},
			},
		},
		Parser: func() proto.Parser { return &echoParser{} },
	}}

	var words []string
	rt, err := New(cfg, Sessions(func(ev *SessionEvent) {
		words = append(words, ev.Session.Data.(*echoData).word)
	}))
	if err != nil {
		t.Fatal(err)
	}

	// Build two echo flows (one matching, one not) with raw packets.
	var b layers.Builder
	mk := func(sport uint16, word string, seq uint32) [][]byte {
		spec := func(flags uint8, payload []byte, s uint32) []byte {
			return b.Build(&layers.PacketSpec{
				SrcIP4: layers.ParseAddr4("10.0.0.5"), DstIP4: layers.ParseAddr4("10.0.0.6"),
				Proto: layers.IPProtoTCP, SrcPort: sport, DstPort: 7,
				Seq: s, TCPFlags: flags, Payload: payload,
			})
		}
		return [][]byte{
			spec(layers.TCPSyn, nil, seq),
			spec(layers.TCPAck, []byte("ECHO "+word+"\n"), seq+1),
		}
	}
	var frames [][]byte
	frames = append(frames, mk(4001, "hello", 100)...)
	frames = append(frames, mk(4002, "world", 500)...)
	rt.RunOffline(struct{ Source }{(&traffic.Trace{Frames: frames, Ticks: []uint64{1000, 2000, 3000, 4000}}).Replay()})

	if len(words) != 1 || words[0] != "hello" {
		t.Fatalf("words = %v, want [hello]", words)
	}
}

func TestQUICSessionsEndToEnd(t *testing.T) {
	// QUIC Initial decryption in the live pipeline: subscribe to QUIC
	// sessions by SNI, over the campus mix.
	cfg := DefaultConfig()
	cfg.Filter = `quic.sni ~ 'googlevideo|nflxvideo'`
	cfg.Cores = 2
	var mu sync.Mutex
	var snis []string
	rt, err := New(cfg, Sessions(func(ev *SessionEvent) {
		q := ev.Session.Data.(*proto.QUICInitial)
		mu.Lock()
		snis = append(snis, q.SNI)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 33, Flows: 1200, Gbps: 30})
	rt.Run(src)
	if len(snis) == 0 {
		t.Fatal("no QUIC sessions delivered")
	}
	for _, s := range snis {
		if !strings.Contains(s, "googlevideo") && !strings.Contains(s, "nflxvideo") {
			t.Fatalf("filter leaked QUIC SNI %q", s)
		}
	}
}

func TestIPv6FilterSeesGeneratedIPv6(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = "ipv6 and tcp"
	cfg.Cores = 1
	var v6pkts atomic.Uint64
	rt, err := New(cfg, Packets(func(*Packet) { v6pkts.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 17, Flows: 500, Gbps: 20})
	rt.RunOffline(src)
	if v6pkts.Load() == 0 {
		t.Fatal("campus mix produced no IPv6 TCP packets")
	}
}

func TestByteStreamsSubscription(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = "http"
	cfg.Cores = 1
	var total int
	rt, err := New(cfg, ByteStreams(func(ch *StreamChunk) { total += len(ch.Data) }))
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 23, Flows: 200, Gbps: 20})
	rt.RunOffline(src)
	if total == 0 {
		t.Fatal("byte-stream subscription delivered nothing")
	}
}

func TestHTTPTransactionsSubscription(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = "http"
	cfg.Cores = 1
	var hosts []string
	rt, err := New(cfg, HTTPTransactions(func(tx *HTTPTransaction, ev *SessionEvent) {
		hosts = append(hosts, tx.Host)
	}))
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 21, Flows: 300, Gbps: 20})
	rt.RunOffline(src)
	if len(hosts) == 0 {
		t.Fatal("no HTTP transactions delivered")
	}
}

func TestConfigRegisterFlags(t *testing.T) {
	cases := []struct {
		args []string
		got  func(Config) any
		want any
	}{
		{[]string{"-cores", "6"}, func(c Config) any { return c.Cores }, 6},
		{[]string{"-burst", "8"}, func(c Config) any { return c.BurstSize }, 8},
		{[]string{"-latency"}, func(c Config) any { return c.LatencyTracking }, true},
		{[]string{"-offload"}, func(c Config) any { return c.FlowOffload.Enable }, true},
		{[]string{"-offload-rules", "100"}, func(c Config) any { return c.FlowOffload.MaxFlowRules }, 100},
		{[]string{"-offload-idle", "-1s"}, func(c Config) any { return c.FlowOffload.IdleTimeout }, -time.Second},
		{[]string{"-rebalance"}, func(c Config) any { return c.Rebalance.Enable }, true},
		{[]string{"-rebalance-interval", "250ms"}, func(c Config) any { return c.Rebalance.Interval }, 250 * time.Millisecond},
		{[]string{"-rebalance-moves", "3"}, func(c Config) any { return c.Rebalance.MaxMovesPerRound }, 3},
		{[]string{"-rebalance-hysteresis", "1.5"}, func(c Config) any { return c.Rebalance.Hysteresis }, 1.5},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		cfg.RegisterFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := tc.got(cfg); got != tc.want {
			t.Errorf("%v: field = %v, want %v", tc.args, got, tc.want)
		}
	}

	// An unparsed flag keeps the Config's value, which is also the
	// default -h shows.
	cfg := Config{Cores: 3, BurstSize: 16, Rebalance: RebalanceConfig{Hysteresis: 1.3}}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg.RegisterFlags(fs)
	if err := fs.Parse([]string{"-latency"}); err != nil {
		t.Fatal(err)
	}
	if cfg.Cores != 3 || cfg.BurstSize != 16 || cfg.Rebalance.Hysteresis != 1.3 || !cfg.LatencyTracking {
		t.Errorf("after parsing only -latency: %+v", cfg)
	}
	for name, want := range map[string]string{"cores": "3", "burst": "16", "rebalance-hysteresis": "1.3", "offload": "false"} {
		if got := fs.Lookup(name).DefValue; got != want {
			t.Errorf("-%s default = %q, want %q", name, got, want)
		}
	}
}

// RunOffline's allocations do not grow with the trace: a Packets run
// over 4N frames allocates exactly what a run over N frames does, so
// nothing on the per-frame path (ingest, decode, packet filter,
// delivery, counters) reaches the heap.
func TestRunOfflineAllocsIndependentOfFrames(t *testing.T) {
	tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: 21, Flows: 300, Gbps: 10}), 8000)
	n := len(tr.Frames) / 4
	if n < 1000 {
		t.Fatalf("campus mix produced only %d frames", len(tr.Frames))
	}
	allocs := func(tr *traffic.Trace) float64 {
		cfg := DefaultConfig()
		cfg.Cores = 1
		var delivered uint64
		rt, err := New(cfg, Packets(func(p *Packet) { delivered += uint64(len(p.Data)) }))
		if err != nil {
			t.Fatal(err)
		}
		a := testing.AllocsPerRun(5, func() { rt.RunOffline(struct{ Source }{tr.Replay()}) })
		if delivered == 0 {
			t.Fatal("nothing delivered")
		}
		return a
	}
	if small, large := allocs(tr.Slice(0, n)), allocs(tr.Slice(0, 4*n)); small != large {
		t.Fatalf("RunOffline allocates %v over %d frames but %v over %d", small, n, large, 4*n)
	}
}

// Delivered handshakes and session events stay valid after the run. The
// core hands events out of per-core batches and the parser keeps the
// SNI and cipher suites in its own storage, yet a callback may keep
// every record it is given. Each kept record is checked against a deep
// copy taken in the callback, after Run and again after a second run on
// the same runtime.
func TestSessionRecordsSurviveTheRun(t *testing.T) {
	type kept struct {
		h    *TLSHandshake
		ev   *SessionEvent
		hs   TLSHandshake // deep copy of *h
		evv  SessionEvent
		sess proto.Session
	}
	var mu sync.Mutex
	var all []kept
	cfg := DefaultConfig()
	cfg.Filter = "tls"
	cfg.Cores = 2
	cfg.RingSize = 1 << 16
	rt, err := New(cfg, TLSHandshakes(func(h *TLSHandshake, ev *SessionEvent) {
		hs := *h
		hs.SNI = strings.Clone(h.SNI)
		hs.CipherSuites = slices.Clone(h.CipherSuites)
		mu.Lock()
		all = append(all, kept{h, ev, hs, *ev, *ev.Session})
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		runtime.GC() // a record nothing keeps alive would be reused now
		for i, k := range all {
			if !reflect.DeepEqual(*k.h, k.hs) {
				t.Fatalf("%s: handshake %d changed:\nkept %+v\nwant %+v", when, i, *k.h, k.hs)
			}
			if *k.ev != k.evv || *k.ev.Session != k.sess || k.ev.TLS() != k.h {
				t.Fatalf("%s: event %d changed:\nkept %+v\nwant %+v", when, i, *k.ev, k.evv)
			}
		}
	}
	tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: 17, Flows: 3000, Gbps: 20}), 0)
	rt.Run(tr.Replay())
	first := len(all)
	// Several times the largest record batch (64 events) per core.
	if first < 300 {
		t.Fatalf("Run delivered %d handshakes, want at least 300", first)
	}
	check("after Run")
	rt.RunOffline(tr.Replay())
	if second := len(all) - first; second < first/2 {
		t.Fatalf("second run delivered %d handshakes, the first %d", second, first)
	}
	check("after a second run")
}

// offlineAllocs returns what one warmed single-core RunOffline of tr
// allocates, and how many records sub's callback was handed per run.
func offlineAllocs(t *testing.T, tr *traffic.Trace, filter string, sub func(count func()) *Subscription) (allocs, records float64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Filter = filter
	cfg.Cores = 1
	// The bounds are the production table's: pin the flat backend, which
	// the conntrack_map build tag would otherwise swap for the map oracle.
	cfg.conntrackBackend = conntrack.BackendFlat
	var n int
	rt, err := New(cfg, sub(func() { n++ }))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	allocs = testing.AllocsPerRun(runs, func() { rt.RunOffline(tr.Replay()) })
	// AllocsPerRun makes one warm-up run before the measured ones.
	return allocs, float64(n) / (runs + 1)
}

// A delivered TLS handshake costs its parser, one heap object: the SNI
// and cipher suites live inside the parser and the session event comes
// from a per-core batch.
func TestSessionAllocsPerHandshake(t *testing.T) {
	tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: 5, Flows: 1000, Gbps: 20}), 0)
	allocs, hs := offlineAllocs(t, tr, "tls", func(count func()) *Subscription {
		return TLSHandshakes(func(*TLSHandshake, *SessionEvent) { count() })
	})
	if hs < 100 {
		t.Fatalf("only %v handshakes per run", hs)
	}
	t.Logf("%v allocations per run, %v handshakes: %.2f per handshake", allocs, hs, allocs/hs)
	if limit := 1.25*hs + 32; allocs > limit {
		t.Fatalf("RunOffline allocates %v for %v handshakes, want at most %v", allocs, hs, limit)
	}
}

// Connection records come from the same per-core batches: delivering a
// record costs a fraction of an allocation.
func TestConnRecordAllocsPerConnection(t *testing.T) {
	tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: 5, Flows: 1000, Gbps: 20}), 0)
	allocs, recs := offlineAllocs(t, tr, "tcp", func(count func()) *Subscription {
		return Connections(func(*ConnRecord) { count() })
	})
	if recs < 100 {
		t.Fatalf("only %v records per run", recs)
	}
	t.Logf("%v allocations per run, %v records: %.2f per record", allocs, recs, allocs/recs)
	if limit := 0.1*recs + 32; allocs > limit {
		t.Fatalf("RunOffline allocates %v for %v records, want at most %v", allocs, recs, limit)
	}
}
