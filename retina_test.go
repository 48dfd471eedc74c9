package retina

import (
	"flag"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"retina/internal/conntrack"
	"retina/internal/filter"
	"retina/internal/layers"
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

// TestRunTwice pins Run's re-entrance: the first Run closes the device's
// rings, and the second must reopen them before its cores start, or a
// core finding its ring closed and empty exits while the producer keeps
// enqueueing frames nobody processes. After each call every frame the
// device delivered was processed by a core and every mbuf is back in
// the pool.
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
		var processed uint64
		for _, cs := range st.Cores {
			processed += cs.Processed
		}
		if st.NIC.Delivered == 0 {
			t.Fatalf("run %d: device delivered nothing; test is vacuous", i+1)
		}
		if processed != st.NIC.Delivered {
			t.Fatalf("run %d: cores processed %d of %d delivered frames", i+1, processed, st.NIC.Delivered)
		}
		if got := rt.Pool().InUse(); got != 0 {
			t.Fatalf("run %d: %d mbufs still out of the pool", i+1, got)
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
	rt.Run(src)

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
	var swDrops uint64
	for _, cs := range stats.Cores {
		swDrops += cs.FilterDropped
	}
	if swDrops != 0 {
		t.Fatalf("software dropped %d packets despite exact hardware rule", swDrops)
	}
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
			rt.RunOffline(struct{ Source }{(&traffic.Trace{Frames: tc.frames, Ticks: make([]uint64, len(tc.frames))}).Replay()})
			drops := rt.DropBreakdown()
			if delivered != 1 || drops[tc.reason] != 1 {
				t.Fatalf("delivered %d, %s %d; want 1 each (breakdown %v)", delivered, tc.reason, drops[tc.reason], drops)
			}
			var dropped uint64
			for _, reason := range telemetry.FrameDropReasons() {
				dropped += drops[reason]
			}
			if got := delivered + dropped; got != uint64(len(tc.frames)) {
				t.Fatalf("delivered %d + drops %d != %d frames offered (breakdown %v)", delivered, dropped, len(tc.frames), drops)
			}
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
