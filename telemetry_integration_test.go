package retina

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"retina/internal/telemetry"
	"retina/internal/traffic"
)

// writeWorkloadPcap materializes a deterministic campus-mix workload as
// a pcap file so runs are exactly reproducible.
func writeWorkloadPcap(t *testing.T, seed int64, flows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "workload.pcap")
	gen := traffic.NewCampusMix(traffic.CampusConfig{Seed: seed, Flows: flows, Gbps: 20})
	if _, err := traffic.WriteSourceToPcap(gen, path); err != nil {
		t.Fatal(err)
	}
	return path
}

func openWorkload(t *testing.T, path string) *traffic.PcapReader {
	t.Helper()
	r, err := traffic.OpenPcap(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestPacketConservation asserts the §5.3 invariant on a deterministic
// pcap workload: every frame offered to the port is either delivered to
// the callback or accounted under exactly one drop reason (after the
// final flush nothing remains buffered).
func TestPacketConservation(t *testing.T) {
	path := writeWorkloadPcap(t, 1234, 600)
	for _, tc := range []struct {
		name   string
		filter string
		cores  int
	}{
		{"all_tcp", "ipv4 and tcp", 2},
		{"tls_only", "tls", 4},
		{"everything", "", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Filter = tc.filter
			cfg.Cores = tc.cores
			rt, err := New(cfg, Packets(func(*Packet) {}))
			if err != nil {
				t.Fatal(err)
			}
			stats := rt.Run(openWorkload(t, path))

			assertFrameConservation(t, rt, stats)
			for i, cs := range stats.Cores {
				if cs.Tracked != 0 {
					t.Errorf("core %d: a packet subscription tracked %d frames", i, cs.Tracked)
				}
			}
		})
	}
}

// TestServeMetricsExposition scrapes a live endpoint and asserts the
// output is well-formed Prometheus text carrying the stage, drop, and
// subscription counters.
func TestServeMetricsExposition(t *testing.T) {
	path := writeWorkloadPcap(t, 77, 200)
	cfg := DefaultConfig()
	cfg.Filter = "tls"
	cfg.Cores = 2
	cfg.Profile = true
	cfg.TraceSample = 4
	rt, err := New(cfg, Sessions(func(*SessionEvent) {}))
	if err != nil {
		t.Fatal(err)
	}
	stats := rt.Run(openWorkload(t, path))

	srv, err := rt.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if err := telemetry.ValidateExposition(body); err != nil {
		t.Fatalf("exposition is not valid Prometheus text: %v\n%s", err, body)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE retina_rx_frames_total counter",
		`retina_drops_total{reason="sw_filter"}`,
		`retina_drops_total{reason="conn_rejected"}`,
		`retina_core_processed_total{core="0"}`,
		`retina_core_processed_total{core="1"}`,
		`retina_delivered_total{core="0",kind="sessions"}`,
		`retina_subscription_delivered_total{subscription="session"}`,
		`retina_stage_invocations_total{stage="SW Packet Filter"}`,
		`retina_stage_nanos_total{stage="App-layer Parsing"}`,
		`retina_conns_expired_total{core="0",reason="termination"}`,
		`retina_conntrack_load_factor{core="0"}`,
		`retina_conntrack_probe_len{core="1"}`,
		`retina_conntrack_rehashes_total{core="0"}`,
		`retina_conntrack_slab_bytes{core="0"}`,
		`retina_proto_failures_total{proto=`,
		"retina_mbuf_pool_free",
		`retina_trace_spans_total{state="started"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The scraped rx counter must agree with the run's stats.
	wantLine := fmt.Sprintf("retina_rx_frames_total %d", stats.NIC.RxFrames)
	if !strings.Contains(out, wantLine) {
		t.Errorf("exposition missing %q", wantLine)
	}

	// /traces serves a JSON array of spans.
	resp, err = http.Get(fmt.Sprintf("http://%s/traces", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var spans []map[string]any
	if err := json.Unmarshal(tbody, &spans); err != nil {
		t.Fatalf("/traces is not a JSON array: %v\n%s", err, tbody)
	}
	if len(spans) == 0 {
		t.Fatal("/traces returned no spans despite TraceSample=4")
	}

	// /debug/vars carries the expvar-published registry.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/vars", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	vbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(vbody), "retina_rx_frames_total") {
		t.Error("/debug/vars missing published registry")
	}
}

// TestConnTraceLifecycle checks sampled spans record the ordered
// lifecycle the tentpole specifies.
func TestConnTraceLifecycle(t *testing.T) {
	path := writeWorkloadPcap(t, 9, 120)
	cfg := DefaultConfig()
	cfg.Filter = "tls"
	cfg.Cores = 1
	cfg.TraceSample = 1
	rt, err := New(cfg, Connections(func(*ConnRecord) {}))
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(openWorkload(t, path))

	traces := rt.Tracer().Traces()
	if len(traces) == 0 {
		t.Fatal("TraceSample=1 produced no spans")
	}
	var identified, expired int
	for _, tr := range traces {
		if len(tr.Events) == 0 || tr.Events[0].Name != "first_packet" {
			t.Fatalf("span does not start with first_packet: %+v", tr.Events)
		}
		for _, ev := range tr.Events {
			switch ev.Name {
			case "identified":
				identified++
			case "expire":
				expired++
			}
		}
		if tr.Tuple == "" {
			t.Fatal("span missing tuple")
		}
	}
	if identified == 0 {
		t.Error("no span recorded an identified event (TLS flows present)")
	}
	if expired == 0 {
		t.Error("no span recorded an expire event (run ends with a flush)")
	}
}

// TestMonitorStopBeforeFirstTick verifies stopping a monitor before its
// first tick neither blocks nor invokes the callback.
func TestMonitorStopBeforeFirstTick(t *testing.T) {
	cfg := DefaultConfig()
	rt, err := New(cfg, Packets(func(*Packet) {}))
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	stop := rt.Monitor(time.Hour, func(LiveStats) { fired.Add(1) })
	done := make(chan struct{})
	go func() { stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stop blocked")
	}
	if fired.Load() != 0 {
		t.Fatalf("callback fired %d times before first tick", fired.Load())
	}
}

// TestMonitorStopAfterRunReturns verifies the monitor keeps snapshotting
// safely after Run completes and that stop is idempotent.
func TestMonitorStopAfterRunReturns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = "ipv4 and tcp"
	cfg.Cores = 2
	rt, err := New(cfg, Packets(func(*Packet) {}))
	if err != nil {
		t.Fatal(err)
	}
	var snaps atomic.Int64
	stop := rt.Monitor(time.Millisecond, func(s LiveStats) {
		snaps.Add(1)
		_ = s.Drops
		_ = s.MemoryEstimate
	})
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 21, Flows: 500, Gbps: 20})
	rt.Run(src)
	// Let it tick at least once after Run returned.
	deadline := time.Now().Add(5 * time.Second)
	after := snaps.Load()
	for snaps.Load() <= after && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent: second call must not panic or deadlock
	if snaps.Load() == 0 {
		t.Fatal("monitor never fired")
	}
}

// TestMonitorConcurrentWithRun hammers LiveStats and the exposition
// writer while cores are processing; the race detector (CI runs this
// package with -race) is the assertion.
func TestMonitorConcurrentWithRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = "tls"
	cfg.Cores = 4
	cfg.TraceSample = 8
	rt, err := New(cfg, Sessions(func(*SessionEvent) {}))
	if err != nil {
		t.Fatal(err)
	}
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stopScrape:
				return
			default:
				_ = rt.LiveStats()
				var sink strings.Builder
				_ = rt.Registry().WritePrometheus(&sink)
			}
		}
	}()
	stop := rt.LogMonitor(io.Discard, time.Millisecond)
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 33, Flows: 1200, Gbps: 20})
	rt.Run(src)
	stop()
	close(stopScrape)
	<-scrapeDone
}

// TestProtoFailureSeries checks retina_proto_failures_total lists its
// protocols in name order, and that a protocol entering the parser set
// after construction gets series that read the cores' counts.
func TestProtoFailureSeries(t *testing.T) {
	protoOrder := func(rt *Runtime) []string {
		var order []string
		for _, s := range rt.Registry().Samples() {
			if s.Name == "retina_proto_failures_total" && s.Label("kind") == "probe_reject" {
				order = append(order, s.Label("proto"))
			}
		}
		return order
	}

	cfg := DefaultConfig()
	cfg.Filter = "tls or http or dns or ssh or quic"
	rt, err := New(cfg, Sessions(func(*SessionEvent) {}))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(protoOrder(rt), " "), "dns http quic ssh tls"; got != want {
		t.Errorf("proto series order %q, want %q", got, want)
	}

	cfg = DefaultConfig()
	cfg.Cores = 2
	rt, err = NewDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Scrape throughout: the protocol series register while the
	// exposition is being read.
	done := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
				_ = rt.Registry().WritePrometheus(io.Discard)
			}
		}
	}()
	defer func() {
		close(done)
		<-scraped
	}()
	if _, err := rt.AddSubscription("t", "tls or http", Sessions(func(*SessionEvent) {})); err != nil {
		t.Fatal(err)
	}
	rt.Run(traffic.NewCampusMix(traffic.CampusConfig{Seed: 1, Flows: 300, Gbps: 20}))
	if got, want := strings.Join(protoOrder(rt), " "), "http tls"; got != want {
		t.Fatalf("proto series after AddSubscription %q, want %q", got, want)
	}
	for _, s := range rt.Registry().Samples() {
		if s.Name != "retina_proto_failures_total" {
			continue
		}
		proto := s.Label("proto")
		var want uint64
		for _, c := range rt.Cores() {
			ps := c.ProtoStats()[proto]
			if s.Label("kind") == "probe_reject" {
				want += ps.ProbeRejects
			} else {
				want += ps.ParseErrors
			}
		}
		if uint64(s.Value) != want {
			t.Errorf("retina_proto_failures_total{proto=%q,kind=%q} = %v, cores counted %d", proto, s.Label("kind"), s.Value, want)
		}
		if s.Label("kind") == "probe_reject" && want == 0 {
			t.Errorf("no %s probe rejects over a campus run; the check needs some", proto)
		}
	}
}
