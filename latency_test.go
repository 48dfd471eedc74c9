package retina

import (
	"strings"
	"testing"

	"retina/internal/core"
	"retina/internal/telemetry"
	"retina/internal/traffic"
)

// TestLatencyTrackingExposition runs a latency-tracked workload and
// asserts every new observability series appears in the exposition and
// the whole payload passes the strict in-repo parser.
func TestLatencyTrackingExposition(t *testing.T) {
	path := writeWorkloadPcap(t, 4242, 400)
	cfg := DefaultConfig()
	// A session-protocol filter keeps packet verdicts pending, so frames
	// take the stateful path: conntrack and parsing stages run, the
	// elephant witness sees flows, and deliveries go through the
	// pre-verdict buffer — the full surface of the observability layer.
	cfg.Filter = "tls"
	cfg.Cores = 2
	cfg.LatencyTracking = true
	cfg.FlowOffload.Enable = true // partition gauges need the offload manager
	rt, err := New(cfg, Packets(func(*Packet) {}))
	if err != nil {
		t.Fatal(err)
	}
	stats := rt.Run(openWorkload(t, path))
	if stats.NIC.RxFrames == 0 {
		t.Fatal("workload produced no traffic")
	}

	var b strings.Builder
	if err := rt.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := []byte(b.String())
	samples, err := telemetry.ParseExposition(body)
	if err != nil {
		t.Fatalf("exposition failed the strict parser: %v\n%s", err, body)
	}

	byName := map[string][]telemetry.ParsedSample{}
	for _, s := range samples {
		byName[s.Name] = append(byName[s.Name], s)
	}
	for _, want := range []string{
		"retina_latency_rx_to_delivery_nanoseconds_bucket",
		"retina_latency_rx_to_delivery_nanoseconds_sum",
		"retina_latency_rx_to_delivery_nanoseconds_count",
		"retina_latency_stage_nanoseconds_bucket",
		"retina_latency_stage_nanoseconds_count",
		"retina_core_busy_nanos_total",
		"retina_core_wait_nanos_total",
		"retina_core_bursts_total",
		"retina_core_wakeups_total",
		"retina_core_busy_fraction",
		"retina_core_ring_occupancy_mean",
		"retina_core_elephant_share",
		"retina_ring_occupancy",
		"retina_ring_high_water",
		"retina_rss_skew",
		"retina_offload_partition_used",
		"retina_offload_partition_capacity",
		"retina_offload_hit_ratio",
	} {
		if len(byName[want]) == 0 {
			t.Errorf("exposition missing series %s", want)
		}
	}

	// The rx→delivery _count summed across cores must equal what the
	// runtime's own aggregate reports.
	var expCount float64
	for _, s := range byName["retina_latency_rx_to_delivery_nanoseconds_count"] {
		expCount += s.Value
	}
	sum := rt.LatencySummary()
	if uint64(expCount) != sum.Count {
		t.Errorf("exposition rx count %v != LatencySummary count %d", expCount, sum.Count)
	}
	if sum.Count == 0 {
		t.Error("latency tracking recorded nothing")
	}
	if sum.P50Ns <= 0 || sum.P99Ns < sum.P50Ns || sum.P999Ns < sum.P99Ns {
		t.Errorf("percentiles not monotone: %+v", sum)
	}

	// Stage histograms must carry every pipeline stage that ran, with the
	// slug label values.
	stages := map[string]bool{}
	for _, s := range byName["retina_latency_stage_nanoseconds_count"] {
		if s.Value > 0 {
			stages[s.Label("stage")] = true
		}
	}
	for _, st := range []core.Stage{core.StageSWFilter, core.StageConnTrack} {
		if !stages[st.Slug()] {
			t.Errorf("no stage latency samples for %q (got %v)", st.Slug(), stages)
		}
	}

	// High-water marks are producer-maintained and must be positive after
	// a run that delivered frames.
	var hw float64
	for _, s := range byName["retina_ring_high_water"] {
		hw += s.Value
	}
	if hw <= 0 {
		t.Error("ring high-water marks all zero after traffic")
	}

	// The /status report carries the observability section.
	st := rt.Status()
	if st.RSSSkew <= 0 {
		t.Errorf("status rss_skew = %v, want > 0", st.RSSSkew)
	}
	if st.Observability == nil {
		t.Fatal("status missing observability section with LatencyTracking on")
	}
	if st.Observability.Latency.Count != sum.Count {
		t.Errorf("status latency count %d != %d", st.Observability.Latency.Count, sum.Count)
	}
	if len(st.Observability.Cores) != cfg.Cores {
		t.Errorf("status has %d core duty entries, want %d", len(st.Observability.Cores), cfg.Cores)
	}
}

// TestConservationWithLatencyTracking re-runs the §5.3 packet
// conservation invariant with the observability layer enabled: RX
// stamping and latency recording must not perturb any disposition
// counter.
func TestConservationWithLatencyTracking(t *testing.T) {
	path := writeWorkloadPcap(t, 1234, 600)
	for _, tc := range []struct {
		name   string
		filter string
		cores  int
	}{
		{"all_tcp", "ipv4 and tcp", 2},
		{"everything", "", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Filter = tc.filter
			cfg.Cores = tc.cores
			cfg.LatencyTracking = true
			rt, err := New(cfg, Packets(func(*Packet) {}))
			if err != nil {
				t.Fatal(err)
			}
			stats := rt.Run(openWorkload(t, path))

			assertFrameConservation(t, rt, stats)
			// Every delivered packet must have been observed into the
			// rx→delivery histogram.
			var delivered uint64
			for _, cs := range stats.Cores {
				delivered += cs.DeliveredPackets
			}
			if sum := rt.LatencySummary(); sum.Count != delivered {
				t.Fatalf("rx→delivery count %d != delivered %d", sum.Count, delivered)
			}
		})
	}
}

// runLatencyDifferential is runDifferential with latency tracking on,
// returning the runtime for histogram inspection.
func runLatencyDifferential(t *testing.T, burst int) *Runtime {
	t.Helper()
	cfg := DefaultConfig()
	// "tls" keeps packet verdicts pending so deliveries flow through the
	// stateful pipeline and the pre-verdict packet buffer: both the
	// rx→delivery and the per-stage histograms get real traffic.
	cfg.Filter = "tls"
	cfg.Cores = 2
	cfg.RingSize = 1 << 16
	cfg.PoolSize = 1 << 17
	cfg.BurstSize = burst
	cfg.LatencyTracking = true
	rt, err := New(cfg, Packets(func(*Packet) {}))
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 7, Flows: 500, Gbps: 20})
	if st := rt.Run(src); st.Loss() != 0 {
		t.Fatalf("burst=%d: unexpected NIC loss %d", burst, st.Loss())
	}
	return rt
}

// TestLatencyDifferentialBurstCounts pins the burst-invariance of the
// observability layer: burst=1 (one-packet bursts) and burst=32
// record exactly the same number of rx→delivery observations and the
// same number of per-stage samples, because the 1-in-128 sampling
// decision depends only on invocation counts, never on batching.
func TestLatencyDifferentialBurstCounts(t *testing.T) {
	legacy := runLatencyDifferential(t, 1)
	burst := runLatencyDifferential(t, 32)

	for i := range legacy.Cores() {
		ll, bl := legacy.Cores()[i].Latency(), burst.Cores()[i].Latency()
		if lc, bc := ll.RxHist().Count(), bl.RxHist().Count(); lc != bc {
			t.Errorf("core %d: rx→delivery counts diverge: burst=1 %d, burst=32 %d", i, lc, bc)
		}
		if ll.RxHist().Count() == 0 {
			t.Errorf("core %d recorded no rx→delivery latencies", i)
		}
		for _, st := range core.Stages() {
			if lc, bc := ll.StageHist(st).Count(), bl.StageHist(st).Count(); lc != bc {
				t.Errorf("core %d stage %s: sample counts diverge: burst=1 %d, burst=32 %d",
					i, st.Slug(), lc, bc)
			}
		}
	}
}

// TestRSSSkewElephant pins the skew gauge high when a single elephant
// flow dominates: one five-tuple hashes to one core, so max/mean must
// exceed 1.5 on a 4-core runtime, and the busiest core's witness must
// name the elephant.
func TestRSSSkewElephant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = "ipv4 and tcp"
	cfg.Cores = 4
	cfg.LatencyTracking = true
	// Connection-level subscription: every packet takes the stateful
	// path, so the per-core elephant witness sees the flow.
	rt, err := New(cfg, Connections(func(*ConnRecord) {}))
	if err != nil {
		t.Fatal(err)
	}
	// Two flows over four cores: the best possible spread still leaves
	// max/mean ≥ 2.
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 5, Flows: 2, Gbps: 20})
	rt.Run(src)

	if skew := rt.RSSSkew(); skew <= 1.5 {
		t.Fatalf("single-elephant skew = %v, want > 1.5", skew)
	}
	// The busiest core's witness should be carrying a top flow covering
	// most of its packets.
	var busiest *core.Core
	var maxP uint64
	for _, c := range rt.Cores() {
		if p := c.Stats().Processed; p > maxP {
			maxP, busiest = p, c
		}
	}
	if busiest == nil || maxP == 0 {
		t.Fatal("no core processed traffic")
	}
	if share := busiest.Witness().TopShare(maxP); share < 0.4 {
		t.Fatalf("busiest core's elephant share = %v, want ≥ 0.4", share)
	}
}

// TestRSSSkewUniform pins the gauge near 1.0 when many flows spread
// evenly.
func TestRSSSkewUniform(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = "ipv4 and tcp"
	cfg.Cores = 4
	rt, err := New(cfg, Packets(func(*Packet) {}))
	if err != nil {
		t.Fatal(err)
	}
	// HTTPS requests are uniform (one 256 KB response each), so per-core
	// packet share converges to even; the campus mix would not do — its
	// built-in elephants skew genuinely.
	src := traffic.NewHTTPSWorkload(6, 2000, 128, 20, "uniform.example.com")
	rt.Run(src)

	if skew := rt.RSSSkew(); skew >= 1.35 {
		t.Fatalf("uniform-workload skew = %v, want ≈ 1.0 (< 1.35)", skew)
	}
}
