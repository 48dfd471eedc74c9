package retina

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"retina/internal/core"
	"retina/internal/telemetry"
	"retina/internal/traffic"
)

// aggConfig mirrors rebalanceConfig: timeouts disabled so connection
// records (and therefore conn-stage aggregation events) are flush- or
// packet-driven and fully deterministic across placements.
func aggConfig(cores int) Config {
	cfg := DefaultConfig()
	cfg.Cores = cores
	cfg.RingSize = 1 << 16
	cfg.PoolSize = 1 << 17
	cfg.EstablishTimeout = -1
	cfg.InactivityTimeout = -1
	return cfg
}

// aggQuerySet is the differential probe: one query per stage/op family,
// windowed so every invariance run exercises window sealing and merge.
var aggQuerySet = []SubscriptionSpec{
	{Name: "pkt-top", Filter: "ipv4", Callback: "packets",
		Aggregate: &AggregateSpec{Op: "topk", Key: "src_ip", Window: "1ms", K: 5}},
	{Name: "pkt-distinct", Filter: "ipv4", Callback: "packets",
		Aggregate: &AggregateSpec{Op: "distinct", Key: "dst_ip", Window: "1ms"}},
	{Name: "conn-bytes", Filter: "ipv4 and tcp", Callback: "connections",
		Aggregate: &AggregateSpec{Op: "sum", Key: "5tuple", Value: "bytes", Window: "1ms"}},
}

// canonicalAggReports reduces reports to the placement-independent
// parts — query identity, per-window aggregates, total event count — as
// a JSON string suitable for byte comparison between runs.
func canonicalAggReports(t *testing.T, reports []AggregateReport) string {
	t.Helper()
	type slim struct {
		Query   string
		Windows interface{}
		Events  uint64
	}
	var out []slim
	for _, r := range reports {
		out = append(out, slim{
			Query:   r.Query.Name + " " + r.Query.Op + "(" + r.Query.Key + ")",
			Windows: r.Windows,
			Events:  r.Totals.Events,
		})
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// runAggOnce builds a dynamic runtime with the standard query set,
// optionally starts a driver goroutine against the live runtime, runs
// the source to completion, and snapshots the merged reports.
func runAggOnce(t *testing.T, cfg Config, src Source, driver func(rt *Runtime, done chan struct{})) ([]AggregateReport, Stats) {
	t.Helper()
	rt, err := NewDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.AddSubscriptionSpecs(aggQuerySet); err != nil {
		t.Fatal(err)
	}
	// A looped source runs until its driver is done, far past what the
	// rings absorb: pace it to the cores.
	if ls, ok := src.(*loopedSource); ok {
		ls.dev = rt.NIC()
	}
	done := make(chan struct{})
	if driver != nil {
		go driver(rt, done)
	} else {
		close(done)
	}
	stats := rt.Run(src)
	<-done
	if stats.Loss() != 0 {
		t.Fatalf("NIC loss %d — differential not comparable", stats.Loss())
	}
	return rt.Aggregates(), stats
}

// TestAggregateBurstInvariance: burst=1 and burst=32 runs over the same
// frames must produce byte-identical aggregation reports — windows are
// keyed by event tick, not batch boundaries.
func TestAggregateBurstInvariance(t *testing.T) {
	tr := campusTrace(31, 400)
	var got [2]string
	for i, burst := range []int{1, 32} {
		cfg := aggConfig(2)
		cfg.BurstSize = burst
		reports, _ := runAggOnce(t, cfg, tr.Replay(), nil)
		if len(reports) != len(aggQuerySet) {
			t.Fatalf("burst=%d: %d reports, want %d", burst, len(reports), len(aggQuerySet))
		}
		got[i] = canonicalAggReports(t, reports)
	}
	if got[0] != got[1] {
		t.Errorf("burst=1 and burst=32 reports differ:\n--- burst=1\n%s\n--- burst=32\n%s", got[0], got[1])
	}
}

// TestAggregateRebalanceInvariance: a run with forced RSS bucket
// migrations must report exactly what the untouched run reports —
// migrated connections neither lose nor double-count events. The
// migrated run loops the workload until the move target is hit
// (checked at pass boundaries), then the baseline replays exactly the
// same pass count so the inputs are byte-identical.
func TestAggregateRebalanceInvariance(t *testing.T) {
	const targetMoves = 30
	tr := campusTrace(37, 400)
	cfg := aggConfig(2)

	var moves, conns atomic.Int64
	src := newLoopedSource(tr, func(int) bool { return moves.Load() < targetMoves })
	migrated, _ := runAggOnce(t, cfg, src, func(rt *Runtime, done chan struct{}) {
		defer close(done)
		dev := rt.NIC()
		plane := rt.ControlPlane()
		for plane.Epoch() == 0 && src.served.Load() == 0 {
			runtime.Gosched()
		}
		step := int64(len(tr.Frames) / 40)
		if step < 1 {
			step = 1
		}
		next, bucket := step, 0
		for moves.Load() < targetMoves {
			if src.served.Load() < next {
				runtime.Gosched()
				continue
			}
			next = src.served.Load() + step
			dst := (int(dev.RetaAssigned(bucket)) + 1) % cfg.Cores
			if res, err := plane.MoveBucket(bucket, dst); err != nil {
				t.Errorf("MoveBucket: %v", err)
			} else {
				moves.Add(1)
				conns.Add(int64(res.Conns))
			}
			bucket = (bucket + 7) % dev.RetaSize()
		}
	})
	if moves.Load() < targetMoves || conns.Load() == 0 {
		t.Fatalf("migration driver idle (%d moves, %d conns) — invariance untested", moves.Load(), conns.Load())
	}

	passes := src.pass
	base, _ := runAggOnce(t, cfg,
		newLoopedSource(tr, func(p int) bool { return p < passes }), nil)

	a, b := canonicalAggReports(t, base), canonicalAggReports(t, migrated)
	if a != b {
		t.Errorf("reports differ after %d migrations (%d conns moved):\n--- static\n%s\n--- migrated\n%s",
			moves.Load(), conns.Load(), a, b)
	}
}

// TestAggregateEpochSwapInvariance: racing subscription add/remove
// cycles (epoch swaps rebuild every core's program set mid-run) must
// not perturb the aggregation reports of the surviving queries.
func TestAggregateEpochSwapInvariance(t *testing.T) {
	const targetSwaps = 8
	tr := campusTrace(41, 400)
	cfg := aggConfig(2)

	var swaps atomic.Int64
	src := newLoopedSource(tr, func(int) bool { return swaps.Load() < targetSwaps })
	swapped, _ := runAggOnce(t, cfg, src, func(rt *Runtime, done chan struct{}) {
		defer close(done)
		plane := rt.ControlPlane()
		for plane.Epoch() == 0 && src.served.Load() == 0 {
			runtime.Gosched()
		}
		step := int64(len(tr.Frames) / 20)
		if step < 1 {
			step = 1
		}
		next := step
		for swaps.Load() < targetSwaps {
			if src.served.Load() < next {
				runtime.Gosched()
				continue
			}
			next = src.served.Load() + step
			name := fmt.Sprintf("racer-%d", swaps.Load())
			if _, err := rt.AddSubscriptionWithAggregate(name, "udp", Packets(func(*Packet) {}),
				&AggregateSpec{Op: "count", Window: "1ms"}); err != nil {
				t.Errorf("racing add: %v", err)
				return
			}
			if err := rt.RemoveSubscription(name); err != nil {
				t.Errorf("racing remove: %v", err)
				return
			}
			swaps.Add(1)
		}
	})
	passes := src.pass
	base, _ := runAggOnce(t, cfg,
		newLoopedSource(tr, func(p int) bool { return p < passes }), nil)
	if swaps.Load() == 0 {
		t.Fatal("no epoch swaps completed — invariance untested")
	}
	// Racer queries may linger in the report list (draining); compare
	// only the three standing queries.
	standing := map[string]bool{}
	for _, s := range aggQuerySet {
		standing[s.Name] = true
	}
	var kept []AggregateReport
	for _, r := range swapped {
		if standing[r.Query.Name] {
			kept = append(kept, r)
		}
	}
	a, b := canonicalAggReports(t, base), canonicalAggReports(t, kept)
	if a != b {
		t.Errorf("reports differ after %d epoch swaps:\n--- clean\n%s\n--- swapped\n%s", swaps.Load(), a, b)
	}
}

// TestAggregatePushDownWitness: a packet-decidable count query as the
// only subscription must register below conntrack — the conntrack stage
// is never invoked while the query still counts every matching packet.
func TestAggregatePushDownWitness(t *testing.T) {
	cfg := aggConfig(2)
	rt, err := NewDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	info, err := rt.AddSubscriptionWithAggregate("dns-count", "udp.port = 53",
		Packets(func(*Packet) {}), &AggregateSpec{Op: "count"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Aggregate == "" {
		t.Fatalf("aggregate missing from SubscriptionInfo: %+v", info)
	}
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 53, Flows: 400, Gbps: 20})
	rt.Run(src)

	var connTrackCalls uint64
	for _, c := range rt.Cores() {
		connTrackCalls += c.StageStats().Invocations(core.StageConnTrack)
	}
	if connTrackCalls != 0 {
		t.Errorf("pushed-down query still drove %d conntrack invocations", connTrackCalls)
	}
	reports := rt.Aggregates()
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	rep := reports[0]
	if rep.Query.Stage != "packet" {
		t.Errorf("stage = %q, want packet", rep.Query.Stage)
	}
	if len(rep.Windows) != 1 || rep.Windows[0].Count == 0 {
		t.Fatalf("whole-run window missing or empty: %+v", rep.Windows)
	}
	if !rep.Windows[0].Complete {
		t.Error("whole-run window not complete after Run")
	}
}

// TestAggregateNICStageMatchesPacketStage: with hardware filtering on,
// a NIC-stage scalar count over an exactly-expressible filter must
// agree with the same query evaluated at the packet stage (no ring
// loss, so every tapped frame is also delivered).
func TestAggregateNICStageMatchesPacketStage(t *testing.T) {
	cfg := aggConfig(2)
	cfg.HardwareFilter = true
	rt, err := NewDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const flt = "udp.port = 53"
	if _, err := rt.AddSubscriptionWithAggregate("nic-dns", flt,
		Packets(func(*Packet) {}), &AggregateSpec{Op: "count", Stage: "nic"}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddSubscriptionWithAggregate("sw-dns", flt,
		Packets(func(*Packet) {}), &AggregateSpec{Op: "count"}); err != nil {
		t.Fatal(err)
	}
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 59, Flows: 400, Gbps: 20})
	stats := rt.Run(src)
	if stats.Loss() != 0 {
		t.Fatalf("NIC loss %d — counts not comparable", stats.Loss())
	}
	counts := map[string]uint64{}
	for _, rep := range rt.Aggregates() {
		if len(rep.Windows) != 1 {
			t.Fatalf("%s: %d windows, want 1", rep.Query.Name, len(rep.Windows))
		}
		counts[rep.Query.Name] = rep.Windows[0].Count
	}
	if counts["nic-dns"] == 0 {
		t.Fatal("NIC-stage query counted nothing")
	}
	if counts["nic-dns"] != counts["sw-dns"] {
		t.Errorf("NIC-stage count %d != packet-stage count %d", counts["nic-dns"], counts["sw-dns"])
	}
}

// TestAggregateExposition runs the standard query set and asserts the
// retina_aggregate_* families pass the strict in-repo Prometheus
// parser, carry the {query,id,stage} labels, and agree with the merged
// reports' own accounting.
func TestAggregateExposition(t *testing.T) {
	cfg := aggConfig(2)
	gen := traffic.NewCampusMix(traffic.CampusConfig{Seed: 13, Flows: 200, Gbps: 100})
	reports, _ := runAggOnce(t, cfg, gen, nil)

	// runAggOnce discards the runtime, so rebuild the exposition path the
	// way TestLatencyTrackingExposition does: fresh runtime, same specs.
	rt, err := NewDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.AddSubscriptionSpecs(aggQuerySet); err != nil {
		t.Fatal(err)
	}
	rt.Run(traffic.NewCampusMix(traffic.CampusConfig{Seed: 13, Flows: 200, Gbps: 100}))

	var b strings.Builder
	if err := rt.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseExposition([]byte(b.String()))
	if err != nil {
		t.Fatalf("exposition failed the strict parser: %v\n%s", err, b.String())
	}
	byName := map[string][]telemetry.ParsedSample{}
	for _, s := range samples {
		byName[s.Name] = append(byName[s.Name], s)
	}
	for _, want := range []string{
		"retina_aggregate_events_total",
		"retina_aggregate_windows_sealed_total",
		"retina_aggregate_late_events_total",
		"retina_aggregate_group_overflow_total",
		"retina_aggregate_keys_tracked",
		"retina_aggregate_last_window_seq",
	} {
		got := byName[want]
		if len(got) != len(aggQuerySet) {
			t.Fatalf("series %s: %d samples, want one per query (%d)", want, len(got), len(aggQuerySet))
		}
		for _, s := range got {
			if s.Label("query") == "" || s.Label("id") == "" || s.Label("stage") == "" {
				t.Errorf("series %s sample missing query/id/stage labels: %+v", want, s)
			}
		}
	}
	// events_total must match the merged report's Totals.Events for the
	// same query name (the workload is deterministic, so the replayed
	// runtime saw identical traffic).
	wantEvents := map[string]uint64{}
	for _, r := range reports {
		wantEvents[r.Query.Name] = r.Totals.Events
	}
	for _, s := range byName["retina_aggregate_events_total"] {
		name := s.Label("query")
		if uint64(s.Value) != wantEvents[name] {
			t.Errorf("events_total{query=%q} = %v, want %d", name, s.Value, wantEvents[name])
		}
		if s.Value == 0 {
			t.Errorf("events_total{query=%q} is zero — workload never hit the query", name)
		}
	}
}

// BenchmarkAggregate pairs a no-aggregation baseline against a topk
// query over the same workload; the acceptance floor is topk ≥ 80% of
// baseline throughput.
func BenchmarkAggregate(b *testing.B) {
	tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: 71, Flows: 300, Gbps: 20}), 0)
	run := func(b *testing.B, agg *AggregateSpec) {
		b.ReportAllocs()
		var pkts int
		for i := 0; i < b.N; i++ {
			cfg := aggConfig(2)
			rt, err := NewDynamic(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rt.AddSubscriptionWithAggregate("bench", "ipv4", Packets(func(*Packet) {}), agg); err != nil {
				b.Fatal(err)
			}
			stats := rt.Run(tr.Replay())
			pkts += int(stats.NIC.Delivered)
		}
		b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/s")
	}
	b.Run("no-agg", func(b *testing.B) { run(b, nil) })
	b.Run("topk", func(b *testing.B) {
		run(b, &AggregateSpec{Op: "topk", Key: "src_ip", Window: "1ms", K: 10})
	})
}
