package retina_test

// Observability overhead guard: the always-on counters are plain atomic
// adds, so Base (telemetry on, tracing/profiling off) is the shipping
// configuration; Traced additionally samples connection lifecycles and
// times every stage. Compare ns/op between the two to bound the cost of
// turning tracing on, and Base against historical numbers to catch
// counter bloat on the hot path.

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"retina"
	"retina/internal/traffic"
)

func benchObservability(b *testing.B, mut func(*retina.Config)) {
	tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: 11, Flows: 400, Gbps: 20}), 0)
	// Untimed warm-up: the first replay in a fresh process runs tens of
	// percent slower (page faults, branch predictors, CPU governor), and
	// whichever sub-benchmark runs first would eat that — poisoning an
	// off-vs-on comparison. Pay it here, outside the timer.
	{
		cfg := retina.DefaultConfig()
		cfg.Filter = "tls"
		cfg.Cores = 1
		mut(&cfg)
		rt, err := retina.New(cfg, retina.Packets(func(*retina.Packet) {}))
		if err != nil {
			b.Fatal(err)
		}
		rt.RunOffline(tr.Replay())
	}
	b.ReportAllocs()
	b.SetBytes(int64(tr.Bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := retina.DefaultConfig()
		cfg.Filter = "tls"
		cfg.Cores = 1
		mut(&cfg)
		rt, err := retina.New(cfg, retina.Packets(func(*retina.Packet) {}))
		if err != nil {
			b.Fatal(err)
		}
		// Collect the setup garbage (pool, rings, conn table) outside the
		// measured region so GC pauses it triggers don't land inside —
		// they dwarf the per-packet costs this guard exists to compare.
		runtime.GC()
		b.StartTimer()
		rt.RunOffline(tr.Replay())
	}
}

// BenchmarkObservabilityBase is the shipping configuration: counters
// on, tracing and per-stage timing off.
func BenchmarkObservabilityBase(b *testing.B) {
	benchObservability(b, func(*retina.Config) {})
}

// BenchmarkObservabilityTraced turns on connection sampling (1 in 64)
// and per-stage wall-clock timing.
func BenchmarkObservabilityTraced(b *testing.B) {
	benchObservability(b, func(c *retina.Config) {
		c.TraceSample = 64
		c.Profile = true
	})
}

// BenchmarkLatencyTracking is the overhead guard for the DESIGN.md §14
// observability layer: off is the shipping default, on adds RX
// stamping, rx→delivery recording, 1-in-128 stage sampling, duty
// accounting, and the elephant witness. The acceptance bound is <3%
// pkts/s regression — read it off the paired sub-benchmark's
// overhead-% metric, not by comparing off and on ns/op across runs:
// on shared VMs the machine drifts by tens of percent over the seconds
// between sub-benchmarks, which swamps a single-digit effect.
func BenchmarkLatencyTracking(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchObservability(b, func(*retina.Config) {})
	})
	b.Run("on", func(b *testing.B) {
		benchObservability(b, func(c *retina.Config) { c.LatencyTracking = true })
	})
	b.Run("paired", benchLatencyOverheadPaired)
}

// benchLatencyOverheadPaired measures the tracking overhead with
// adjacent off/on replay pairs, alternating the order within each
// iteration so slow machine drift cancels instead of biasing whichever
// config runs later. ns/op covers one off+on pair; the overhead-%
// metric is the acceptance number.
//
// Both runtimes are built ONCE and replayed repeatedly. Building one
// per replay looks cleaner but ruins the measurement: pool construction
// zeroes tens of megabytes, and the background GC that churn triggers
// overlaps the timed replay — profiling showed >60% of CPU in
// allocation/GC, drowning the single-digit effect this guard bounds.
// Long-lived runtimes also keep the live heap large, so the small
// per-replay allocations never trip a mid-replay GC cycle.
func benchLatencyOverheadPaired(b *testing.B) {
	tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: 11, Flows: 400, Gbps: 20}), 0)
	newRT := func(latency bool) *retina.Runtime {
		cfg := retina.DefaultConfig()
		cfg.Filter = "tls"
		cfg.Cores = 1
		cfg.LatencyTracking = latency
		rt, err := retina.New(cfg, retina.Packets(func(*retina.Packet) {}))
		if err != nil {
			b.Fatal(err)
		}
		return rt
	}
	rtOff, rtOn := newRT(false), newRT(true)
	run := func(rt *retina.Runtime) time.Duration {
		// Collect the previous replay's garbage outside the timed window.
		runtime.GC()
		start := time.Now()
		rt.RunOffline(tr.Replay())
		return time.Since(start)
	}
	// Warm-up replays of both runtimes, untimed (first-replay page
	// faults, conntrack table population, predictor warm-up).
	run(rtOff)
	run(rtOn)
	b.ResetTimer()
	ratios := make([]float64, 0, b.N)
	for i := 0; i < b.N; i++ {
		var off, on time.Duration
		if i%2 == 0 {
			off = run(rtOff)
			on = run(rtOn)
		} else {
			on = run(rtOn)
			off = run(rtOff)
		}
		if off > 0 {
			ratios = append(ratios, float64(on)/float64(off))
		}
	}
	b.StopTimer()
	// Median of per-pair ratios, not ratio of sums: a background GC or
	// VM steal landing in a handful of replays would otherwise drag the
	// whole estimate; the median ignores those outlier pairs.
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		b.ReportMetric(100*(ratios[len(ratios)/2]-1), "overhead-%")
	}
}
