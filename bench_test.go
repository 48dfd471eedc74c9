package retina_test

// Benchmarks regenerating each of the paper's tables and figures at
// reduced scale, plus ablation benches for the design choices DESIGN.md
// calls out. The retina-bench CLI runs the full-scale versions; these
// exist so `go test -bench=.` exercises every experiment pipeline and
// reports the relevant throughput/allocation numbers.

import (
	"fmt"
	"math/rand"
	"retina"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"retina/internal/baseline"
	"retina/internal/experiments"
	"retina/internal/metrics"
	"retina/internal/traffic"
)

// benchPipeline measures end-to-end single-core processing of a
// pre-generated workload under a filter and subscription.
func benchPipeline(b *testing.B, filter string, mkSub func(*atomic.Uint64) *retina.Subscription, src retina.Source) {
	b.Helper()
	tr := traffic.Collect(src, 0)
	var delivered atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := retina.DefaultConfig()
		cfg.Filter = filter
		cfg.Cores = 1
		cfg.PoolSize = 8192
		rt, err := retina.New(cfg, mkSub(&delivered))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rt.RunOffline(tr.Replay())
	}
	b.SetBytes(int64(tr.Bytes))
	b.ReportMetric(float64(delivered.Load())/float64(b.N), "deliveries/op")
}

// --- Figure 5: zero-loss throughput by subscription type ---

func BenchmarkFig5aRawPackets(b *testing.B) {
	benchPipeline(b, "",
		func(d *atomic.Uint64) *retina.Subscription {
			return retina.Packets(func(*retina.Packet) { d.Add(1) })
		},
		traffic.NewCampusMix(traffic.CampusConfig{Seed: 1, Flows: 400, Gbps: 40}))
}

func BenchmarkFig5bConnRecords(b *testing.B) {
	benchPipeline(b, "ipv4 and tcp",
		func(d *atomic.Uint64) *retina.Subscription {
			return retina.Connections(func(*retina.ConnRecord) { d.Add(1) })
		},
		traffic.NewCampusMix(traffic.CampusConfig{Seed: 1, Flows: 400, Gbps: 40}))
}

func BenchmarkFig5cTLSHandshakes(b *testing.B) {
	benchPipeline(b, "tls",
		func(d *atomic.Uint64) *retina.Subscription {
			return retina.TLSHandshakes(func(*retina.TLSHandshake, *retina.SessionEvent) { d.Add(1) })
		},
		traffic.NewCampusMix(traffic.CampusConfig{Seed: 1, Flows: 400, Gbps: 40}))
}

func BenchmarkFig5CallbackCost1K(b *testing.B) {
	benchPipeline(b, "ipv4 and tcp",
		func(d *atomic.Uint64) *retina.Subscription {
			return retina.Connections(func(*retina.ConnRecord) { metrics.SpinCycles(1000); d.Add(1) })
		},
		traffic.NewCampusMix(traffic.CampusConfig{Seed: 1, Flows: 400, Gbps: 40}))
}

// --- Figure 6: Retina vs eager monitors, single core ---

func fig6Workload() *traffic.Trace {
	return traffic.Collect(traffic.NewHTTPSWorkload(1, 60, 32, 5, "bench.example.com"), 0)
}

func BenchmarkFig6Retina(b *testing.B) {
	tr := fig6Workload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := retina.DefaultConfig()
		cfg.Filter = `tls.sni matches 'bench'`
		cfg.Cores = 1
		cfg.PoolSize = 8192
		rt, _ := retina.New(cfg, retina.Connections(func(*retina.ConnRecord) {}))
		b.StartTimer()
		rt.RunOffline(tr.Replay())
	}
	b.SetBytes(int64(tr.Bytes))
}

func benchFig6Baseline(b *testing.B, sys baseline.System) {
	tr := fig6Workload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, _ := baseline.New(sys, "bench")
		b.StartTimer()
		for j, f := range tr.Frames {
			m.Process(f, tr.Ticks[j])
		}
	}
	b.SetBytes(int64(tr.Bytes))
}

func BenchmarkFig6ZeekLike(b *testing.B)     { benchFig6Baseline(b, baseline.ZeekLike) }
func BenchmarkFig6SnortLike(b *testing.B)    { benchFig6Baseline(b, baseline.SnortLike) }
func BenchmarkFig6SuricataLike(b *testing.B) { benchFig6Baseline(b, baseline.SuricataLike) }

// --- Figure 7: multi-layer filtering workload ---

func BenchmarkFig7NetflixFilter(b *testing.B) {
	benchPipeline(b, experiments.Fig7Filter,
		func(d *atomic.Uint64) *retina.Subscription {
			return retina.Connections(func(*retina.ConnRecord) { d.Add(1) })
		},
		traffic.NewCampusMix(traffic.CampusConfig{Seed: 1, Flows: 400, Gbps: 40}))
}

// --- Figure 8: state management under timeout schemes ---

func benchFig8(b *testing.B, est, inact time.Duration) {
	tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: 1, Flows: 3000, Gbps: 2, Concurrent: 192}), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := retina.DefaultConfig()
		cfg.Filter = "ipv4 and tcp"
		cfg.Cores = 1
		cfg.PoolSize = 8192
		cfg.EstablishTimeout = est
		cfg.InactivityTimeout = inact
		rt, _ := retina.New(cfg, retina.Connections(func(*retina.ConnRecord) {}))
		b.StartTimer()
		rt.RunOffline(tr.Replay())
		b.StopTimer()
		b.ReportMetric(float64(rt.Cores()[0].Table().Len()), "live-conns")
		b.StartTimer()
	}
	b.SetBytes(int64(tr.Bytes))
}

func BenchmarkFig8DefaultTimeouts(b *testing.B) { benchFig8(b, 500*time.Millisecond, 30*time.Second) }
func BenchmarkFig8InactivityOnly(b *testing.B)  { benchFig8(b, -1, 30*time.Second) }
func BenchmarkFig8NoTimeouts(b *testing.B)      { benchFig8(b, -1, -1) }

// --- Figure 9: video feature extraction ---

func BenchmarkFig9VideoFeatures(b *testing.B) {
	benchPipeline(b, experiments.Fig9Filters["Netflix"],
		func(d *atomic.Uint64) *retina.Subscription {
			return retina.Connections(func(*retina.ConnRecord) { d.Add(1) })
		},
		traffic.NewVideoWorkload(1, 15, traffic.ServiceNetflix, 40))
}

// --- Figure 12: compiled vs interpreted filters ---

func benchFig12(b *testing.B, interpreted bool) {
	tr := traffic.Collect(traffic.NewStratosphereLike(traffic.Norm7, 300), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := retina.DefaultConfig()
		cfg.Filter = `tls.cipher ~ 'AES_128_GCM'`
		cfg.Cores = 1
		cfg.PoolSize = 8192
		cfg.Interpreted = interpreted
		rt, _ := retina.New(cfg, retina.TLSHandshakes(func(*retina.TLSHandshake, *retina.SessionEvent) {}))
		b.StartTimer()
		rt.RunOffline(tr.Replay())
	}
	b.SetBytes(int64(tr.Bytes))
}

func BenchmarkFig12Compiled(b *testing.B)    { benchFig12(b, false) }
func BenchmarkFig12Interpreted(b *testing.B) { benchFig12(b, true) }

// --- Table 2 / Figure 13: traffic characterization app ---

func BenchmarkTable2Characterization(b *testing.B) {
	benchPipeline(b, "",
		func(d *atomic.Uint64) *retina.Subscription {
			return retina.Packets(func(p *retina.Packet) { d.Add(1) })
		},
		traffic.NewCampusMix(traffic.CampusConfig{Seed: 1, Flows: 400, Gbps: 40}))
}

// --- Burst sweep: batching gain across the datapath ---

// burstSweepWorkload is a small-segment TCP mix: with near-minimum
// frames the fixed per-packet costs (ring ops, pool locks, counter
// atomics) dominate over payload copying, which is what the burst
// refactor amortizes — the same reason DPDK forwarding is benchmarked
// at 64B. Packet *rates* at a given link speed are also highest there.
func burstSweepWorkload() retina.Source {
	return traffic.NewMixer(1, 600, 64, 40, func(rng *rand.Rand, id int) *traffic.FlowSpec {
		return &traffic.FlowSpec{
			Kind:         traffic.KindPlainTCP,
			CliIP:        [4]byte{10, 1, byte(id >> 8), byte(id)},
			SrvIP:        [4]byte{93, 184, byte(id >> 8), byte(id)},
			CliPort:      uint16(20000 + rng.Intn(40000)),
			SrvPort:      443,
			DataSegments: 30,
			SegmentBytes: 16,
			DownFraction: 0.5,
			Teardown:     true,
		}
	})
}

// benchBurstSize measures the full online path (NIC staging → SPSC ring
// → bulk mbuf alloc → Core.ProcessBurst) at one batch size. The sweep
// quantifies the per-packet overhead the burst refactor amortizes;
// burst=1 runs one-packet bursts through the same code.
func benchBurstSize(b *testing.B, burst int) {
	tr := traffic.Collect(burstSweepWorkload(), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := retina.DefaultConfig()
		cfg.Filter = "ipv4 and tcp"
		cfg.Cores = 1
		cfg.RingSize = 1 << 16
		cfg.PoolSize = 1 << 17
		cfg.BurstSize = burst
		rt, err := retina.New(cfg, retina.Packets(func(*retina.Packet) {}))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		// Run hands the device one burst of the trace per call.
		rt.Run(tr.Replay())
	}
	b.StopTimer()
	b.SetBytes(int64(tr.Bytes))
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(len(tr.Frames))*float64(b.N)/sec, "pkts/s")
	}
}

func BenchmarkBurstSize(b *testing.B) {
	for _, burst := range []int{1, 8, 32, 64} {
		b.Run(fmt.Sprintf("%d", burst), func(b *testing.B) { benchBurstSize(b, burst) })
	}
}

// --- Offline ingest ---

// BenchmarkRunOffline times Runtime.RunOffline over a trace recorded
// before the timer starts: the host pipeline alone, borrowing every
// frame. One op is one pass over the trace on a runtime built once, so
// allocs/op counts what a run allocates beyond setup. packets and tls
// replay one campus trace; video replays Netflix elephant flows, most
// of whose frames run server to client, with the device flow rules of
// FlowOffload on. The tls and video cases also report
// allocs/handshake: every allocation of the run over the handshakes it
// delivered.
func BenchmarkRunOffline(b *testing.B) {
	campus := sync.OnceValue(func() *traffic.Trace {
		return traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: 5, Flows: 1000, Gbps: 20}), 0)
	})
	video := func() *traffic.Trace {
		return traffic.Collect(traffic.NewVideoWorkload(5, 8, traffic.ServiceNetflix, 40), 24576)
	}
	var handshakes int
	onTLS := func(*retina.TLSHandshake, *retina.SessionEvent) { handshakes++ }
	for _, bc := range []struct {
		name, filter string
		offload      bool
		trace        func() *traffic.Trace
		sub          *retina.Subscription
	}{
		{"packets", "", false, campus, retina.Packets(func(*retina.Packet) {})},
		{"tls", "tls", false, campus, retina.TLSHandshakes(onTLS)},
		{"video", "tls.sni matches 'nflxvideo'", true, video, retina.TLSHandshakes(onTLS)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr := bc.trace()
			cfg := retina.DefaultConfig()
			cfg.Filter = bc.filter
			cfg.Cores = 1
			cfg.FlowOffload.Enable = bc.offload
			rt, err := retina.New(cfg, bc.sub)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(tr.Bytes))
			handshakes = 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.RunOffline(tr.Replay())
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Frames)), "ns/frame")
			if handshakes > 0 {
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(handshakes), "allocs/handshake")
			}
		})
	}
}

// --- Ablations ---

// BenchmarkAblationHWFilterOn/Off: zero-CPU hardware winnowing.
func benchHWAblation(b *testing.B, hw bool) {
	tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: 1, Flows: 400, Gbps: 40}), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := retina.DefaultConfig()
		cfg.Filter = experiments.Fig7Filter
		cfg.Cores = 1
		cfg.RingSize = 1 << 16
		cfg.PoolSize = 1 << 17
		cfg.HardwareFilter = hw
		rt, _ := retina.New(cfg, retina.Connections(func(*retina.ConnRecord) {}))
		b.StartTimer()
		rt.Run(tr.Replay())
	}
	b.SetBytes(int64(tr.Bytes))
}

func BenchmarkAblationHWFilterOn(b *testing.B)  { benchHWAblation(b, true) }
func BenchmarkAblationHWFilterOff(b *testing.B) { benchHWAblation(b, false) }

// BenchmarkAblationLazyParsing: subscription-aware early discard vs
// parsing every protocol on every connection.
func BenchmarkAblationLazyParsingOn(b *testing.B) {
	benchPipeline(b, `tls.sni ~ '\.com'`,
		func(d *atomic.Uint64) *retina.Subscription {
			return retina.TLSHandshakes(func(*retina.TLSHandshake, *retina.SessionEvent) { d.Add(1) })
		},
		traffic.NewCampusMix(traffic.CampusConfig{Seed: 1, Flows: 400, Gbps: 40}))
}

func BenchmarkAblationLazyParsingOff(b *testing.B) {
	benchPipeline(b, "",
		func(d *atomic.Uint64) *retina.Subscription {
			s := retina.Sessions(func(*retina.SessionEvent) { d.Add(1) })
			s.SessionProtos = []string{"tls", "http", "ssh", "dns"}
			return s
		},
		traffic.NewCampusMix(traffic.CampusConfig{Seed: 1, Flows: 400, Gbps: 40}))
}
