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
	"sync/atomic"
	"testing"
	"time"

	"retina/internal/baseline"
	"retina/internal/experiments"
	"retina/internal/metrics"
	"retina/internal/traffic"
)

// materialize pre-generates a workload so generation cost stays out of
// the measured loop.
func materialize(src retina.Source) (frames [][]byte, ticks []uint64, bytes int64) {
	for {
		f, tk, ok := src.Next()
		if !ok {
			return
		}
		frames = append(frames, append([]byte(nil), f...))
		ticks = append(ticks, tk)
		bytes += int64(len(f))
	}
}

type replay struct {
	frames [][]byte
	ticks  []uint64
	i      int
}

func (r *replay) Next() ([]byte, uint64, bool) {
	if r.i >= len(r.frames) {
		return nil, 0, false
	}
	f, t := r.frames[r.i], r.ticks[r.i]
	r.i++
	return f, t, true
}

// benchPipeline measures end-to-end single-core processing of a
// pre-generated workload under a filter and subscription.
func benchPipeline(b *testing.B, filter string, mkSub func(*atomic.Uint64) *retina.Subscription, src retina.Source) {
	b.Helper()
	frames, ticks, bytes := materialize(src)
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
		rt.RunOffline(&replay{frames: frames, ticks: ticks})
	}
	b.SetBytes(bytes)
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

func fig6Workload() ([][]byte, []uint64, int64) {
	return materialize(traffic.NewHTTPSWorkload(1, 60, 32, 5, "bench.example.com"))
}

func BenchmarkFig6Retina(b *testing.B) {
	frames, ticks, bytes := fig6Workload()
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
		rt.RunOffline(&replay{frames: frames, ticks: ticks})
	}
	b.SetBytes(bytes)
}

func benchFig6Baseline(b *testing.B, sys baseline.System) {
	frames, ticks, bytes := fig6Workload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, _ := baseline.New(sys, "bench")
		b.StartTimer()
		for j, f := range frames {
			m.Process(f, ticks[j])
		}
	}
	b.SetBytes(bytes)
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
	frames, ticks, bytes := materialize(
		traffic.NewCampusMix(traffic.CampusConfig{Seed: 1, Flows: 3000, Gbps: 2, Concurrent: 192}))
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
		rt.RunOffline(&replay{frames: frames, ticks: ticks})
		b.StopTimer()
		b.ReportMetric(float64(rt.Cores()[0].Table().Len()), "live-conns")
		b.StartTimer()
	}
	b.SetBytes(bytes)
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
	frames, ticks, bytes := materialize(traffic.NewStratosphereLike(traffic.Norm7, 300))
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
		rt.RunOffline(&replay{frames: frames, ticks: ticks})
	}
	b.SetBytes(bytes)
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
	frames, ticks, bytes := materialize(burstSweepWorkload())
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
		done := make(chan struct{})
		go func() {
			rt.Cores()[0].Run(rt.NIC().Queue(0))
			close(done)
		}()
		b.StartTimer()
		// Mirror Runtime.Run's BurstSource path: frames arrive at the
		// NIC a burst at a time.
		for j := 0; j < len(frames); j += burst {
			k := min(j+burst, len(frames))
			rt.NIC().DeliverBurst(frames[j:k], ticks[j:k])
		}
		rt.NIC().Close()
		<-done
	}
	b.StopTimer()
	b.SetBytes(bytes)
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(len(frames))*float64(b.N)/sec, "pkts/s")
	}
}

func BenchmarkBurstSize(b *testing.B) {
	for _, burst := range []int{1, 8, 32, 64} {
		b.Run(fmt.Sprintf("%d", burst), func(b *testing.B) { benchBurstSize(b, burst) })
	}
}

// --- Offline ingest ---

// burstReplay serves a replay's frames a burst at a time, as they are:
// the BurstSource path RunOffline borrows frames from.
type burstReplay struct{ replay }

func (r *burstReplay) NextBurst(frames [][]byte, ticks []uint64) int {
	n := copy(frames, r.frames[r.i:])
	copy(ticks, r.ticks[r.i:r.i+n])
	r.i += n
	return n
}

// BenchmarkRunOffline times Runtime.RunOffline over a campus trace
// generated before the timer starts, from a BurstSource: the host
// pipeline alone, borrowing every frame. One op is one pass over the
// trace on a runtime built once, so allocs/op counts what a run
// allocates beyond setup.
func BenchmarkRunOffline(b *testing.B) {
	frames, ticks, bytes := materialize(
		traffic.NewCampusMix(traffic.CampusConfig{Seed: 5, Flows: 1000, Gbps: 20}))
	for _, bc := range []struct {
		name, filter string
		sub          *retina.Subscription
	}{
		{"packets", "", retina.Packets(func(*retina.Packet) {})},
		{"tls", "tls", retina.Sessions(func(*retina.SessionEvent) {})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := retina.DefaultConfig()
			cfg.Filter = bc.filter
			cfg.Cores = 1
			rt, err := retina.New(cfg, bc.sub)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.RunOffline(&burstReplay{replay{frames: frames, ticks: ticks}})
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frames)), "ns/frame")
		})
	}
}

// --- Ablations ---

// BenchmarkAblationHWFilterOn/Off: zero-CPU hardware winnowing.
func benchHWAblation(b *testing.B, hw bool) {
	frames, ticks, bytes := materialize(
		traffic.NewCampusMix(traffic.CampusConfig{Seed: 1, Flows: 400, Gbps: 40}))
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
		done := make(chan struct{})
		go func() {
			rt.Cores()[0].Run(rt.NIC().Queue(0))
			close(done)
		}()
		b.StartTimer()
		rt.NIC().DeliverBurst(frames, ticks)
		rt.NIC().Close()
		<-done
	}
	b.SetBytes(bytes)
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
