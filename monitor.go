package retina

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"retina/internal/mbuf"
	"retina/internal/metrics"
	"retina/internal/telemetry"
)

// LiveStats is a point-in-time snapshot of a running Runtime, safe to
// take from any goroutine while Run is in progress. It backs the
// real-time monitoring of packet loss, throughput, and memory usage the
// paper describes in §5.3 as the feedback loop for tuning filters and
// callbacks.
type LiveStats struct {
	When time.Time

	RxFrames  uint64 // frames offered to the port
	Delivered uint64 // frames enqueued to receive rings
	HWDropped uint64 // dropped by the hardware filter
	Sunk      uint64 // diverted by RSS sampling
	Loss      uint64 // ring overflows + buffer exhaustion

	Conns     int // connections currently tracked across cores
	PoolFree  int // free packet buffers
	PoolTotal int

	// Callbacks counts deliveries to the subscription's callback across
	// all cores (per-subscription rate = ΔCallbacks / Δt).
	Callbacks uint64
	// Drops breaks every loss down by telemetry.Drop* reason; zero
	// reasons are omitted.
	Drops map[string]uint64
	// MemoryEstimate approximates bytes held by connection state and
	// in-flight packet buffers. It is computed from atomic counters only,
	// so snapshots never race with the processing cores.
	MemoryEstimate uint64

	// Observability fields (zero unless Config.LatencyTracking):
	// rx→delivery latency percentiles aggregated across cores, the mean
	// poll-loop duty cycle, and the RSS-skew gauge.
	LatencyCount uint64
	LatencyP50Ns float64
	LatencyP99Ns float64
	// LatencyP999Ns is the 99.9th percentile rx→delivery latency.
	LatencyP999Ns float64
	BusyFraction  float64
	RSSSkew       float64
}

// connStateEstimate is the approximate per-connection footprint used by
// MemoryEstimate (table entry + subscription state).
const connStateEstimate = 320

// LossRate is the fraction of post-hardware-filter traffic lost.
func (s LiveStats) LossRate() float64 {
	offered := s.Delivered + s.Loss
	if offered == 0 {
		return 0
	}
	return float64(s.Loss) / float64(offered)
}

// LiveStats snapshots the runtime. All counters read atomically; the
// snapshot is consistent enough for monitoring (not a linearizable
// cut across cores).
func (r *Runtime) LiveStats() LiveStats {
	ns := r.dev.Stats()
	drops := r.DropBreakdown()
	s := LiveStats{
		When:      time.Now(),
		RxFrames:  ns.RxFrames,
		Delivered: ns.Delivered,
		HWDropped: drops[telemetry.DropHWFilter],
		Sunk:      drops[telemetry.DropRSSSink],
		Loss:      ns.Loss(),
		PoolFree:  r.pool.Available(),
		PoolTotal: r.pool.Size(),
		Conns:     int(r.sumCores(liveConns)),
		Callbacks: callbacks(r),
		Drops:     drops,
	}
	s.MemoryEstimate = uint64(s.Conns)*connStateEstimate +
		uint64(r.pool.InUse())*uint64(mbuf.DefaultBufSize)
	if r.cfg.LatencyTracking {
		sum := r.LatencySummary()
		s.LatencyCount = sum.Count
		s.LatencyP50Ns = sum.P50Ns
		s.LatencyP99Ns = sum.P99Ns
		s.LatencyP999Ns = sum.P999Ns
		busy := r.sumCores(busyNanos)
		if total := busy + r.sumCores(waitNanos); total > 0 {
			s.BusyFraction = float64(busy) / float64(total)
		}
		s.RSSSkew = r.RSSSkew()
	}
	return s
}

// Monitor starts a goroutine that invokes fn with a LiveStats snapshot
// every interval until the returned stop function is called. Use it
// alongside Run to observe loss and memory pressure in real time:
//
//	stop := rt.Monitor(time.Second, func(s retina.LiveStats) {
//		log.Printf("rx=%d loss=%d conns=%d", s.RxFrames, s.Loss, s.Conns)
//	})
//	defer stop()
//	rt.Run(src)
func (r *Runtime) Monitor(interval time.Duration, fn func(LiveStats)) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fn(r.LiveStats())
			}
		}
	}()
	// stop blocks until the monitor goroutine has exited, so callers may
	// safely inspect state fn was writing. Calling stop more than once is
	// harmless.
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// formatDrops renders a drop-reason breakdown as "reason:count"
// pairs, largest first.
func formatDrops(drops map[string]uint64) string {
	if len(drops) == 0 {
		return "none"
	}
	var b strings.Builder
	for i, k := range telemetry.RankDrops(drops) {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", k, drops[k])
	}
	return b.String()
}

// callbackLabel names LiveStats.Callbacks in the log line: the level of
// the subscription New was given, or "all" on a NewDynamic runtime.
func (r *Runtime) callbackLabel() string {
	if r.sub == nil {
		return "all"
	}
	return r.sub.Level.String()
}

// LogMonitor is a convenience Monitor that writes one status line per
// interval, mirroring Retina's performance log output: throughput,
// per-subscription callback rate, loss with full drop-reason breakdown,
// and memory pressure.
func (r *Runtime) LogMonitor(w io.Writer, interval time.Duration) (stop func()) {
	var last LiveStats
	start := time.Now()
	return r.Monitor(interval, func(s LiveStats) {
		dt := s.When.Sub(last.When)
		if last.When.IsZero() {
			dt = s.When.Sub(start)
		}
		rate := float64(s.Delivered-last.Delivered) / dt.Seconds()
		cbRate := float64(s.Callbacks-last.Callbacks) / dt.Seconds()
		var lat string
		if r.cfg.LatencyTracking {
			lat = fmt.Sprintf(" lat[p50/p99/p999]=%s/%s/%s busy=%.0f%% skew=%.2f",
				metrics.FormatNanos(s.LatencyP50Ns), metrics.FormatNanos(s.LatencyP99Ns),
				metrics.FormatNanos(s.LatencyP999Ns), s.BusyFraction*100, s.RSSSkew)
		}
		fmt.Fprintf(w, "[retina] rx=%d delivered=%d (%.0f pps) cb[%s]=%d (%.0f/s) hw_drop=%d loss=%d (%.4f%%) drops: %s conns=%d pool=%d/%d mem=%s%s\n",
			s.RxFrames, s.Delivered, rate,
			r.callbackLabel(), s.Callbacks, cbRate,
			s.HWDropped, s.Loss, s.LossRate()*100,
			formatDrops(s.Drops),
			s.Conns, s.PoolFree, s.PoolTotal,
			metrics.FormatBytes(s.MemoryEstimate), lat)
		last = s
	})
}
