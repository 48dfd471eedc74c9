package experiments

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"retina"
	"retina/internal/metrics"
	"retina/internal/traffic"
)

// Fig5SubType selects the subscription under test.
type Fig5SubType int

// The three subscription types of Figure 5.
const (
	Fig5RawPackets Fig5SubType = iota
	Fig5ConnRecords
	Fig5TLSHandshakes
)

// Name returns the subplot title.
func (t Fig5SubType) Name() string {
	switch t {
	case Fig5RawPackets:
		return "Raw Packets"
	case Fig5ConnRecords:
		return "TCP Connection Records"
	case Fig5TLSHandshakes:
		return "TLS Handshakes"
	}
	return "?"
}

func (t Fig5SubType) filter() string {
	switch t {
	case Fig5ConnRecords:
		return "ipv4 and tcp"
	case Fig5TLSHandshakes:
		return "tls"
	}
	return ""
}

func (t Fig5SubType) subscription(spin uint64, delivered *atomic.Uint64) *retina.Subscription {
	cb := func() {
		metrics.SpinCycles(spin)
		delivered.Add(1)
	}
	switch t {
	case Fig5ConnRecords:
		return retina.Connections(func(*retina.ConnRecord) { cb() })
	case Fig5TLSHandshakes:
		return retina.TLSHandshakes(func(*retina.TLSHandshake, *retina.SessionEvent) { cb() })
	}
	return retina.Packets(func(*retina.Packet) { cb() })
}

// Fig5Point is one bar of Figure 5: the maximum zero-loss processing
// throughput for a core count and per-callback cycle cost.
type Fig5Point struct {
	Sub        Fig5SubType
	Cores      int
	Cycles     uint64
	Gbps       float64 // measured processing capacity, median of the rounds
	GbpsSpread Spread
	Mpps       float64
	Delivered  uint64
}

// Fig5Config parameterizes the experiment.
type Fig5Config struct {
	Cores     []int
	Cycles    []uint64
	Subs      []Fig5SubType
	FlowsBase int // flows per core at Scale=1
	Seed      int64
}

// DefaultFig5 mirrors the paper's grid (core counts capped by the
// machine; scaling shape is what transfers).
func DefaultFig5() Fig5Config {
	return Fig5Config{
		Cores:     []int{1, 2, 4},
		Cycles:    []uint64{0, 1_000, 100_000, 1_000_000},
		Subs:      []Fig5SubType{Fig5RawPackets, Fig5ConnRecords, Fig5TLSHandshakes},
		FlowsBase: 1500,
		Seed:      1,
	}
}

// RunFig5 measures processing capacity for every grid point: each core
// consumes an independently pre-generated campus-mix stream as fast as
// it can (the paper finds the maximum ingress rate with zero loss; on a
// simulated NIC the equivalent observable is aggregate processing
// capacity — offered load beyond it is exactly what produces loss).
// The cycle values of one (subscription, cores) cell are the sides of
// one measurement over the same traces.
func RunFig5(cfg Fig5Config, scale float64) []Fig5Point {
	var out []Fig5Point
	for _, sub := range cfg.Subs {
		for _, cores := range cfg.Cores {
			out = append(out, runFig5Cell(cfg, sub, cores, scale)...)
		}
	}
	return out
}

func runFig5Cell(cfg Fig5Config, sub Fig5SubType, cores int, scale float64) []Fig5Point {
	flows := max(int(float64(cfg.FlowsBase)*scale), 50)
	// Pre-generate one trace per core so generation cost is off the
	// measured path (the paper's traffic arrives from the wire).
	traces := make([]*traffic.Trace, cores)
	var totalBytes uint64
	var totalFrames int
	for i := range traces {
		traces[i] = traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{
			Seed: cfg.Seed + int64(i)*101, Flows: flows, Gbps: 40,
		}), 0)
		totalBytes += traces[i].Bytes
		totalFrames += len(traces[i].Frames)
	}

	delivered := make([]atomic.Uint64, len(cfg.Cycles))
	sides := make([]func() float64, len(cfg.Cycles))
	for k, cyc := range cfg.Cycles {
		sides[k] = func() float64 {
			delivered[k].Store(0)
			runtimes := make([]*retina.Runtime, cores)
			for i := range runtimes {
				rcfg := baseConfig()
				rcfg.Filter = sub.filter()
				rcfg.Cores = 1
				rcfg.PoolSize = 8192
				runtimes[i] = newRuntime(rcfg, sub.subscription(cyc, &delivered[k]))
			}
			// Each core's run is timed by its own thread's CPU clock,
			// and the point is scored by the makespan: the slowest
			// core bounds what the cores sustain together.
			cpu := make([]time.Duration, cores)
			var wg sync.WaitGroup
			for i := range runtimes {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					cpu[i] = cpuTime(func() { runtimes[i].RunOffline(traces[i].Replay()) })
				}(i)
			}
			wg.Wait()
			return metrics.GbpsOver(totalBytes, slices.Max(cpu))
		}
	}

	out := make([]Fig5Point, len(cfg.Cycles))
	for k, sp := range measure(sides...) {
		out[k] = Fig5Point{
			Sub:        sub,
			Cores:      cores,
			Cycles:     cfg.Cycles[k],
			Gbps:       sp.Median,
			GbpsSpread: sp,
			Mpps:       sp.Median * 1e9 / 8 / float64(totalBytes) * float64(totalFrames) / 1e6,
			Delivered:  delivered[k].Load(),
		}
	}
	return out
}

// PrintFig5 renders the grid with the paper's qualitative expectations.
func PrintFig5(w io.Writer, pts []Fig5Point) {
	fmt.Fprintln(w, "Figure 5: zero-loss processing throughput (measured capacity on this host)")
	fmt.Fprintln(w, "Paper (24-core Xeon + 100GbE): raw packets >162G @2 cores; conn records 127G @8 cores;")
	fmt.Fprintln(w, "TLS handshakes >160G @8 cores; throughput falls as callback cycles grow.")
	fmt.Fprintln(w)
	var cur Fig5SubType = -1
	var tbl *Table
	flush := func() {
		if tbl != nil {
			tbl.Write(w)
			fmt.Fprintln(w)
		}
	}
	for _, p := range pts {
		if p.Sub != cur {
			flush()
			cur = p.Sub
			fmt.Fprintf(w, "(%s)\n", p.Sub.Name())
			tbl = &Table{Header: []string{"cores", "callback cycles", "Gbps", "Gbps IQR", "Mpps", "callbacks"}}
		}
		tbl.Add(fmt.Sprint(p.Cores), fmt.Sprint(p.Cycles), F(p.Gbps), quartiles(p.GbpsSpread), F(p.Mpps), fmt.Sprint(p.Delivered))
	}
	flush()
}
