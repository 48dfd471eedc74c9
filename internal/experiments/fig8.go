package experiments

import (
	"fmt"
	"io"
	"time"

	"retina"
	"retina/internal/mbuf"
	"retina/internal/traffic"
)

// Fig8Scheme is one timeout configuration of Figure 8.
type Fig8Scheme struct {
	Name              string
	EstablishTimeout  time.Duration // 0 = default, <0 = disabled
	InactivityTimeout time.Duration
}

// Fig8Sample is one point of the memory-over-time series.
type Fig8Sample struct {
	VirtualSec float64
	Conns      int
	MemBytes   uint64
}

// Fig8Result is one scheme's time series.
type Fig8Result struct {
	Scheme      Fig8Scheme
	Samples     []Fig8Sample
	SteadyConns int
	SteadyMem   uint64
	OOM         bool // exceeded the memory budget before the run ended
}

// Fig8Config parameterizes the state-management experiment. The paper
// runs 30 wall-clock minutes with 5s/5m timeouts; we run the same shape
// in compressed virtual time — timeouts scaled by TimeScale so the
// establishment/inactivity knees appear within a tractable trace.
type Fig8Config struct {
	Seed       int64
	Flows      int
	Gbps       float64
	TimeScale  float64 // timeout compression factor (10 = 5s→0.5s, 5m→30s)
	MemBudget  uint64  // bytes modeling "out of memory"
	SampleEach time.Duration
}

// DefaultFig8 is the compressed default: timeouts scaled 60x (5s→83ms,
// 5m→5s) and an offered rate low enough that the trace spans ~15 virtual
// seconds — three inactivity periods, enough for every scheme to reach
// its steady state or exhaust the memory budget.
func DefaultFig8() Fig8Config {
	return Fig8Config{
		Seed:       1,
		Flows:      100_000,
		Gbps:       0.75,
		TimeScale:  60,
		MemBudget:  12 << 20,
		SampleEach: 250 * time.Millisecond, // of virtual time
	}
}

// Fig8Schemes returns the paper's three configurations, compressed.
func Fig8Schemes(timeScale float64) []Fig8Scheme {
	est := time.Duration(float64(5*time.Second) / timeScale)
	ina := time.Duration(float64(5*time.Minute) / timeScale)
	return []Fig8Scheme{
		{Name: fmt.Sprintf("%v establish + %v inactive (Retina default)", est, ina), EstablishTimeout: est, InactivityTimeout: ina},
		{Name: fmt.Sprintf("%v inactive only", ina), EstablishTimeout: -1, InactivityTimeout: ina},
		{Name: "No inactivity timeouts", EstablishTimeout: -1, InactivityTimeout: -1},
	}
}

// RunFig8 subscribes to all TCP connection records under each timeout
// scheme and samples connections-in-memory and memory bytes over
// virtual time.
func RunFig8(cfg Fig8Config, scale float64) []Fig8Result {
	flows := max(int(float64(cfg.Flows)*scale), 2000)
	var out []Fig8Result
	for _, scheme := range Fig8Schemes(cfg.TimeScale) {
		out = append(out, runFig8Scheme(cfg, scheme, flows))
	}
	return out
}

func runFig8Scheme(cfg Fig8Config, scheme Fig8Scheme, flows int) Fig8Result {
	rcfg := baseConfig()
	rcfg.Filter = "ipv4 and tcp"
	rcfg.Cores = 1
	rcfg.PoolSize = 1 << 15
	rcfg.EstablishTimeout = scheme.EstablishTimeout
	rcfg.InactivityTimeout = scheme.InactivityTimeout

	rt := newRuntime(rcfg, retina.Connections(func(*retina.ConnRecord) {}))
	corePipe := rt.Cores()[0]

	src := traffic.NewCampusMix(traffic.CampusConfig{
		Seed: cfg.Seed, Flows: flows, Gbps: cfg.Gbps, Concurrent: 192,
	})

	res := Fig8Result{Scheme: scheme}
	sampleEvery := uint64(cfg.SampleEach / time.Microsecond)
	nextSample := sampleEvery

	// Offline processing preserves virtual-time fidelity: the table's
	// clock advances exactly with traffic ticks, one-packet bursts at a
	// time.
	one := make([]*mbuf.Mbuf, 1)
	for {
		frame, tick, ok := src.Next()
		if !ok {
			break
		}
		m, err := rt.Pool().AllocData(frame)
		if err != nil {
			continue
		}
		m.RxTick = tick
		one[0] = m
		corePipe.ProcessBurst(one)

		for tick >= nextSample {
			tbl := corePipe.Table()
			s := Fig8Sample{
				VirtualSec: float64(nextSample) / 1e6,
				Conns:      tbl.Len(),
				MemBytes:   tbl.MemoryBytes(),
			}
			res.Samples = append(res.Samples, s)
			if s.MemBytes > cfg.MemBudget {
				res.OOM = true
			}
			nextSample += sampleEvery
		}
		if res.OOM {
			break
		}
	}
	if n := len(res.Samples); n > 0 {
		// Steady state: average of the last quarter of samples.
		start := n * 3 / 4
		var conns, mem uint64
		for _, s := range res.Samples[start:] {
			conns += uint64(s.Conns)
			mem += s.MemBytes
		}
		cnt := uint64(n - start)
		res.SteadyConns = int(conns / cnt)
		res.SteadyMem = mem / cnt
	}
	corePipe.Flush()
	return res
}

// PrintFig8 renders the series and the headline ratios.
func PrintFig8(w io.Writer, res []Fig8Result) {
	fmt.Fprintln(w, "Figure 8: connections in memory over time by timeout scheme")
	fmt.Fprintln(w, "Paper: default uses 6.4x less steady-state memory and 7.7x fewer concurrent")
	fmt.Fprintln(w, "connections than 5m-inactivity-only; no-timeout runs out of memory (~11 min).")
	fmt.Fprintln(w)
	for _, r := range res {
		fmt.Fprintf(w, "[%s]", r.Scheme.Name)
		if r.OOM {
			fmt.Fprint(w, "  ** exceeded memory budget **")
		}
		fmt.Fprintln(w)
		tbl := &Table{Header: []string{"virtual sec", "connections", "memory"}}
		step := len(r.Samples)/12 + 1
		for i := 0; i < len(r.Samples); i += step {
			s := r.Samples[i]
			tbl.Add(fmt.Sprintf("%.1f", s.VirtualSec), fmt.Sprint(s.Conns), fmt.Sprint(s.MemBytes))
		}
		tbl.Write(w)
		fmt.Fprintf(w, "steady state: %d conns, %d bytes\n\n", r.SteadyConns, r.SteadyMem)
	}
	if len(res) >= 2 && res[0].SteadyConns > 0 {
		fmt.Fprintf(w, "conns ratio (inactivity-only / default): %.1fx (paper: 7.7x)\n",
			float64(res[1].SteadyConns)/float64(res[0].SteadyConns))
		if res[0].SteadyMem > 0 {
			fmt.Fprintf(w, "memory ratio (inactivity-only / default): %.1fx (paper: 6.4x)\n",
				float64(res[1].SteadyMem)/float64(res[0].SteadyMem))
		}
	}
}
