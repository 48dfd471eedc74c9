package experiments

import (
	"fmt"
	"io"

	"retina"
	"retina/internal/metrics"
	"retina/internal/traffic"
)

// ZeroLossPoint is one step of the §6.1 titration: the sink fraction
// applied, the effective ingress rate that reached the cores, and the
// loss observed.
type ZeroLossPoint struct {
	SinkFraction  float64
	EffectiveGbps float64
	Loss          uint64
}

// ZeroLossResult is the outcome of the titration for one configuration.
type ZeroLossResult struct {
	Label        string
	Points       []ZeroLossPoint
	MaxZeroLoss  float64 // highest effective Gbps observed with zero loss
	ExhaustedAt0 bool    // zero loss already at full rate (link-limited)
}

// RunZeroLossSearch reproduces the paper's measurement methodology
// (§6.1): offer traffic through the NIC's receive rings and "slowly
// increase the percentage of flows dropped by the NIC [via the RSS
// redirection table] until we observe zero packet loss". The search
// sweeps the sink fraction downward from full delivery; the reported
// number is the highest effective ingress rate the cores sustained with
// zero ring drops.
func RunZeroLossSearch(filterSrc string, cores int, flows int) ZeroLossResult {
	res := ZeroLossResult{Label: fmt.Sprintf("filter=%q cores=%d", filterSrc, cores)}

	// Materialize the workload once; each trial replays it.
	tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: 1, Flows: flows, Gbps: 40}), 0)

	for _, sink := range []float64{0, 0.25, 0.5, 0.75, 0.9} {
		cfg := baseConfig()
		cfg.Filter = filterSrc
		cfg.Cores = cores
		cfg.RingSize = 512 // small rings make overload visible quickly
		cfg.PoolSize = 1 << 15
		cfg.SinkFraction = sink
		rt := newRuntime(cfg, retina.Connections(func(*retina.ConnRecord) {}))
		stats := rt.Run(tr.Replay())

		// Effective rate: bytes that reached the cores over wall time.
		// The producer races the cores here, so the wall clock is the
		// measure: a thread's CPU time would not see the rings fill.
		eff := metrics.GbpsOver(tr.Bytes*stats.NIC.Delivered/max(stats.NIC.RxFrames, 1), stats.Elapsed)
		pt := ZeroLossPoint{SinkFraction: sink, EffectiveGbps: eff, Loss: stats.Loss()}
		res.Points = append(res.Points, pt)
		if pt.Loss == 0 {
			res.MaxZeroLoss = max(res.MaxZeroLoss, pt.EffectiveGbps)
			if sink == 0 {
				res.ExhaustedAt0 = true
			}
			// The paper stops at the first zero-loss configuration when
			// sweeping load downward; we record it and stop sinking
			// further (lower effective rates cannot improve the metric).
			break
		}
	}
	return res
}

// PrintZeroLoss renders the titration trace.
func PrintZeroLoss(w io.Writer, res ZeroLossResult) {
	fmt.Fprintln(w, "Zero-loss titration (§6.1 methodology: RSS sink sweep)")
	fmt.Fprintf(w, "%s\n\n", res.Label)
	tbl := &Table{Header: []string{"sink fraction", "effective Gbps", "loss (pkts)"}}
	for _, p := range res.Points {
		tbl.Add(fmt.Sprintf("%.2f", p.SinkFraction), F(p.EffectiveGbps), fmt.Sprint(p.Loss))
	}
	tbl.Write(w)
	switch {
	case res.ExhaustedAt0:
		fmt.Fprintf(w, "\nzero loss at full ingress: cores keep up (max observed %.2f Gbps)\n", res.MaxZeroLoss)
	case res.MaxZeroLoss > 0:
		fmt.Fprintf(w, "\nmax zero-loss effective rate: %.2f Gbps\n", res.MaxZeroLoss)
	default:
		fmt.Fprintln(w, "\nno zero-loss configuration found in the sweep")
	}
}
