package experiments

import (
	"fmt"
	"io"
	"time"

	"retina"
	"retina/internal/metrics"
	"retina/internal/traffic"
)

// AblationResult compares a design choice on/off.
type AblationResult struct {
	Name     string
	OnGbps   float64
	OffGbps  float64
	OnLabel  string
	OffLabel string
}

// RunHWFilterAblation measures throughput of the Figure 7 workload with
// the hardware filter enabled vs disabled — the zero-CPU-cost winnowing
// the paper attributes to on-NIC flow rules. Each side is the best of
// repeats runs: one pass takes a few milliseconds, so a single pass
// measures scheduling noise as much as the filter.
func RunHWFilterAblation(seed int64, flows int) AblationResult {
	// Materialize frames so generation is off the clock.
	tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: seed, Flows: flows, Gbps: 40}), 0)
	run := func(hw bool) float64 {
		var best float64
		for r := 0; r < repeats; r++ {
			cfg := baseConfig()
			cfg.Filter = Fig7Filter
			cfg.Cores = 1
			cfg.HardwareFilter = hw
			cfg.PoolSize = 1 << 15
			rt, err := retina.New(cfg, retina.Connections(func(*retina.ConnRecord) {}))
			if err != nil {
				panic(err)
			}
			// Run through the NIC so hardware dropping applies.
			best = max(best, metrics.GbpsOver(tr.Bytes, rt.Run(tr.Replay()).Elapsed))
		}
		return best
	}
	return AblationResult{
		Name:    "Hardware filter (Figure 7 workload)",
		OnGbps:  run(true),
		OffGbps: run(false),
		OnLabel: "HW rules installed", OffLabel: "all frames to software",
	}
}

// RunLazyParsingAblation measures the value of subscription-aware early
// discard: a TLS-handshake subscription (stops at the handshake,
// discards non-TLS) vs an everything-parsed configuration approximated
// by subscribing to all sessions of all protocols with a match-all
// filter.
func RunLazyParsingAblation(seed int64, flows int) AblationResult {
	mk := func(lazy bool) float64 {
		cfg := baseConfig()
		cfg.Cores = 1
		cfg.PoolSize = 1 << 15
		var sub *retina.Subscription
		if lazy {
			cfg.Filter = `tls.sni ~ '\.com'`
			sub = retina.TLSHandshakes(func(*retina.TLSHandshake, *retina.SessionEvent) {})
		} else {
			cfg.Filter = ""
			sub = &retina.Subscription{}
			*sub = *retina.Sessions(func(*retina.SessionEvent) {})
			sub.SessionProtos = []string{"tls", "http", "ssh", "dns"}
		}
		rt, err := retina.New(cfg, sub)
		if err != nil {
			panic(err)
		}
		tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: seed, Flows: flows, Gbps: 40}), 0)
		start := time.Now()
		rt.RunOffline(tr.Replay())
		return metrics.GbpsOver(tr.Bytes, time.Since(start))
	}
	return AblationResult{
		Name:    "Lazy subscription-aware processing",
		OnGbps:  mk(true),
		OffGbps: mk(false),
		OnLabel: "TLS-handshake subscription (early discard)", OffLabel: "parse all sessions of all protocols",
	}
}

// PrintAblations renders ablation comparisons.
func PrintAblations(w io.Writer, res []AblationResult) {
	fmt.Fprintln(w, "Design-choice ablations")
	fmt.Fprintln(w)
	tbl := &Table{Header: []string{"ablation", "config", "Gbps"}}
	for _, r := range res {
		tbl.Add(r.Name, r.OnLabel, F(r.OnGbps))
		tbl.Add("", r.OffLabel, F(r.OffGbps))
		if r.OffGbps > 0 {
			tbl.Add("", "ratio", fmt.Sprintf("%.2fx", r.OnGbps/r.OffGbps))
		}
	}
	tbl.Write(w)
}
