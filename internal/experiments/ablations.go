package experiments

import (
	"fmt"
	"io"

	"retina"
	"retina/internal/metrics"
	"retina/internal/traffic"
)

// AblationResult compares a design choice on/off. The rates are
// medians of the rounds.
type AblationResult struct {
	Name      string
	OnGbps    float64
	OffGbps   float64
	OnSpread  Spread
	OffSpread Spread
	OnLabel   string
	OffLabel  string
}

// ablation measures the on and off sides and fills in the rates.
func ablation(r AblationResult, on, off func() float64) AblationResult {
	sp := measure(on, off)
	r.OnGbps, r.OnSpread = sp[0].Median, sp[0]
	r.OffGbps, r.OffSpread = sp[1].Median, sp[1]
	return r
}

// RunHWFilterAblation measures throughput of the Figure 7 workload with
// the hardware filter enabled vs disabled — the zero-CPU-cost winnowing
// the paper attributes to on-NIC flow rules. The frames must pass
// through the device, whose producer and cores are separate goroutines,
// so each side is timed by the run's wall-clock Stats.Elapsed rather
// than a thread's CPU clock.
func RunHWFilterAblation(seed int64, flows int) AblationResult {
	// Materialize frames so generation is off the clock.
	tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: seed, Flows: flows, Gbps: 40}), 0)
	run := func(hw bool) func() float64 {
		return func() float64 {
			cfg := baseConfig()
			cfg.Filter = Fig7Filter
			cfg.Cores = 1
			cfg.HardwareFilter = hw
			cfg.PoolSize = 1 << 15
			rt := newRuntime(cfg, retina.Connections(func(*retina.ConnRecord) {}))
			return metrics.GbpsOver(tr.Bytes, rt.Run(tr.Replay()).Elapsed)
		}
	}
	return ablation(AblationResult{
		Name:    "Hardware filter (Figure 7 workload)",
		OnLabel: "HW rules installed", OffLabel: "all frames to software",
	}, run(true), run(false))
}

// RunLazyParsingAblation measures the value of subscription-aware early
// discard: a TLS-handshake subscription (stops at the handshake,
// discards non-TLS) vs an everything-parsed configuration approximated
// by subscribing to all sessions of all protocols with a match-all
// filter. Both sides replay one trace offline.
func RunLazyParsingAblation(seed int64, flows int) AblationResult {
	tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: seed, Flows: flows, Gbps: 40}), 0)
	run := func(lazy bool) func() float64 {
		return func() float64 {
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
			rt := newRuntime(cfg, sub)
			return metrics.GbpsOver(tr.Bytes, cpuTime(func() { rt.RunOffline(tr.Replay()) }))
		}
	}
	return ablation(AblationResult{
		Name:    "Lazy subscription-aware processing",
		OnLabel: "TLS-handshake subscription (early discard)", OffLabel: "parse all sessions of all protocols",
	}, run(true), run(false))
}

// PrintAblations renders ablation comparisons.
func PrintAblations(w io.Writer, res []AblationResult) {
	fmt.Fprintln(w, "Design-choice ablations")
	fmt.Fprintln(w)
	tbl := &Table{Header: []string{"ablation", "config", "Gbps", "Gbps IQR"}}
	for _, r := range res {
		tbl.Add(r.Name, r.OnLabel, F(r.OnGbps), quartiles(r.OnSpread))
		tbl.Add("", r.OffLabel, F(r.OffGbps), quartiles(r.OffSpread))
		tbl.Add("", "ratio", ratio(r.OnSpread, r.OffSpread))
	}
	tbl.Write(w)
}
