package experiments

import (
	"fmt"
	"io"

	"retina"
	"retina/internal/baseline"
	"retina/internal/metrics"
	"retina/internal/traffic"
)

// Fig6Result is one system's single-core capacity on the HTTPS workload.
type Fig6Result struct {
	System     string
	Gbps       float64 // zero-loss processing capacity (measured), median of the rounds
	GbpsSpread Spread
	KreqPerS   float64 // capacity expressed as the x-axis of Figure 6
	Matches    uint64
	PaperGbps  float64 // the paper's reported zero-loss throughput
}

// Fig6Config parameterizes the comparison.
type Fig6Config struct {
	Requests int // closed-loop requests per measurement at Scale=1
	SNI      string
	Seed     int64
}

// DefaultFig6 mirrors §6.2's setup: 256KB HTTPS requests, single core,
// no hardware filtering, rule matching the TLS server name.
func DefaultFig6() Fig6Config {
	return Fig6Config{Requests: 400, SNI: "bench.example.com", Seed: 1}
}

// bytesPerRequest is the approximate wire bytes of one 256KB HTTPS
// exchange (response + handshake + ACK overhead).
const bytesPerRequest = 276_000.0

// RunFig6 measures the single-core zero-loss capacity of Retina and the
// three baseline architectures on the same task: log TLS connections
// matching the server name.
func RunFig6(cfg Fig6Config, scale float64) []Fig6Result {
	reqs := max(int(float64(cfg.Requests)*scale), 20)

	// Pre-generate the workload once; all systems replay it.
	tr := traffic.Collect(traffic.NewHTTPSWorkload(cfg.Seed, reqs, 128, 10, cfg.SNI), 0)

	// Retina, single core, offline (no hardware filter), matching the
	// paper's configuration.
	out := []Fig6Result{{System: "Retina", PaperGbps: 49}}
	sides := []func() float64{func() float64 {
		rcfg := baseConfig()
		rcfg.Filter = `tls.sni matches 'bench'`
		rcfg.Cores = 1
		rcfg.PoolSize = 8192
		var matches uint64
		rt := newRuntime(rcfg, retina.Connections(func(r *retina.ConnRecord) { matches++ }))
		el := cpuTime(func() { rt.RunOffline(tr.Replay()) })
		out[0].Matches = matches
		return metrics.GbpsOver(tr.Bytes, el)
	}}
	for _, sys := range []struct {
		s     baseline.System
		paper float64
	}{
		{baseline.SuricataLike, 10}, {baseline.ZeekLike, 4}, {baseline.SnortLike, 0.4},
	} {
		k := len(out)
		out = append(out, Fig6Result{System: sys.s.Name(), PaperGbps: sys.paper})
		sides = append(sides, func() float64 {
			m, err := baseline.New(sys.s, "bench")
			if err != nil {
				panic(err)
			}
			el := cpuTime(func() {
				for i, f := range tr.Frames {
					m.Process(f, tr.Ticks[i])
				}
			})
			out[k].Matches = m.Results().Matches
			return metrics.GbpsOver(tr.Bytes, el)
		})
	}
	for k, sp := range measure(sides...) {
		out[k].Gbps, out[k].GbpsSpread = sp.Median, sp
		out[k].KreqPerS = sp.Median * 1e9 / 8 / bytesPerRequest / 1000
	}
	return out
}

// PrintFig6 renders the comparison with paper-reported values and the
// resulting speedup ratios.
func PrintFig6(w io.Writer, res []Fig6Result) {
	fmt.Fprintln(w, "Figure 6: single-core zero-loss capacity, HTTPS SNI-logging task")
	fmt.Fprintln(w, "Paper: Retina ~49 Gbps, Suricata ~10, Zeek ~4-5, Snort ~0.4-1 (5-100x gap)")
	fmt.Fprintln(w)
	tbl := &Table{Header: []string{"system", "measured Gbps", "Gbps IQR", "measured kreq/s", "matches", "paper Gbps", "Retina speedup"}}
	var retinaGbps Spread
	for _, r := range res {
		if r.System == "Retina" {
			retinaGbps = r.GbpsSpread
		}
	}
	for _, r := range res {
		speedup := "-"
		if r.System != "Retina" {
			speedup = ratio(retinaGbps, r.GbpsSpread)
		}
		tbl.Add(r.System, F(r.Gbps), quartiles(r.GbpsSpread), F(r.KreqPerS), fmt.Sprint(r.Matches), F(r.PaperGbps), speedup)
	}
	tbl.Write(w)
}
