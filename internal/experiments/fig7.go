package experiments

import (
	"fmt"
	"io"

	"retina"
	"retina/internal/core"
	"retina/internal/traffic"
)

// Fig7Stage is one bar of Figure 7.
type Fig7Stage struct {
	Name      string
	Fraction  float64 // fraction of ingress packets triggering the stage
	AvgCycles float64
	PaperFrac float64
}

// Fig7Result is the full stage breakdown.
type Fig7Result struct {
	Ingress uint64
	Stages  []Fig7Stage
}

// Fig7Filter is the filter of §6.3: TCP connection records for Netflix
// video servers on port 443.
const Fig7Filter = `tcp.port = 443 and tls.sni ~ '(.+?\.)?nflxvideo\.net'`

// RunFig7 reproduces the filter-decomposition breakdown: hardware
// filtering enabled, connection-record subscription, campus traffic.
func RunFig7(seed int64, flows int) Fig7Result {
	cfg := baseConfig()
	cfg.Filter = Fig7Filter
	cfg.Cores = 2
	cfg.HardwareFilter = true
	cfg.Profile = true
	cfg.PoolSize = 1 << 16

	rt := newRuntime(cfg, retina.Connections(func(*retina.ConnRecord) {}))
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: seed, Flows: flows, Gbps: 40})
	stats := rt.Run(src)

	ingress := stats.NIC.RxFrames
	res := Fig7Result{Ingress: ingress}
	paper := map[string]float64{
		"Hardware Filter":     1.0,
		"SW Packet Filter":    0.354,
		"Connection Tracking": 0.354,
		"Stream Reassembly":   0.0154,
		"App-layer Parsing":   0.00415,
		"Session Filter":      0.0007,
		"Run Callback":        0.00000188,
	}

	res.Stages = append(res.Stages, Fig7Stage{
		Name:      "Hardware Filter",
		Fraction:  1.0, // every ingress packet crosses the NIC filter
		AvgCycles: 0,   // zero CPU cost by definition
		PaperFrac: paper["Hardware Filter"],
	})
	frac := func(n uint64) float64 {
		if ingress == 0 {
			return 0
		}
		return float64(n) / float64(ingress)
	}
	for _, st := range []core.Stage{
		core.StageSWFilter, core.StageConnTrack, core.StageReassembly,
		core.StageParsing, core.StageSessionFilter, core.StageCallback,
	} {
		res.Stages = append(res.Stages, Fig7Stage{
			Name:      st.String(),
			Fraction:  frac(stats.Stages.Invocations(st)),
			AvgCycles: stats.Stages.AvgCycles(st),
			PaperFrac: paper[st.String()],
		})
	}
	return res
}

// PrintFig7 renders the breakdown.
func PrintFig7(w io.Writer, r Fig7Result) {
	fmt.Fprintln(w, "Figure 7: effect of filter decomposition")
	fmt.Fprintf(w, "Filter: %s\n", Fig7Filter)
	fmt.Fprintf(w, "Ingress packets: %d\n\n", r.Ingress)
	tbl := &Table{Header: []string{"stage", "fraction of ingress", "avg cycles", "paper fraction"}}
	for _, s := range r.Stages {
		tbl.Add(s.Name, Pct(s.Fraction), F(s.AvgCycles), Pct(s.PaperFrac))
	}
	tbl.Write(w)
	fmt.Fprintln(w, "\nExpected shape: each stage runs on a hierarchically smaller share of traffic;")
	fmt.Fprintln(w, "the callback runs on a vanishing fraction. Absolute fractions depend on the")
	fmt.Fprintln(w, "traffic mix (our generator sends a higher Netflix share than the campus link).")
}
