package experiments

import (
	"fmt"
	"io"

	"retina"
	"retina/internal/traffic"
)

// NetflixFilter32 is the 32-predicate Bronzino et al. filter from
// Appendix B's footnote, adapted to the filter language.
const NetflixFilter32 = `ipv4.addr in 23.246.0.0/18 or ipv4.addr in 37.77.184.0/21 or ` +
	`ipv4.addr in 45.57.0.0/17 or ipv4.addr in 64.120.128.0/17 or ` +
	`ipv4.addr in 66.197.128.0/17 or ipv4.addr in 108.175.32.0/20 or ` +
	`ipv4.addr in 185.2.220.0/22 or ipv4.addr in 185.9.188.0/22 or ` +
	`ipv4.addr in 192.173.64.0/18 or ipv4.addr in 198.38.96.0/19 or ` +
	`ipv4.addr in 198.45.48.0/20 or ipv4.addr in 208.75.79.0/24 or ` +
	`ipv6.addr in 2620:10c:7000::/44 or ipv6.addr in 2a00:86c0::/32 or ` +
	`tls.sni ~ 'netflix\.com' or tls.sni ~ 'nflxvideo\.net' or ` +
	`tls.sni ~ 'nflximg\.net' or tls.sni ~ 'nflxext\.com' or ` +
	`tls.sni ~ 'nflximg\.com' or tls.sni ~ 'nflxso\.net'`

// Fig12Filters are the five filter configurations of Figure 12.
var Fig12Filters = []struct {
	Label  string
	Filter string
}{
	{"None", ""},
	{`"ipv4"`, "ipv4"},
	{`"tcp.port = 443"`, "tcp.port = 443"},
	{`"tls.cipher ~ 'AES_128_GCM'"`, `tls.cipher ~ 'AES_128_GCM'`},
	{"Netflix traffic", NetflixFilter32},
}

// Fig12Point is one (trace, filter) speedup measurement. The times are
// medians of the rounds, and Speedup is their ratio.
type Fig12Point struct {
	Trace          string
	Filter         string
	CompiledSec    float64
	InterpSec      float64
	CompiledSpread Spread
	InterpSpread   Spread
	Speedup        float64
}

// Fig12Config parameterizes the compiled-vs-interpreted comparison.
type Fig12Config struct {
	FlowsPerTrace int
}

// DefaultFig12 mirrors Appendix B: four traces, five filters, offline
// single-core processing, TLS handshake logging.
func DefaultFig12() Fig12Config { return Fig12Config{FlowsPerTrace: 800} }

// RunFig12 measures the CPU-time speedup of natively compiled filters
// over runtime-interpreted filters per trace and filter.
func RunFig12(cfg Fig12Config, scale float64) []Fig12Point {
	flows := max(int(float64(cfg.FlowsPerTrace)*scale), 100)
	var out []Fig12Point
	for _, prof := range []traffic.StratosphereProfile{traffic.Norm7, traffic.Norm12, traffic.Norm20, traffic.Norm30} {
		// Materialize the trace once.
		tr := traffic.Collect(traffic.NewStratosphereLike(prof, flows), 0)
		for _, fl := range Fig12Filters {
			sp := measure(fig12Run(fl.Filter, false, tr), fig12Run(fl.Filter, true, tr))
			comp, interp := sp[0], sp[1]
			speedup := 0.0
			if comp.Median > 0 {
				speedup = interp.Median / comp.Median
			}
			out = append(out, Fig12Point{
				Trace: prof.Name(), Filter: fl.Label,
				CompiledSec: comp.Median, InterpSec: interp.Median,
				CompiledSpread: comp, InterpSpread: interp, Speedup: speedup,
			})
		}
	}
	return out
}

// fig12Run returns one side of a cell: a fresh runtime for the filter
// and engine, run offline over tr, in CPU seconds.
func fig12Run(filterSrc string, interpreted bool, tr *traffic.Trace) func() float64 {
	return func() float64 {
		cfg := baseConfig()
		cfg.Filter = filterSrc
		cfg.Cores = 1
		cfg.Interpreted = interpreted
		cfg.PoolSize = 8192
		// The Appendix B task: log TLS handshakes matching the filter.
		rt := newRuntime(cfg, retina.TLSHandshakes(func(*retina.TLSHandshake, *retina.SessionEvent) {}))
		return cpuTime(func() { rt.RunOffline(tr.Replay()) }).Seconds()
	}
}

// PrintFig12 renders the speedup grid.
func PrintFig12(w io.Writer, pts []Fig12Point) {
	fmt.Fprintln(w, "Figure 12 (Appendix B): speedup of compiled over interpreted filters")
	fmt.Fprintln(w, "Paper: 5.4%-300.4% speedup; larger for complex filters (Netflix 32-predicate).")
	fmt.Fprintln(w)
	tbl := &Table{Header: []string{"trace", "filter", "compiled s", "compiled IQR", "interpreted s", "interpreted IQR", "speedup"}}
	for _, p := range pts {
		tbl.Add(p.Trace, p.Filter, fmt.Sprintf("%.4f", p.CompiledSec), quartiles(p.CompiledSpread),
			fmt.Sprintf("%.4f", p.InterpSec), quartiles(p.InterpSpread), ratio(p.InterpSpread, p.CompiledSpread))
	}
	tbl.Write(w)
}
