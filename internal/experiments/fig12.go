package experiments

import (
	"fmt"
	"io"
	"runtime"

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

// Fig12Point is one (trace, filter) speedup measurement.
type Fig12Point struct {
	Trace       string
	Filter      string
	CompiledSec float64
	InterpSec   float64
	Speedup     float64
}

// Fig12Config parameterizes the compiled-vs-interpreted comparison.
type Fig12Config struct {
	FlowsPerTrace int
	Repeats       int
}

// DefaultFig12 mirrors Appendix B: four traces, five filters, offline
// single-core processing, TLS handshake logging.
func DefaultFig12() Fig12Config { return Fig12Config{FlowsPerTrace: 800, Repeats: 3} }

// RunFig12 measures the CPU-time speedup of natively compiled filters
// over runtime-interpreted filters per trace and filter.
func RunFig12(cfg Fig12Config, scale float64) []Fig12Point {
	flows := int(float64(cfg.FlowsPerTrace) * scale)
	if flows < 100 {
		flows = 100
	}
	var out []Fig12Point
	for _, prof := range []traffic.StratosphereProfile{traffic.Norm7, traffic.Norm12, traffic.Norm20, traffic.Norm30} {
		// Materialize the trace once.
		tr := traffic.Collect(traffic.NewStratosphereLike(prof, flows), 0)
		for _, fl := range Fig12Filters {
			comp := fig12Run(fl.Filter, false, tr, cfg.Repeats)
			interp := fig12Run(fl.Filter, true, tr, cfg.Repeats)
			sp := 0.0
			if comp > 0 {
				sp = interp / comp
			}
			out = append(out, Fig12Point{
				Trace: prof.Name(), Filter: fl.Label,
				CompiledSec: comp, InterpSec: interp, Speedup: sp,
			})
		}
	}
	return out
}

func fig12Run(filterSrc string, interpreted bool, tr *traffic.Trace, repeats int) float64 {
	best := 0.0
	for r := 0; r < repeats; r++ {
		cfg := baseConfig()
		cfg.Filter = filterSrc
		cfg.Cores = 1
		cfg.Interpreted = interpreted
		cfg.PoolSize = 8192
		// The Appendix B task: log TLS handshakes matching the filter.
		rt, err := retina.New(cfg, retina.TLSHandshakes(func(*retina.TLSHandshake, *retina.SessionEvent) {}))
		if err != nil {
			panic(fmt.Sprintf("fig12 filter %q: %v", filterSrc, err))
		}
		el := offlineCPUSeconds(rt, tr.Replay())
		if best == 0 || el < best {
			best = el
		}
	}
	return best
}

// offlineCPUSeconds runs src through rt offline and returns the CPU time
// the run took. RunOffline works entirely on the calling goroutine, so
// the goroutine is held on its OS thread and timed by that thread's CPU
// clock: time another process takes from the CPU is not charged to the
// run, as the wall clock would charge it.
func offlineCPUSeconds(rt *retina.Runtime, src retina.Source) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadTime()
	rt.RunOffline(src)
	return (threadTime() - t0).Seconds()
}

// PrintFig12 renders the speedup grid.
func PrintFig12(w io.Writer, pts []Fig12Point) {
	fmt.Fprintln(w, "Figure 12 (Appendix B): speedup of compiled over interpreted filters")
	fmt.Fprintln(w, "Paper: 5.4%-300.4% speedup; larger for complex filters (Netflix 32-predicate).")
	fmt.Fprintln(w)
	tbl := &Table{Header: []string{"trace", "filter", "compiled s", "interpreted s", "speedup"}}
	for _, p := range pts {
		tbl.Add(p.Trace, p.Filter, fmt.Sprintf("%.4f", p.CompiledSec),
			fmt.Sprintf("%.4f", p.InterpSec), fmt.Sprintf("%.2fx", p.Speedup))
	}
	tbl.Write(w)
}
