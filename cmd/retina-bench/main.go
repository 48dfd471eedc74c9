// Command retina-bench regenerates the paper's tables and figures on
// the simulated substrate. Each experiment prints the measured values
// next to the paper's reported ones; EXPERIMENTS.md records both.
//
// Usage:
//
//	retina-bench -experiment fig5|fig6|fig7|fig8|fig9|fig12|table2|ablations|all [-scale 0.25]
//	retina-bench -subs subscriptions.json [-scale 0.5]
//
// With -subs, a JSON array of {name, filter, callback} specs is run as
// one multi-subscription set over the campus-mix workload and the
// sustained throughput plus per-subscription delivery counts are
// reported (the control-plane analogue of the single-subscription
// experiments).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"retina"
	"retina/internal/aggregate"
	"retina/internal/core"
	"retina/internal/experiments"
	"retina/internal/metrics"
	"retina/internal/traffic"
)

func main() {
	cfg := retina.DefaultConfig()
	cfg.RegisterFlags(flag.CommandLine)
	exp := flag.String("experiment", "all", "experiment to run: fig5, fig6, fig7, fig8, fig9, fig12, table2, ablations, all")
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = full documented configuration)")
	seed := flag.Int64("seed", 1, "generator seed")
	subsFile := flag.String("subs", "", "JSON file of {name, filter, callback} subscription specs; benches them as one multi-subscription set instead of -experiment (the runtime flags apply to this bench; -burst also applies to the experiments)")
	aggSrc := flag.String("agg", "", `for the -subs bench: attach an aggregation clause ("op[:key[:window[:k]]]" shorthand or JSON) to every packet-level subscription and print the merged reports`)
	flag.Parse()
	experiments.BurstSize = cfg.BurstSize

	if *subsFile != "" {
		benchSubs(cfg, *subsFile, *aggSrc, *scale, *seed)
		return
	}

	w := os.Stdout
	run := func(name string) {
		fmt.Fprintf(w, "\n================ %s ================\n\n", name)
		switch name {
		case "fig5":
			experiments.PrintFig5(w, experiments.RunFig5(experiments.DefaultFig5(), *scale))
		case "fig6":
			experiments.PrintFig6(w, experiments.RunFig6(experiments.DefaultFig6(), *scale))
		case "fig7":
			flows := max(int(*scale*3000), 300)
			experiments.PrintFig7(w, experiments.RunFig7(*seed, flows))
		case "fig8":
			experiments.PrintFig8(w, experiments.RunFig8(experiments.DefaultFig8(), *scale))
		case "fig9":
			experiments.PrintFig9(w, experiments.RunFig9(experiments.DefaultFig9(), *scale))
		case "fig12":
			experiments.PrintFig12(w, experiments.RunFig12(experiments.DefaultFig12(), *scale))
		case "table2":
			flows := max(int(*scale*6000), 500)
			experiments.PrintTable2(w, experiments.RunTable2(*seed, flows))
		case "zeroloss":
			flows := max(int(*scale*2000), 200)
			experiments.PrintZeroLoss(w, experiments.RunZeroLossSearch("ipv4 and tcp", 2, flows))
		case "ablations":
			flows := max(int(*scale*1500), 150)
			experiments.PrintAblations(w, []experiments.AblationResult{
				experiments.RunHWFilterAblation(*seed, flows),
				experiments.RunLazyParsingAblation(*seed, flows),
			})
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	if *exp == "all" {
		for _, name := range []string{"table2", "fig7", "fig6", "fig5", "fig8", "fig9", "fig12", "ablations"} {
			run(name)
		}
		return
	}
	run(*exp)
}

// benchSubs runs a declarative multi-subscription set over the campus
// mix and reports throughput next to the per-subscription counters.
func benchSubs(cfg retina.Config, subsFile, aggSrc string, scale float64, seed int64) {
	specs, err := retina.LoadSubscriptionSpecs(subsFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(specs) == 0 {
		fmt.Fprintf(os.Stderr, "%s holds no subscription specs\n", subsFile)
		os.Exit(1)
	}
	if aggSrc != "" {
		agg, err := aggregate.ParseShorthand(aggSrc)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Attach the clause to every spec that doesn't carry its own; a
		// clause/level mismatch surfaces as a per-spec Add error below.
		for i := range specs {
			if specs[i].Aggregate == nil {
				specs[i].Aggregate = agg
			}
		}
	}
	flows := max(int(6000*scale), 500)
	rt, err := retina.NewDynamic(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := rt.AddSubscriptionSpecs(specs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	gen := traffic.NewCampusMix(traffic.CampusConfig{Seed: seed, Flows: flows, Gbps: 100})
	stats := rt.Run(gen)

	var processed uint64
	for _, cs := range stats.Cores {
		processed += cs.Processed
	}
	fmt.Printf("multi-subscription bench: %d subscriptions, %d cores, %d flows\n",
		len(specs), cfg.Cores, flows)
	fmt.Printf("rx %d frames, processed %d, %.2f Mpps sustained, %v elapsed\n\n",
		stats.NIC.RxFrames, processed,
		float64(processed)/stats.Elapsed.Seconds()/1e6, stats.Elapsed.Round(time.Millisecond))
	retina.WriteSubscriptionTable(os.Stdout, rt.ListSubscriptions())
	if mgr := rt.Offload(); mgr != nil {
		ms := mgr.Stats()
		fmt.Printf("\nflow offload: %d frames dropped at the device, %d rules installed (peak %d live), %d evicted lru, %d evicted idle\n",
			stats.NIC.HWOffloadDrop, ms.Installed, ms.PeakRules, ms.EvictedLRU, ms.EvictedIdle)
	}
	status := rt.Status()
	if reb := status.Rebalance; reb != nil {
		fmt.Printf("\n%s\n", reb)
	}
	if obs := status.Observability; obs != nil {
		printObservability(rt, obs)
	}
	for _, rep := range rt.Aggregates() {
		rep.WriteText(os.Stdout)
	}
}

// printObservability renders the latency/duty/skew report: rx→delivery
// percentiles, a Figure 7-style per-stage cycle table built from the
// sampled stage histograms, each core's duty ledger, and the RSS skew.
func printObservability(rt *retina.Runtime, obs *retina.ObservabilityStatus) {
	fmt.Printf("\n%s\n", obs.Latency)

	fmt.Println("\nstage            samples    p50          p99          ~cycles(p50)")
	for _, st := range core.Stages() {
		ss := rt.StageLatencySummary(st)
		if ss.Count == 0 {
			continue
		}
		fmt.Printf("%-15s %8d   %-10s   %-10s   %8.0f\n",
			st.Slug(), ss.Count, metrics.FormatNanos(ss.P50Ns),
			metrics.FormatNanos(ss.P99Ns), metrics.NsToCycles(ss.P50Ns))
	}

	fmt.Println("\ncore   busy%   mean-occ   bursts   wakeups   top flow")
	for _, d := range obs.Cores {
		topFlow := "-"
		if len(d.Elephants) > 0 {
			topFlow = fmt.Sprintf("%s (%d pkts)", d.Elephants[0].Flow, d.Elephants[0].Packets)
		}
		fmt.Printf("%-5d  %5.1f   %8.2f   %6d   %7d   %s\n",
			d.Core, d.BusyFraction*100, d.MeanOccupancy, d.Bursts, d.Wakeups, topFlow)
	}
	fmt.Printf("\nrss skew (max/mean core share): %.3f\n", rt.RSSSkew())
}
