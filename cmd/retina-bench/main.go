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
	exp := flag.String("experiment", "all", "experiment to run: fig5, fig6, fig7, fig8, fig9, fig12, table2, ablations, all")
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = full documented configuration)")
	seed := flag.Int64("seed", 1, "generator seed")
	burst := flag.Int("burst", 0, "datapath burst size for all experiments (0 = default 32, 1 = one-packet bursts through the same code)")
	subsFile := flag.String("subs", "", "JSON file of {name, filter, callback} subscription specs; benches them as one multi-subscription set instead of -experiment")
	cores := flag.Int("cores", 4, "cores for the -subs multi-subscription bench")
	offload := flag.Bool("offload", false, "enable the dynamic flow-offload fastpath for the -subs bench (per-flow drop rules for terminally-decided connections)")
	offloadRules := flag.Int("offload-rules", 0, "flow-offload rule-table budget (0 = device capacity)")
	offloadIdle := flag.Duration("offload-idle", 0, "flow-offload idle eviction horizon in virtual time (0 = 5s default, negative = never)")
	latency := flag.Bool("latency", false, "enable latency tracking for the -subs bench and print the observability report (rx→delivery percentiles, per-stage cycles, duty cycle, RSS skew)")
	rebalanceOn := flag.Bool("rebalance", false, "enable the adaptive RSS rebalancer for the -subs bench (periodic RETA bucket migration with conntrack handoff)")
	rebalanceInterval := flag.Duration("rebalance-interval", 0, "rebalancer observation interval (0 = 100ms default)")
	rebalanceMoves := flag.Int("rebalance-moves", 0, "max bucket moves per rebalance round (0 = 2 default)")
	rebalanceHyst := flag.Float64("rebalance-hysteresis", 0, "hot-queue skew (hottest over mean) below which buckets stay put (0 = 1.2 default)")
	aggSrc := flag.String("agg", "", `for the -subs bench: attach an aggregation clause ("op[:key[:window[:k]]]" shorthand or JSON) to every packet-level subscription and print the merged reports`)
	flag.Parse()
	experiments.BurstSize = *burst

	if *subsFile != "" {
		fo := retina.FlowOffloadConfig{Enable: *offload, MaxFlowRules: *offloadRules, IdleTimeout: *offloadIdle}
		rb := retina.RebalanceConfig{Enable: *rebalanceOn, Interval: *rebalanceInterval,
			MaxMovesPerRound: *rebalanceMoves, Hysteresis: *rebalanceHyst}
		benchSubs(*subsFile, *aggSrc, *scale, *seed, *burst, *cores, fo, rb, *latency)
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
			flows := int(3000 * *scale)
			if flows < 300 {
				flows = 300
			}
			experiments.PrintFig7(w, experiments.RunFig7(*seed, flows))
		case "fig8":
			experiments.PrintFig8(w, experiments.RunFig8(experiments.DefaultFig8(), *scale))
		case "fig9":
			experiments.PrintFig9(w, experiments.RunFig9(experiments.DefaultFig9(), *scale))
		case "fig12":
			experiments.PrintFig12(w, experiments.RunFig12(experiments.DefaultFig12(), *scale))
		case "table2":
			flows := int(6000 * *scale)
			if flows < 500 {
				flows = 500
			}
			experiments.PrintTable2(w, experiments.RunTable2(*seed, flows))
		case "zeroloss":
			flows := int(2000 * *scale)
			if flows < 200 {
				flows = 200
			}
			experiments.PrintZeroLoss(w, experiments.RunZeroLossSearch("ipv4 and tcp", 2, flows))
		case "ablations":
			flows := int(1500 * *scale)
			if flows < 150 {
				flows = 150
			}
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
func benchSubs(subsFile, aggSrc string, scale float64, seed int64, burst, cores int, fo retina.FlowOffloadConfig, rb retina.RebalanceConfig, latency bool) {
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
	flows := int(6000 * scale)
	if flows < 500 {
		flows = 500
	}
	cfg := retina.DefaultConfig()
	cfg.Cores = cores
	cfg.BurstSize = burst
	cfg.FlowOffload = fo
	cfg.Rebalance = rb
	cfg.LatencyTracking = latency
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
	start := time.Now()
	stats := rt.Run(gen)
	elapsed := time.Since(start)

	var processed uint64
	for _, cs := range stats.Cores {
		processed += cs.Processed
	}
	fmt.Printf("multi-subscription bench: %d subscriptions, %d cores, %d flows\n",
		len(specs), cores, flows)
	fmt.Printf("rx %d frames, processed %d, %.2f Mpps sustained, %v elapsed\n\n",
		stats.NIC.RxFrames, processed,
		float64(processed)/elapsed.Seconds()/1e6, elapsed.Round(time.Millisecond))
	fmt.Println("id  name                  level       delivered  matched-conns  filter")
	for _, info := range rt.ListSubscriptions() {
		fmt.Printf("%-3d %-21s %-10s %10d %14d  %s\n",
			info.ID, info.Name, info.Level, info.Delivered, info.MatchedConns, info.Filter)
	}
	if mgr := rt.Offload(); mgr != nil {
		ms := mgr.Stats()
		fmt.Printf("\nflow offload: %d frames dropped at the device, %d rules installed (peak %d live), %d evicted lru, %d evicted idle\n",
			stats.NIC.HWOffloadDrop, ms.Installed, ms.PeakRules, ms.EvictedLRU, ms.EvictedIdle)
	}
	if reb := rt.Rebalancer(); reb != nil {
		mv, cm := rt.ControlPlane().RebalanceStats()
		fmt.Printf("\nrebalance: %d bucket moves, %d conns migrated, %d rounds (%d failed moves), last skew %.2f\n",
			mv, cm, reb.Rounds(), reb.FailedMoves(), reb.LastSkew())
	}
	if latency {
		printObservability(rt)
	}
	printAggReports(rt)
}

// printAggReports renders every aggregation query's merged windowed
// report (no-op when no subscription carries a clause).
func printAggReports(rt *retina.Runtime) {
	for _, rep := range rt.Aggregates() {
		q := rep.Query
		desc := q.Op
		if q.Key != "" && q.Key != "none" {
			desc += "(" + q.Key + ")"
		}
		if q.Window != "" {
			desc += " window=" + q.Window
		}
		fmt.Printf("\naggregate %s: %s stage=%s — %d events, %d windows sealed\n",
			q.Name, desc, q.Stage, rep.Totals.Events, rep.Totals.WindowsSealed)
		for _, w := range rep.Windows {
			switch {
			case len(w.TopK) > 0:
				fmt.Printf("  window %d:\n", w.Seq)
				for i, g := range w.TopK {
					fmt.Printf("    #%d %-40s %d\n", i+1, g.Key, g.Count)
				}
			case len(w.Groups) > 0:
				fmt.Printf("  window %d: %d groups\n", w.Seq, len(w.Groups))
			case q.Op == "distinct":
				fmt.Printf("  window %d: distinct≈%d\n", w.Seq, w.Distinct)
			default:
				fmt.Printf("  window %d: count=%d sum=%d\n", w.Seq, w.Count, w.Sum)
			}
		}
	}
}

// printObservability renders the latency/duty/skew report: rx→delivery
// percentiles, a Figure 7-style per-stage cycle table built from the
// sampled stage histograms, each core's duty ledger, and the RSS skew.
func printObservability(rt *retina.Runtime) {
	sum := rt.LatencySummary()
	fmt.Printf("\nlatency (rx → delivery, %d samples): p50 %s  p99 %s  p99.9 %s\n",
		sum.Count, metrics.FormatNanos(sum.P50Ns), metrics.FormatNanos(sum.P99Ns),
		metrics.FormatNanos(sum.P999Ns))

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
	for i, c := range rt.Cores() {
		d, w := c.Duty(), c.Witness()
		if d == nil || w == nil {
			continue
		}
		topFlow := "-"
		if top := w.Top(); len(top) > 0 {
			topFlow = fmt.Sprintf("%s (%d pkts)", top[0].Tuple.String(), top[0].Packets)
		}
		fmt.Printf("%-5d  %5.1f   %8.2f   %6d   %7d   %s\n",
			i, d.BusyFraction()*100, d.MeanOccupancy(), d.Bursts(), d.Wakeups(), topFlow)
	}
	fmt.Printf("\nrss skew (max/mean core share): %.3f\n", rt.RSSSkew())
}
