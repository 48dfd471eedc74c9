// Command retina-pcap runs a Retina subscription over a pcap trace
// (offline mode). It supports the three data abstraction levels and
// prints what the subscription delivers.
//
// Usage:
//
//	retina-pcap -r trace.pcap -filter "tls.sni matches '\.com$'" -subscribe tls
//	retina-pcap -r trace.pcap -filter "ipv4 and tcp" -subscribe conns
//	retina-pcap -r trace.pcap -filter "udp" -subscribe packets -quiet
//	retina-pcap -r trace.pcap -subs subscriptions.json
//
// With -subs, a JSON array of {name, filter, callback} specs defines a
// multi-subscription run: each filter is compiled independently, merged
// by the control plane, and the per-subscription delivery counts are
// printed at the end.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"retina"
	"retina/internal/aggregate"
	"retina/internal/export"
	"retina/internal/filter"
	"retina/internal/metrics"
	"retina/internal/nic"
	"retina/internal/traffic"
)

func main() {
	path := flag.String("r", "", "pcap file to read (required)")
	filterSrc := flag.String("filter", "", "subscription filter expression")
	subType := flag.String("subscribe", "conns", "data type: packets, conns, sessions, tls, http")
	quiet := flag.Bool("quiet", false, "suppress per-record output; print summary only")
	interpreted := flag.Bool("interpreted", false, "use the interpreted filter engine")
	explain := flag.Bool("explain", false, "print the filter decomposition and exit")
	jsonlOut := flag.String("o", "", "write connection records as JSONL to this file (conns subscription)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus metrics on this address while processing (e.g. :9090) and print the final drop-reason table")
	traceSample := flag.Int("trace-sample", 0, "trace 1 in N connection lifecycles (0 = off); dump via the metrics endpoint's /traces")
	maxConns := flag.Int("max-conns", 0, "bound the connection table (0 = unlimited); at the bound the longest-idle unestablished connection is evicted")
	noPressureEvict := flag.Bool("no-pressure-evict", false, "with -max-conns, refuse new connections at the bound instead of evicting")
	reasmBudget := flag.Int64("reasm-budget", 0, "per-core byte budget for out-of-order reassembly buffers (0 = 8MiB default, negative = unlimited)")
	pktbufBudget := flag.Int64("pktbuf-budget", 0, "per-core byte budget for pre-verdict packet buffers (0 = 8MiB default, negative = unlimited)")
	streamBudget := flag.Int64("stream-budget", 0, "per-core byte budget for pre-verdict stream buffers (0 = 16MiB default, negative = unlimited)")
	burst := flag.Int("burst", 0, "datapath burst size (0 = default 32, 1 = one-packet bursts through the same code)")
	subsFile := flag.String("subs", "", "JSON file of {name, filter, callback} subscription specs; runs them all as one multi-subscription set (overrides -filter/-subscribe)")
	offload := flag.Bool("offload", false, "enable the dynamic flow-offload fastpath; the trace is replayed through the simulated NIC datapath (online mode) so decided flows are dropped at the device")
	offloadRules := flag.Int("offload-rules", 0, "flow-offload rule-table budget (0 = device capacity)")
	offloadIdle := flag.Duration("offload-idle", 0, "flow-offload idle eviction horizon in virtual time (0 = 5s default, negative = never)")
	latency := flag.Bool("latency", false, "enable latency tracking and print rx→delivery percentiles in the summary")
	coresN := flag.Int("cores", 1, "processing cores; >1 replays the trace through the simulated NIC datapath (online mode) with RSS dispatch")
	rebalanceOn := flag.Bool("rebalance", false, "enable the adaptive RSS rebalancer (needs -cores > 1); implies online mode")
	rebalanceInterval := flag.Duration("rebalance-interval", 0, "rebalancer observation interval (0 = 100ms default)")
	rebalanceMoves := flag.Int("rebalance-moves", 0, "max bucket moves per rebalance round (0 = 2 default)")
	rebalanceHyst := flag.Float64("rebalance-hysteresis", 0, "hot-queue skew (hottest over mean) below which buckets stay put (0 = 1.2 default)")
	aggSrc := flag.String("agg", "", `aggregation clause attached to the subscription: shorthand "op[:key[:window[:k]]]" (e.g. "topk:src_ip:1s:5") or a JSON {"op":...} object; the merged windowed report prints after the run`)
	flag.Parse()

	if *explain {
		out, err := filter.Explain(*filterSrc, filter.Options{HW: nic.ConnectX5Model()})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
		return
	}

	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}

	cfg := retina.DefaultConfig()
	cfg.Filter = *filterSrc
	cfg.Cores = *coresN
	cfg.Interpreted = *interpreted
	cfg.TraceSample = *traceSample
	cfg.MaxConns = *maxConns
	cfg.NoPressureEvict = *noPressureEvict
	cfg.ReassemblyBudget = *reasmBudget
	cfg.PacketBufBudget = *pktbufBudget
	cfg.StreamBufBudget = *streamBudget
	cfg.BurstSize = *burst
	cfg.LatencyTracking = *latency
	cfg.FlowOffload = retina.FlowOffloadConfig{
		Enable:       *offload,
		MaxFlowRules: *offloadRules,
		IdleTimeout:  *offloadIdle,
	}
	cfg.Rebalance = retina.RebalanceConfig{
		Enable:           *rebalanceOn,
		Interval:         *rebalanceInterval,
		MaxMovesPerRound: *rebalanceMoves,
		Hysteresis:       *rebalanceHyst,
	}

	count := 0
	emit := func(format string, args ...any) {
		count++
		if !*quiet {
			fmt.Printf(format+"\n", args...)
		}
	}

	var rec *export.JSONL
	if *jsonlOut != "" {
		f, err := os.Create(*jsonlOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		rec = export.NewJSONL(f)
		defer rec.Flush()
	}

	if *subsFile != "" {
		runSpecs(cfg, *subsFile, *path, *metricsAddr)
		return
	}

	var sub *retina.Subscription
	switch *subType {
	case "packets":
		sub = retina.Packets(func(p *retina.Packet) {
			emit("packet tick=%d len=%d", p.Tick, len(p.Data))
		})
	case "conns":
		sub = retina.Connections(func(r *retina.ConnRecord) {
			if rec != nil {
				if err := rec.Write(r); err != nil {
					log.Fatalf("writing record: %v", err)
				}
			}
			emit("conn proto=%d service=%s pkts=%d/%d bytes=%d/%d established=%v",
				r.Tuple.Proto, r.Service, r.PktsOrig, r.PktsResp,
				r.BytesOrig, r.BytesResp, r.Established)
		})
	case "sessions":
		sub = retina.Sessions(func(ev *retina.SessionEvent) {
			emit("session proto=%s id=%d", ev.Session.Proto, ev.Session.ID)
		})
	case "tls":
		sub = retina.TLSHandshakes(func(h *retina.TLSHandshake, ev *retina.SessionEvent) {
			emit("tls sni=%q cipher=%s version=%#04x", h.SNI, h.CipherName(), h.ServerVersion)
		})
	case "http":
		sub = retina.HTTPTransactions(func(tx *retina.HTTPTransaction, ev *retina.SessionEvent) {
			emit("http %s %s host=%q status=%d", tx.Method, tx.URI, tx.Host, tx.StatusCode)
		})
	default:
		log.Fatalf("unknown subscription type %q", *subType)
	}

	var rt *retina.Runtime
	var err error
	if *aggSrc != "" {
		agg, perr := aggregate.ParseShorthand(*aggSrc)
		if perr != nil {
			log.Fatal(perr)
		}
		rt, err = retina.NewDynamic(cfg)
		if err == nil {
			_, err = rt.AddSubscriptionWithAggregate("main", *filterSrc, sub, agg)
		}
	} else {
		rt, err = retina.New(cfg, sub)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *metricsAddr != "" {
		srv, err := rt.ServeMetrics(*metricsAddr)
		if err != nil {
			log.Fatalf("metrics endpoint: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", srv.Addr())
	}
	r, err := traffic.OpenPcap(*path)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()

	// The flow-offload fastpath and the RSS rebalancer live in the
	// device, which offline mode bypasses — with -offload, -rebalance,
	// or -cores > 1 the trace goes through the full online datapath
	// instead.
	run := rt.RunOffline
	if *offload || cfg.Rebalance.Enable || cfg.Cores > 1 {
		run = rt.Run
	}
	stats := run(r)
	if err := r.Err(); err != nil {
		log.Fatalf("pcap read error: %v", err)
	}
	var processed, filterDropped uint64
	for _, cs := range stats.Cores {
		processed += cs.Processed
		filterDropped += cs.FilterDropped
	}
	fmt.Printf("\n%d frames read, %d matched the filter, %d deliveries, %v elapsed\n",
		r.Frames(), processed-filterDropped, count, stats.Elapsed)
	if reb := rt.Rebalancer(); reb != nil {
		mv, cm := rt.ControlPlane().RebalanceStats()
		fmt.Printf("rebalance: %d bucket moves, %d conns migrated, %d rounds (%d failed moves), last skew %.2f\n",
			mv, cm, reb.Rounds(), reb.FailedMoves(), reb.LastSkew())
	}
	if *aggSrc != "" {
		printAggregates(rt)
	}
	if *latency {
		printLatency(rt)
	}
	if *metricsAddr != "" {
		// Offline mode bypasses the simulated NIC, so frames read from
		// the pcap is the denominator.
		rx := stats.NIC.RxFrames
		if rx == 0 {
			rx = r.Frames()
		}
		printDropTable(rt, rx)
	}
}

// runSpecs replays the trace against a declarative multi-subscription
// set and prints each subscription's delivery counters.
func runSpecs(cfg retina.Config, subsFile, path, metricsAddr string) {
	specs, err := retina.LoadSubscriptionSpecs(subsFile)
	if err != nil {
		log.Fatal(err)
	}
	if len(specs) == 0 {
		log.Fatalf("%s holds no subscription specs", subsFile)
	}
	rt, err := retina.NewDynamic(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := rt.AddSubscriptionSpecs(specs); err != nil {
		log.Fatal(err)
	}
	if metricsAddr != "" {
		srv, err := rt.ServeMetrics(metricsAddr)
		if err != nil {
			log.Fatalf("metrics endpoint: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", srv.Addr())
	}
	r, err := traffic.OpenPcap(path)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()

	run := rt.RunOffline
	if cfg.FlowOffload.Enable || cfg.Rebalance.Enable || cfg.Cores > 1 {
		run = rt.Run
	}
	stats := run(r)
	if err := r.Err(); err != nil {
		log.Fatalf("pcap read error: %v", err)
	}
	fmt.Printf("%d frames read, %d subscriptions, %v elapsed\n\n",
		r.Frames(), len(specs), stats.Elapsed)
	fmt.Println("id  name                  level       delivered  matched-conns  filter")
	for _, info := range rt.ListSubscriptions() {
		fmt.Printf("%-3d %-21s %-10s %10d %14d  %s\n",
			info.ID, info.Name, info.Level, info.Delivered, info.MatchedConns, info.Filter)
	}
	printAggregates(rt)
	if metricsAddr != "" {
		rx := stats.NIC.RxFrames
		if rx == 0 {
			rx = r.Frames()
		}
		printDropTable(rt, rx)
	}
}

// printAggregates renders every query's merged windowed report.
func printAggregates(rt *retina.Runtime) {
	for _, rep := range rt.Aggregates() {
		fmt.Printf("\naggregate %s: %s — %d events, %d windows sealed\n",
			rep.Query.Name, queryDesc(rep), rep.Totals.Events, rep.Totals.WindowsSealed)
		if rep.Totals.Late > 0 || rep.Totals.GroupOverflow > 0 {
			fmt.Printf("  (%d late events dropped, %d group-table overflows)\n",
				rep.Totals.Late, rep.Totals.GroupOverflow)
		}
		for _, w := range rep.Windows {
			fmt.Printf("  window %d [%d..%d)us:", w.Seq, w.StartTick, w.EndTick)
			switch {
			case len(w.TopK) > 0:
				fmt.Println()
				for i, g := range w.TopK {
					fmt.Printf("    #%d %-40s %d\n", i+1, g.Key, g.Count)
				}
			case len(w.Groups) > 0:
				fmt.Printf(" %d groups\n", len(w.Groups))
				for _, g := range w.Groups {
					if rep.Query.Op == "sum" {
						fmt.Printf("    %-42s count=%d sum=%d\n", g.Key, g.Count, g.Sum)
					} else {
						fmt.Printf("    %-42s %d\n", g.Key, g.Count)
					}
				}
			case rep.Query.Op == "distinct":
				fmt.Printf(" distinct≈%d\n", w.Distinct)
			case rep.Query.Op == "sum":
				fmt.Printf(" count=%d sum=%d\n", w.Count, w.Sum)
			default:
				fmt.Printf(" count=%d\n", w.Count)
			}
		}
	}
}

func queryDesc(rep retina.AggregateReport) string {
	q := rep.Query
	s := q.Op
	if q.Key != "" && q.Key != "none" {
		s += "(" + q.Key + ")"
	}
	if q.Window != "" {
		s += " window=" + q.Window
	}
	return s + " stage=" + q.Stage
}

// printLatency renders the rx→delivery percentile summary.
func printLatency(rt *retina.Runtime) {
	sum := rt.LatencySummary()
	fmt.Printf("latency (rx → delivery, %d samples): p50 %s  p99 %s  p99.9 %s\n",
		sum.Count, metrics.FormatNanos(sum.P50Ns), metrics.FormatNanos(sum.P99Ns),
		metrics.FormatNanos(sum.P999Ns))
}

// printDropTable renders the final per-reason drop accounting, largest
// first, with each reason's share of frames read.
func printDropTable(rt *retina.Runtime, rx uint64) {
	drops := rt.DropBreakdown()
	if len(drops) == 0 {
		fmt.Println("drops: none")
		return
	}
	reasons := make([]string, 0, len(drops))
	for k := range drops {
		reasons = append(reasons, k)
	}
	sort.Slice(reasons, func(i, j int) bool {
		if drops[reasons[i]] != drops[reasons[j]] {
			return drops[reasons[i]] > drops[reasons[j]]
		}
		return reasons[i] < reasons[j]
	})
	fmt.Println("\ndrop reason              count      % of rx")
	for _, k := range reasons {
		pct := 0.0
		if rx > 0 {
			pct = float64(drops[k]) / float64(rx) * 100
		}
		fmt.Printf("%-22s %9d   %8.3f%%\n", k, drops[k], pct)
	}
}
