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

	"retina"
	"retina/internal/aggregate"
	"retina/internal/export"
	"retina/internal/filter"
	"retina/internal/nic"
	"retina/internal/telemetry"
	"retina/internal/traffic"
)

func main() { os.Exit(pcapMain()) }

// pcapMain runs the tool and returns its exit status, so the deferred
// flushes and closes run before the process exits.
func pcapMain() int {
	cfg := retina.DefaultConfig()
	cfg.Cores = 1
	cfg.RegisterFlags(flag.CommandLine)
	flag.StringVar(&cfg.Filter, "filter", "", "subscription filter expression")
	flag.BoolVar(&cfg.Interpreted, "interpreted", false, "use the interpreted filter engine")
	flag.IntVar(&cfg.TraceSample, "trace-sample", 0, "trace 1 in N connection lifecycles (0 = off); dump via the metrics endpoint's /traces")
	flag.IntVar(&cfg.MaxConns, "max-conns", 0, "bound the connection table (0 = unlimited); at the bound the longest-idle unestablished connection is evicted")
	flag.BoolVar(&cfg.NoPressureEvict, "no-pressure-evict", false, "with -max-conns, refuse new connections at the bound instead of evicting")
	flag.Int64Var(&cfg.ReassemblyBudget, "reasm-budget", 0, "per-core byte budget for out-of-order reassembly buffers (0 = 8MiB default, negative = unlimited)")
	flag.Int64Var(&cfg.PacketBufBudget, "pktbuf-budget", 0, "per-core byte budget for pre-verdict packet buffers (0 = 8MiB default, negative = unlimited)")
	flag.Int64Var(&cfg.StreamBufBudget, "stream-budget", 0, "per-core byte budget for pre-verdict stream buffers (0 = 16MiB default, negative = unlimited)")
	path := flag.String("r", "", "pcap file to read (required); -cores > 1, -offload and -rebalance replay it through the simulated NIC datapath (online mode)")
	subType := flag.String("subscribe", "conns", "data type: packets, conns, sessions, tls, http")
	quiet := flag.Bool("quiet", false, "suppress per-record output; print summary only")
	explain := flag.Bool("explain", false, "print the filter decomposition and exit")
	jsonlOut := flag.String("o", "", "write connection records as JSONL to this file (conns subscription)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus metrics on this address while processing (e.g. :9090) and print the final drop-reason table")
	subsFile := flag.String("subs", "", "JSON file of {name, filter, callback} subscription specs; runs them all as one multi-subscription set (overrides -filter/-subscribe)")
	aggSrc := flag.String("agg", "", `aggregation clause attached to the subscription: shorthand "op[:key[:window[:k]]]" (e.g. "topk:src_ip:1s:5") or a JSON {"op":...} object; the merged windowed report prints after the run`)
	flag.Parse()

	if *explain {
		out, err := filter.Explain(cfg.Filter, filter.Options{HW: nic.ConnectX5Model()})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
		return 0
	}

	if *path == "" {
		flag.Usage()
		return 2
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

	var sub *retina.Subscription
	if *subsFile == "" {
		sub = subscription(*subType, emit, rec)
	}
	rt, specs, err := newRuntime(cfg, *subsFile, *aggSrc, sub)
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
	process := rt.RunOffline
	if cfg.FlowOffload.Enable || cfg.Rebalance.Enable || cfg.Cores > 1 {
		process = rt.Run
	}
	stats := process(r)
	if err := r.Err(); err != nil {
		log.Fatalf("pcap read error: %v", err)
	}
	if specs != nil {
		fmt.Printf("%d frames read, %d subscriptions, %v elapsed\n\n",
			r.Frames(), len(specs), stats.Elapsed)
		retina.WriteSubscriptionTable(os.Stdout, rt.ListSubscriptions())
	} else {
		var processed uint64
		for _, cs := range stats.Cores {
			processed += cs.Processed
		}
		fmt.Printf("\n%d frames read, %d matched the filter, %d deliveries, %v elapsed\n",
			r.Frames(), processed-rt.DropBreakdown()[telemetry.DropSWFilter], count, stats.Elapsed)
	}
	if reb := rt.Status().Rebalance; reb != nil {
		fmt.Println(reb)
	}
	for _, rep := range rt.Aggregates() {
		rep.WriteText(os.Stdout)
	}
	if cfg.LatencyTracking {
		fmt.Println(rt.LatencySummary())
	}
	if *metricsAddr != "" {
		printDropTable(rt, stats.Frames)
	}
	if err := rt.Check(stats); err != nil {
		fmt.Fprintf(os.Stderr, "frame accounting does not close: %v\n", err)
		return 1
	}
	return 0
}

// newRuntime builds the runtime from the -subs specs when subsFile is
// set (returning them for the summary), else around sub with the
// optional -agg clause.
func newRuntime(cfg retina.Config, subsFile, aggSrc string, sub *retina.Subscription) (*retina.Runtime, []retina.SubscriptionSpec, error) {
	switch {
	case subsFile != "":
		specs, err := retina.LoadSubscriptionSpecs(subsFile)
		if err != nil {
			return nil, nil, err
		}
		if len(specs) == 0 {
			return nil, nil, fmt.Errorf("%s holds no subscription specs", subsFile)
		}
		rt, err := retina.NewDynamic(cfg)
		if err != nil {
			return nil, nil, err
		}
		return rt, specs, rt.AddSubscriptionSpecs(specs)
	case aggSrc != "":
		agg, err := aggregate.ParseShorthand(aggSrc)
		if err != nil {
			return nil, nil, err
		}
		rt, err := retina.NewDynamic(cfg)
		if err != nil {
			return nil, nil, err
		}
		_, err = rt.AddSubscriptionWithAggregate("main", cfg.Filter, sub, agg)
		return rt, nil, err
	}
	rt, err := retina.New(cfg, sub)
	return rt, nil, err
}

// subscription builds the -subscribe callback: each delivery is counted
// through emit, and connection records also go to rec when set.
func subscription(kind string, emit func(format string, args ...any), rec *export.JSONL) *retina.Subscription {
	switch kind {
	case "packets":
		return retina.Packets(func(p *retina.Packet) {
			emit("packet tick=%d len=%d", p.Tick, len(p.Data))
		})
	case "conns":
		return retina.Connections(func(r *retina.ConnRecord) {
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
		return retina.Sessions(func(ev *retina.SessionEvent) {
			emit("session proto=%s id=%d", ev.Session.Proto, ev.Session.ID)
		})
	case "tls":
		return retina.TLSHandshakes(func(h *retina.TLSHandshake, ev *retina.SessionEvent) {
			emit("tls sni=%q cipher=%s version=%#04x", h.SNI, h.CipherName(), h.ServerVersion)
		})
	case "http":
		return retina.HTTPTransactions(func(tx *retina.HTTPTransaction, ev *retina.SessionEvent) {
			emit("http %s %s host=%q status=%d", tx.Method, tx.URI, tx.Host, tx.StatusCode)
		})
	}
	log.Fatalf("unknown subscription type %q", kind)
	return nil
}

// printDropTable renders the final per-reason drop accounting, largest
// first, with each reason's share of frames read.
func printDropTable(rt *retina.Runtime, rx uint64) {
	drops := rt.DropBreakdown()
	if len(drops) == 0 {
		fmt.Println("drops: none")
		return
	}
	fmt.Println("\ndrop reason              count      % of rx")
	for _, k := range telemetry.RankDrops(drops) {
		pct := 0.0
		if rx > 0 {
			pct = float64(drops[k]) / float64(rx) * 100
		}
		fmt.Printf("%-22s %9d   %8.3f%%\n", k, drops[k], pct)
	}
}
