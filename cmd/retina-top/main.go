// Command retina-top is a live terminal view of a running Retina
// instance, in the spirit of top(1): it scrapes the /metrics endpoint
// every interval and renders per-core duty cycle, packet rates,
// rx→delivery latency percentiles, RSS skew, ring occupancy, and the
// drop ledger. It consumes the standard Prometheus text exposition via
// the in-repo parser, so it works against any Retina /metrics endpoint
// (the embedding application's included).
//
// Usage:
//
//	retina-top -url http://host:9090/metrics [-interval 1s]
//	retina-top -once                  # one snapshot, no screen control
//	retina-top -demo [-once]          # self-contained demo: embedded
//	                                  # runtime + synthetic traffic
//
// Latency, duty-cycle, and elephant rows need the target runtime to run
// with Config.LatencyTracking; the rest renders for any runtime.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"retina"
	"retina/internal/aggregate"
	"retina/internal/metrics"
	"retina/internal/telemetry"
	"retina/internal/traffic"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:9090/metrics", "Retina metrics endpoint to scrape")
	interval := flag.Duration("interval", time.Second, "refresh interval")
	once := flag.Bool("once", false, "print one snapshot and exit (no screen control)")
	demo := flag.Bool("demo", false, "run an embedded runtime over synthetic traffic and scrape it (ignores -url)")
	flag.Parse()

	target := *url
	if *demo {
		addr, stop, err := startDemo(*once)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		target = "http://" + addr + "/metrics"
	}

	var prev *snapshot
	for {
		snap, err := scrape(target)
		if err != nil {
			log.Fatal(err)
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, cursor home
		}
		render(os.Stdout, snap, prev)
		if *once {
			return
		}
		prev = snap
		time.Sleep(*interval)
	}
}

// snapshot is one scrape, indexed for rendering.
type snapshot struct {
	when    time.Time
	samples []telemetry.ParsedSample
}

// scrape fetches and parses the exposition.
func scrape(url string) (*snapshot, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: %s", url, resp.Status)
	}
	samples, err := telemetry.ParseExposition(body)
	if err != nil {
		return nil, fmt.Errorf("parsing exposition from %s: %w", url, err)
	}
	return &snapshot{when: time.Now(), samples: samples}, nil
}

// value returns the first sample of name whose labels all match
// (ok=false when absent).
func (s *snapshot) value(name string, labels ...telemetry.Label) (float64, bool) {
	for _, p := range s.samples {
		if p.Name != name {
			continue
		}
		match := true
		for _, l := range labels {
			if p.Label(l.Key) != l.Value {
				match = false
				break
			}
		}
		if match {
			return p.Value, true
		}
	}
	return 0, false
}

// sum adds every sample of name.
func (s *snapshot) sum(name string) float64 {
	var total float64
	for _, p := range s.samples {
		if p.Name == name {
			total += p.Value
		}
	}
	return total
}

// labelValues returns the sorted distinct values of one label across a
// family (numeric sort when all values parse as integers).
func (s *snapshot) labelValues(name, key string) []string {
	seen := map[string]bool{}
	for _, p := range s.samples {
		if p.Name == name {
			if v := p.Label(key); v != "" && !seen[v] {
				seen[v] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		a, ea := strconv.Atoi(out[i])
		b, eb := strconv.Atoi(out[j])
		if ea == nil && eb == nil {
			return a < b
		}
		return out[i] < out[j]
	})
	return out
}

// latencyQuantiles sums the rx→delivery cumulative buckets across cores
// and interpolates the requested quantiles (nil when the family is
// absent — latency tracking off on the target).
func (s *snapshot) latencyQuantiles(qs ...float64) []float64 {
	type bucket struct {
		le  float64
		cum float64
	}
	byLE := map[float64]float64{}
	for _, p := range s.samples {
		if p.Name != "retina_latency_rx_to_delivery_nanoseconds_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(p.Label("le"), 64)
		if err != nil {
			continue
		}
		byLE[le] += p.Value
	}
	if len(byLE) == 0 {
		return nil
	}
	buckets := make([]bucket, 0, len(byLE))
	for le, cum := range byLE {
		buckets = append(buckets, bucket{le, cum})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum
	out := make([]float64, len(qs))
	if total == 0 {
		return out
	}
	for i, q := range qs {
		rank := q * total
		var prevLE, prevCum float64
		for _, b := range buckets {
			if b.cum >= rank {
				le := b.le
				if le > buckets[len(buckets)-2].le && len(buckets) > 1 {
					// +Inf bucket: report the last finite bound.
					le = buckets[len(buckets)-2].le
				}
				if b.cum > prevCum {
					frac := (rank - prevCum) / (b.cum - prevCum)
					out[i] = prevLE + (le-prevLE)*frac
				} else {
					out[i] = le
				}
				break
			}
			prevLE, prevCum = b.le, b.cum
		}
	}
	return out
}

// render draws one frame. prev supplies rate deltas (nil on the first
// frame).
func render(w io.Writer, snap, prev *snapshot) {
	rx := snap.sum("retina_rx_frames_total")
	processed := snap.sum("retina_core_processed_total")
	drops := snap.sum("retina_drops_total")
	var pps float64
	if prev != nil {
		dt := snap.when.Sub(prev.when).Seconds()
		if dt > 0 {
			pps = (processed - prev.sum("retina_core_processed_total")) / dt
		}
	}
	fmt.Fprintf(w, "retina-top  %s\n\n", snap.when.Format("15:04:05"))
	fmt.Fprintf(w, "rx %s   processed %s (%s pps)   drops %s",
		fmtCount(rx), fmtCount(processed), fmtCount(pps), fmtCount(drops))
	if skew, ok := snap.value("retina_rss_skew"); ok {
		fmt.Fprintf(w, "   rss-skew %.2f", skew)
	}
	fmt.Fprintln(w)
	if moves := snap.sum("retina_rebalance_moves_total"); moves > 0 {
		fmt.Fprintf(w, "rebalance  %s bucket moves   %s conns migrated",
			fmtCount(moves), fmtCount(snap.sum("retina_rebalance_conns_migrated_total")))
		if ls, ok := snap.value("retina_rebalance_last_skew"); ok {
			fmt.Fprintf(w, "   window-skew %.2f", ls)
		}
		fmt.Fprintln(w)
	}

	if q := snap.latencyQuantiles(0.50, 0.99, 0.999); q != nil {
		fmt.Fprintf(w, "latency rx→delivery  p50 %s   p99 %s   p99.9 %s\n",
			metrics.FormatNanos(q[0]), metrics.FormatNanos(q[1]), metrics.FormatNanos(q[2]))
	}
	fmt.Fprintln(w)

	// Per-core table.
	cores := snap.labelValues("retina_core_processed_total", "core")
	if len(cores) > 0 {
		fmt.Fprintln(w, "core     pkts     pkts/s   busy%   mean-occ   eleph%   mig in/out")
		for _, cs := range cores {
			lbl := telemetry.L("core", cs)
			p, _ := snap.value("retina_core_processed_total", lbl)
			var rate float64
			if prev != nil {
				dt := snap.when.Sub(prev.when).Seconds()
				if pp, ok := prev.value("retina_core_processed_total", lbl); ok && dt > 0 {
					rate = (p - pp) / dt
				}
			}
			busy, hasBusy := snap.value("retina_core_busy_fraction", lbl)
			occ, _ := snap.value("retina_core_ring_occupancy_mean", lbl)
			eleph, _ := snap.value("retina_core_elephant_share", lbl)
			busyCol, occCol, elCol := "-", "-", "-"
			if hasBusy {
				busyCol = fmt.Sprintf("%5.1f", busy*100)
				occCol = fmt.Sprintf("%8.2f", occ)
				elCol = fmt.Sprintf("%5.1f", eleph*100)
			}
			migIn, _ := snap.value("retina_conntrack_migrated_in_total", lbl)
			migOut, _ := snap.value("retina_conntrack_migrated_out_total", lbl)
			fmt.Fprintf(w, "%-4s %8s %10s   %5s   %8s   %6s   %s/%s\n",
				cs, fmtCount(p), fmtCount(rate), busyCol, occCol, elCol,
				fmtCount(migIn), fmtCount(migOut))
		}
		fmt.Fprintln(w)
	}

	// Aggregation queries (one row per query label on the family).
	type aggRow struct {
		query, stage string
		id           telemetry.Label
	}
	var aggs []aggRow
	seenAgg := map[string]bool{}
	for _, p := range snap.samples {
		if p.Name != "retina_aggregate_events_total" {
			continue
		}
		id := p.Label("id")
		if seenAgg[id] {
			continue
		}
		seenAgg[id] = true
		aggs = append(aggs, aggRow{p.Label("query"), p.Label("stage"), telemetry.L("id", id)})
	}
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].query < aggs[j].query })
	if len(aggs) > 0 {
		fmt.Fprintln(w, "aggregate             stage       events   events/s   windows   keys   late   overflow")
		for _, a := range aggs {
			ev, _ := snap.value("retina_aggregate_events_total", a.id)
			var rate float64
			if prev != nil {
				dt := snap.when.Sub(prev.when).Seconds()
				if pe, ok := prev.value("retina_aggregate_events_total", a.id); ok && dt > 0 {
					rate = (ev - pe) / dt
				}
			}
			wins, _ := snap.value("retina_aggregate_windows_sealed_total", a.id)
			keys, _ := snap.value("retina_aggregate_keys_tracked", a.id)
			late, _ := snap.value("retina_aggregate_late_events_total", a.id)
			ovf, _ := snap.value("retina_aggregate_group_overflow_total", a.id)
			fmt.Fprintf(w, "%-21s %-9s %8s %10s   %7s %6s %6s %10s\n",
				a.query, a.stage, fmtCount(ev), fmtCount(rate), fmtCount(wins),
				fmtCount(keys), fmtCount(late), fmtCount(ovf))
		}
		fmt.Fprintln(w)
	}

	// Ring occupancy.
	queues := snap.labelValues("retina_ring_occupancy", "queue")
	if len(queues) > 0 {
		fmt.Fprint(w, "rings   ")
		for _, qs := range queues {
			lbl := telemetry.L("queue", qs)
			occ, _ := snap.value("retina_ring_occupancy", lbl)
			hw, _ := snap.value("retina_ring_high_water", lbl)
			fmt.Fprintf(w, " q%s %.0f(hw %.0f)", qs, occ, hw)
		}
		fmt.Fprintln(w)
	}

	// Drop breakdown, largest first.
	byReason := map[string]uint64{}
	for _, p := range snap.samples {
		if p.Name == "retina_drops_total" && p.Value > 0 {
			byReason[p.Label("reason")] = uint64(p.Value)
		}
	}
	if len(byReason) > 0 {
		var parts []string
		for _, reason := range telemetry.RankDrops(byReason) {
			parts = append(parts, fmt.Sprintf("%s:%s", reason, fmtCount(float64(byReason[reason]))))
		}
		fmt.Fprintf(w, "drops    %s\n", strings.Join(parts, "  "))
	}
}

// fmtCount renders a count compactly (k/M suffixes past 5 digits).
func fmtCount(v float64) string {
	switch {
	case v >= 1e7:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e5:
		return fmt.Sprintf("%.0fk", v/1e3)
	}
	return fmt.Sprintf("%.0f", v)
}

// startDemo builds an embedded runtime with latency tracking, serves
// its metrics on a loopback port, and pushes a synthetic campus mix
// through it — synchronously when sync is set (so a single -once scrape
// sees the finished run), in the background otherwise.
func startDemo(sync bool) (addr string, stop func(), err error) {
	cfg := retina.DefaultConfig()
	cfg.Cores = 4
	cfg.LatencyTracking = true
	// Run the adaptive rebalancer aggressively so its migration counters
	// light up in the demo view.
	cfg.Rebalance = retina.RebalanceConfig{
		Enable:           true,
		Interval:         5 * time.Millisecond,
		MaxMovesPerRound: 4,
		Hysteresis:       1.1,
	}
	rt, err := retina.NewDynamic(cfg)
	if err != nil {
		return "", nil, err
	}
	// A session-protocol filter routes packets through the stateful
	// pipeline, so the per-stage histograms and the elephant witness
	// carry data — an empty filter would verdict at the packet layer and
	// leave those demo columns empty.
	if _, err := rt.AddSubscription("tls", "tls", retina.Packets(func(*retina.Packet) {})); err != nil {
		return "", nil, err
	}
	// A packet-decidable aggregation lights up the aggregate table (and
	// exercises the below-conntrack push-down path).
	agg, err := aggregate.ParseShorthand("topk:src_ip:50ms:5")
	if err != nil {
		return "", nil, err
	}
	if _, err := rt.AddSubscriptionWithAggregate("top-talkers", "ipv4",
		retina.Packets(func(*retina.Packet) {}), agg); err != nil {
		return "", nil, err
	}
	srv, err := rt.ServeMetrics("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	flows := 500
	if !sync {
		flows = 20000
	}
	gen := traffic.NewCampusMix(traffic.CampusConfig{Seed: 1, Flows: flows, Gbps: 100})
	if sync {
		rt.Run(gen)
	} else {
		go rt.Run(gen)
	}
	return srv.Addr(), func() { _ = srv.Close() }, nil
}
