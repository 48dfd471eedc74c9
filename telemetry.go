package retina

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"retina/internal/conntrack"
	"retina/internal/core"
	"retina/internal/nic"
	"retina/internal/overload"
	"retina/internal/telemetry"
)

// Registry exposes the runtime's metric registry (for embedding Retina's
// metrics into an application's own exposition).
func (r *Runtime) Registry() *telemetry.Registry { return r.reg }

// Tracer exposes the connection tracer (nil unless Config.TraceSample
// was set).
func (r *Runtime) Tracer() *telemetry.ConnTracer { return r.tracer }

// sumCores folds one CoreStats field across all cores.
func (r *Runtime) sumCores(f func(core.CoreStats) uint64) uint64 {
	var total uint64
	for _, c := range r.cores {
		total += f(c.Stats())
	}
	return total
}

// dropLedger maps every drop reason to the counter it is read from, in
// retina_drops_total series order. The registry and DropBreakdown both
// read through it.
var dropLedger = []struct {
	reason string
	count  func(*Runtime) uint64
}{
	{telemetry.DropMalformed, nicDrops(func(s nic.Stats) uint64 { return s.Malformed })},
	{telemetry.DropHWFilter, nicDrops(func(s nic.Stats) uint64 { return s.HWDropped })},
	{telemetry.DropHWOffload, nicDrops(func(s nic.Stats) uint64 { return s.HWOffloadDrop })},
	// Offline mode refuses oversize frames before they reach the device.
	{telemetry.DropOversize, func(r *Runtime) uint64 { return r.dev.Stats().Oversize + r.offlineOversize.Load() }},
	{telemetry.DropRSSSink, nicDrops(func(s nic.Stats) uint64 { return s.Sunk })},
	{telemetry.DropRingOverflow, nicDrops(func(s nic.Stats) uint64 { return s.RingDrops })},
	// Offline mode allocates from the pool directly; count every failed
	// allocation exactly once.
	{telemetry.DropPoolExhausted, func(r *Runtime) uint64 {
		_, fails := r.pool.Stats()
		return max(fails, r.dev.Stats().NoMbuf)
	}},
	{telemetry.DropSWFilter, coreDrops(func(s core.CoreStats) uint64 { return s.FilterDropped })},
	{telemetry.DropNotTrackable, coreDrops(func(s core.CoreStats) uint64 { return s.NotTrackable })},
	{telemetry.DropTableFull, coreDrops(func(s core.CoreStats) uint64 { return s.TableFull })},
	{telemetry.DropConnRejected, coreDrops(func(s core.CoreStats) uint64 { return s.TombstonePkts })},
	{telemetry.DropPktBufOverflow, coreDrops(func(s core.CoreStats) uint64 { return s.PktBufOverflow })},
	{telemetry.DropPendingDiscard, coreDrops(func(s core.CoreStats) uint64 { return s.PendingDiscard })},
	{telemetry.DropStreamBufOverflow, coreDrops(func(s core.CoreStats) uint64 { return s.StreamBufOverflow })},
	{telemetry.DropReasmBufferFull, coreDrops(func(s core.CoreStats) uint64 { return s.ReasmDropped })},
	{telemetry.DropReasmBudget, coreDrops(func(s core.CoreStats) uint64 { return s.ReasmBudgetDrops })},
	{telemetry.DropPktBufBudget, coreDrops(func(s core.CoreStats) uint64 { return s.PktBufBudget })},
	{telemetry.DropShedLowPool, coreDrops(func(s core.CoreStats) uint64 { return s.ShedLowPool })},
	{telemetry.DropEvictedPressure, coreDrops(func(s core.CoreStats) uint64 { return s.EvictedPressure })},
}

// nicDrops reads a device-side drop counter.
func nicDrops(f func(nic.Stats) uint64) func(*Runtime) uint64 {
	return func(r *Runtime) uint64 { return f(r.dev.Stats()) }
}

// coreDrops sums a core-side drop counter across all cores.
func coreDrops(f func(core.CoreStats) uint64) func(*Runtime) uint64 {
	return func(r *Runtime) uint64 { return r.sumCores(f) }
}

// registerMetrics wires every layer's counters into the registry as pull
// collectors. The layers keep their own atomics; scrapes read them
// through closures, so nothing is double-counted and the hot paths pay
// nothing for exposition.
func (r *Runtime) registerMetrics() {
	reg := r.reg

	// NIC / port counters.
	reg.CounterFunc("retina_rx_frames_total", "frames offered to the simulated port",
		func() uint64 { return r.dev.Stats().RxFrames })
	reg.CounterFunc("retina_delivered_frames_total", "frames enqueued onto receive rings",
		func() uint64 { return r.dev.Stats().Delivered })

	// The drop-reason taxonomy: one series per reason, all under a single
	// family so dashboards can sum and break down losses uniformly.
	for _, d := range dropLedger {
		count := d.count
		reg.CounterFunc("retina_drops_total", "frames dropped, by reason",
			func() uint64 { return count(r) }, telemetry.L("reason", d.reason))
	}

	// Buffer pool.
	reg.GaugeFunc("retina_mbuf_pool_free", "free packet buffers",
		func() float64 { return float64(r.pool.Available()) })
	reg.GaugeFunc("retina_mbuf_pool_size", "total packet buffers",
		func() float64 { return float64(r.pool.Size()) })
	reg.CounterFunc("retina_mbuf_allocs_total", "packet buffer allocations",
		func() uint64 { allocs, _ := r.pool.Stats(); return allocs })
	reg.CounterFunc("retina_mbuf_alloc_fails_total", "failed packet buffer allocations (pool exhausted)",
		func() uint64 { _, fails := r.pool.Stats(); return fails })

	// Per-core pipeline counters.
	for i, c := range r.cores {
		c := c
		lbl := telemetry.L("core", fmt.Sprintf("%d", i))
		reg.CounterFunc("retina_core_processed_total", "mbufs consumed from the receive ring",
			func() uint64 { return c.Stats().Processed }, lbl)
		reg.CounterFunc("retina_conns_created_total", "connections created",
			func() uint64 { return c.Stats().ConnsCreated }, lbl)
		reg.CounterFunc("retina_conns_rejected_total", "connections that failed the filter",
			func() uint64 { return c.Stats().ConnsRejected }, lbl)
		reg.CounterFunc("retina_conns_unidentified_total", "connections whose protocol probing was exhausted",
			func() uint64 { return c.Stats().ConnsUnidentified }, lbl)
		reg.GaugeFunc("retina_conns_live", "connections currently tracked",
			func() float64 { return float64(c.Table().ConcurrentLen()) }, lbl)
		reg.CounterFunc("retina_timer_rearms_total", "lazy timer re-arms (stale wheel entries rescheduled)",
			func() uint64 { return c.Table().Rearmed() }, lbl)
		// Connection-store health (DESIGN.md §15): occupancy vs bucket
		// capacity, worst probe distance, rebuilds, and slab footprint.
		// All zero on the map oracle except load_factor's Live input.
		reg.GaugeFunc("retina_conntrack_load_factor", "connection-store occupancy / bucket-slot capacity",
			func() float64 { return c.Table().IndexStats().LoadFactor }, lbl)
		reg.GaugeFunc("retina_conntrack_probe_len", "worst insert probe length since start (buckets)",
			func() float64 { return float64(c.Table().IndexStats().MaxProbe) }, lbl)
		reg.CounterFunc("retina_conntrack_rehashes_total", "connection-store bucket-array rebuilds",
			func() uint64 { return c.Table().IndexStats().Rehashes }, lbl)
		reg.GaugeFunc("retina_conntrack_slab_bytes", "connection slab footprint in bytes",
			func() float64 { return float64(c.Table().IndexStats().SlabBytes) }, lbl)
		reg.CounterFunc("retina_core_epoch_swaps_total", "program-set epochs picked up at burst boundaries",
			func() uint64 { return c.Stats().EpochSwaps }, lbl)
		// Overload accountant: buffered bytes vs budget per class, so an
		// operator can see pressure building before shedding starts.
		for _, cls := range overload.Classes() {
			cls := cls
			clsLbl := telemetry.L("class", cls.String())
			reg.GaugeFunc("retina_overload_used_bytes", "bytes currently charged to a buffer class",
				func() float64 { return float64(c.Accountant().Used(cls)) }, lbl, clsLbl)
			reg.GaugeFunc("retina_overload_budget_bytes", "byte budget for a buffer class",
				func() float64 { return float64(c.Accountant().Limit(cls)) }, lbl, clsLbl)
		}
		for reason := conntrack.ExpireEstablishTimeout; reason < conntrack.NumExpireReasons; reason++ {
			reason := reason
			reg.CounterFunc("retina_conns_expired_total", "connection removals, by reason",
				func() uint64 { _, expired := c.Table().Stats(); return expired[reason] },
				lbl, telemetry.L("reason", reason.String()))
		}
		for _, kind := range []struct {
			name string
			fn   func(core.CoreStats) uint64
		}{
			{"packets", func(s core.CoreStats) uint64 { return s.DeliveredPackets }},
			{"connections", func(s core.CoreStats) uint64 { return s.DeliveredConns }},
			{"sessions", func(s core.CoreStats) uint64 { return s.DeliveredSessions }},
			{"chunks", func(s core.CoreStats) uint64 { return s.DeliveredChunks }},
		} {
			kind := kind
			reg.CounterFunc("retina_delivered_total", "callback deliveries, by data kind",
				func() uint64 { return kind.fn(c.Stats()) }, lbl, telemetry.L("kind", kind.name))
		}
		reg.CounterFunc("retina_sessions_total", "application-layer sessions parsed",
			func() uint64 { return c.Stats().SessionsSeen }, lbl, telemetry.L("result", "seen"))
		reg.CounterFunc("retina_sessions_total", "application-layer sessions parsed",
			func() uint64 { return c.Stats().SessionsMatch }, lbl, telemetry.L("result", "matched"))
		for _, k := range []struct {
			name string
			fn   func(core.CoreStats) uint64
		}{
			{"in_order", func(s core.CoreStats) uint64 { return s.ReasmInOrder }},
			{"out_of_order", func(s core.CoreStats) uint64 { return s.ReasmOutOfOrder }},
			{"retransmission", func(s core.CoreStats) uint64 { return s.ReasmRetrans }},
			{"dropped", func(s core.CoreStats) uint64 { return s.ReasmDropped }},
		} {
			k := k
			reg.CounterFunc("retina_reassembly_segments_total", "TCP segments by reassembly outcome",
				func() uint64 { return k.fn(c.Stats()) }, lbl, telemetry.L("kind", k.name))
		}
	}

	// Legacy per-level delivery series (kept for dashboards written
	// against the single-subscription runtime; NewDynamic has no initial
	// subscription, so nothing to label).
	if r.sub != nil {
		reg.CounterFunc("retina_subscription_delivered_total", "callback deliveries per subscription",
			func() uint64 { return r.sumCores(func(s core.CoreStats) uint64 { return s.Delivered }) },
			telemetry.L("subscription", r.sub.Level.String()))
	}

	// Control plane: swap epochs, the size of the live set, and hardware
	// reconcile failures (the device has fallen back to pass-everything
	// at least once when this is non-zero).
	reg.GaugeFunc("retina_ctl_epoch", "current program-set epoch",
		func() float64 { return float64(r.plane.Epoch()) })
	reg.CounterFunc("retina_ctl_swaps_total", "program-set swaps published by the control plane",
		r.plane.Swaps)
	reg.GaugeFunc("retina_ctl_subscriptions", "subscriptions live or draining",
		func() float64 { return float64(len(r.plane.List())) })
	reg.CounterFunc("retina_nic_reconcile_errors_total", "hardware rule reconcile failures during program swaps",
		r.plane.ReconcileErrors)

	// Dynamic flow offload: rule-table occupancy and lifecycle counters.
	if r.offload != nil {
		reg.GaugeFunc("retina_offload_rules", "per-flow drop rules currently installed",
			func() float64 { return float64(r.offload.Stats().RulesLive) })
		reg.GaugeFunc("retina_offload_rules_peak", "peak per-flow drop rules installed",
			func() float64 { return float64(r.offload.Stats().PeakRules) })
		reg.CounterFunc("retina_offload_installed_total", "per-flow drop rules installed",
			func() uint64 { return r.offload.Stats().Installed })
		reg.CounterFunc("retina_offload_removed_total", "per-flow rules removed on conntrack expiry/eviction",
			func() uint64 { return r.offload.Stats().Removed })
		for _, ev := range []struct {
			kind string
			fn   func() uint64
		}{
			{"lru", func() uint64 { return r.offload.Stats().EvictedLRU }},
			{"idle", func() uint64 { return r.offload.Stats().EvictedIdle }},
			{"invalidated", func() uint64 { return r.offload.Stats().Flushed }},
		} {
			ev := ev
			reg.CounterFunc("retina_offload_evicted_total", "per-flow rules evicted, by cause",
				ev.fn, telemetry.L("cause", ev.kind))
		}
		reg.CounterFunc("retina_offload_rejected_total", "offload requests refused for capacity",
			func() uint64 { return r.offload.Stats().RejectedCapacity })
		reg.CounterFunc("retina_offload_stale_total", "offload requests dropped for a retired epoch",
			func() uint64 { return r.offload.Stats().StaleDropped })
	}

	// Per-protocol probe/parse failures, summed across cores at scrape.
	protoNames := map[string]bool{}
	for _, c := range r.cores {
		for name := range c.ProtoStats() {
			protoNames[name] = true
		}
	}
	for name := range protoNames {
		name := name
		reg.CounterFunc("retina_proto_failures_total", "protocol probe/parse failures",
			func() uint64 {
				var n uint64
				for _, c := range r.cores {
					n += c.ProtoStats()[name].ProbeRejects
				}
				return n
			}, telemetry.L("proto", name), telemetry.L("kind", "probe_reject"))
		reg.CounterFunc("retina_proto_failures_total", "protocol probe/parse failures",
			func() uint64 {
				var n uint64
				for _, c := range r.cores {
					n += c.ProtoStats()[name].ParseErrors
				}
				return n
			}, telemetry.L("proto", name), telemetry.L("kind", "parse_error"))
	}

	// Stage counters (Figure 7), summed across cores at scrape time.
	for _, st := range core.Stages() {
		st := st
		lbl := telemetry.L("stage", st.String())
		reg.CounterFunc("retina_stage_invocations_total", "pipeline stage invocations",
			func() uint64 {
				var n uint64
				for _, c := range r.cores {
					n += c.StageStats().Invocations(st)
				}
				return n
			}, lbl)
		reg.CounterFunc("retina_stage_nanos_total", "pipeline stage time in nanoseconds (needs Profile)",
			func() uint64 {
				var n uint64
				for _, c := range r.cores {
					n += c.StageStats().Nanos(st)
				}
				return n
			}, lbl)
	}

	if r.tracer != nil {
		reg.CounterFunc("retina_trace_spans_total", "sampled connection trace spans",
			func() uint64 { _, started, _ := r.tracer.Stats(); return started },
			telemetry.L("state", "started"))
		reg.CounterFunc("retina_trace_spans_total", "sampled connection trace spans",
			func() uint64 { _, _, dropped := r.tracer.Stats(); return dropped },
			telemetry.L("state", "dropped"))
	}

	r.registerObservabilityMetrics()
}

// registerObservabilityMetrics wires the DESIGN.md §14 observability
// layer into the registry: receive-ring occupancy and high-water marks,
// the RSS-skew gauge, flow-offload partition occupancy, and — when
// LatencyTracking is on — the per-core latency histograms, duty-cycle
// ledger, and elephant-flow witness share.
func (r *Runtime) registerObservabilityMetrics() {
	reg := r.reg

	// Ring occupancy and producer-maintained high-water marks are always
	// available (the ring keeps them regardless of LatencyTracking).
	for q := range r.cores {
		q := q
		lbl := telemetry.L("queue", fmt.Sprintf("%d", q))
		reg.GaugeFunc("retina_ring_occupancy", "frames currently queued on a receive ring",
			func() float64 { used, _ := r.dev.RingOccupancy(q); return float64(used) }, lbl)
		reg.GaugeFunc("retina_ring_high_water", "peak receive-ring occupancy since start",
			func() float64 { return float64(r.dev.RingHighWater(q)) }, lbl)
	}

	// RSS skew: max/mean per-core packet share (1.0 = perfectly even).
	// The gauge stays cumulative (whole-run) so scrapes are idempotent;
	// the windowed RSSSkew is for callers that own their window, like
	// the rebalancer's telemetry below.
	reg.GaugeFunc("retina_rss_skew", "max/mean per-core packet share (1.0 = even RSS spread)",
		r.RSSSkewCumulative)

	// Bucket-migration accounting: completed moves and migrated
	// connections from the control plane (counted whether moves came
	// from the rebalancer or a manual MoveBucket), plus the rebalancer's
	// last observed windowed skew and per-core conntrack handoffs.
	reg.CounterFunc("retina_rebalance_moves_total", "completed RETA bucket migrations",
		func() uint64 { m, _ := r.plane.RebalanceStats(); return m })
	reg.CounterFunc("retina_rebalance_conns_migrated_total", "connections handed between cores by bucket migrations",
		func() uint64 { _, c := r.plane.RebalanceStats(); return c })
	if r.rebal != nil {
		reg.GaugeFunc("retina_rebalance_last_skew", "windowed per-queue load skew at the last rebalancer observation",
			r.rebal.LastSkew)
	}
	for i, c := range r.cores {
		c := c
		lbl := telemetry.L("core", fmt.Sprintf("%d", i))
		reg.CounterFunc("retina_conntrack_migrated_in_total", "connections imported by bucket migrations",
			func() uint64 { in, _ := c.Table().Migrations(); return in }, lbl)
		reg.CounterFunc("retina_conntrack_migrated_out_total", "connections exported by bucket migrations",
			func() uint64 { _, out := c.Table().Migrations(); return out }, lbl)
	}

	// Flow-offload partition occupancy and hit ratio: how full the
	// dynamic rule partition is and what fraction of offered frames the
	// installed rules absorbed in hardware.
	if r.offload != nil {
		reg.GaugeFunc("retina_offload_partition_used", "per-flow rules installed in the dynamic partition",
			func() float64 { return float64(r.dev.FlowRuleCount()) })
		reg.GaugeFunc("retina_offload_partition_capacity", "dynamic flow-rule partition capacity",
			func() float64 { return float64(r.dev.FlowCapacity()) })
		reg.GaugeFunc("retina_offload_hit_ratio", "fraction of offered frames dropped by per-flow hardware rules",
			func() float64 {
				s := r.dev.Stats()
				if s.RxFrames == 0 {
					return 0
				}
				return float64(s.HWOffloadDrop) / float64(s.RxFrames)
			})
	}

	if !r.cfg.LatencyTracking {
		return
	}

	for i, c := range r.cores {
		c := c
		lat, duty, wit := c.Latency(), c.Duty(), c.Witness()
		if lat == nil || duty == nil || wit == nil {
			continue
		}
		lbl := telemetry.L("core", fmt.Sprintf("%d", i))

		// Latency histograms: the shared per-core histograms are attached
		// directly — the registry reads their atomics at scrape time.
		reg.AttachHistogram("retina_latency_rx_to_delivery_nanoseconds",
			"NIC RX stamp to callback delivery latency", lat.RxHist(), lbl)
		for _, st := range core.Stages() {
			reg.AttachHistogram("retina_latency_stage_nanoseconds",
				"per-invocation pipeline stage latency (1-in-128 sampled)",
				lat.StageHist(st), lbl, telemetry.L("stage", st.Slug()))
		}

		// Duty-cycle ledger.
		reg.CounterFunc("retina_core_busy_nanos_total", "nanoseconds spent dequeuing and processing",
			func() uint64 { return uint64(duty.BusyNs()) }, lbl)
		reg.CounterFunc("retina_core_wait_nanos_total", "nanoseconds parked in ring wait",
			func() uint64 { return uint64(duty.WaitNs()) }, lbl)
		reg.CounterFunc("retina_core_bursts_total", "non-empty bursts processed by the poll loop",
			duty.Bursts, lbl)
		reg.CounterFunc("retina_core_wakeups_total", "times the poll loop fell into ring wait",
			duty.Wakeups, lbl)
		reg.GaugeFunc("retina_core_busy_fraction", "busy/(busy+wait) duty cycle of the poll loop",
			duty.BusyFraction, lbl)
		reg.GaugeFunc("retina_core_ring_occupancy_mean", "time-weighted mean ring depth seen at dequeue",
			duty.MeanOccupancy, lbl)
		reg.GaugeFunc("retina_core_elephant_share", "top witnessed flow's estimated (1-in-32 sampled) share of the core's packets",
			func() float64 { return wit.TopShare(c.Stats().Processed) }, lbl)
	}
}

// registerSubscriptionMetrics registers one subscription's counter
// series. Called once per SubSpec — at construction for initial
// subscriptions and at AddSubscription for dynamic ones; the id label
// keeps series distinct when a name is reused after a remove. The
// registry's own locking makes this safe while /metrics is being
// scraped.
func (r *Runtime) registerSubscriptionMetrics(spec *core.SubSpec) {
	lbls := []telemetry.Label{
		telemetry.L("subscription", spec.Name),
		telemetry.L("id", strconv.Itoa(spec.ID)),
	}
	r.reg.CounterFunc("retina_sub_delivered_total", "callback deliveries per subscription",
		spec.Delivered.Value, lbls...)
	r.reg.CounterFunc("retina_sub_matched_conns_total", "connections fully matched per subscription",
		spec.MatchedConns.Value, lbls...)
	r.reg.GaugeFunc("retina_sub_live_conns", "connections currently holding a match per subscription",
		func() float64 { return float64(spec.LiveConns.Load()) }, lbls...)
}

// registerAggregateMetrics registers one aggregation query's series.
// Called once per SubSpec carrying an Agg instance; the query label is
// the subscription name, id keeps series distinct across name reuse.
func (r *Runtime) registerAggregateMetrics(spec *core.SubSpec) {
	inst := spec.Agg
	lbls := []telemetry.Label{
		telemetry.L("query", spec.Name),
		telemetry.L("id", strconv.Itoa(spec.ID)),
		telemetry.L("stage", inst.Q.Stage.String()),
	}
	r.reg.CounterFunc("retina_aggregate_events_total", "events folded into the query's sketches across all cores",
		inst.EventsTotal, lbls...)
	r.reg.CounterFunc("retina_aggregate_windows_sealed_total", "per-core windows sealed into the merger",
		inst.WindowsSealed, lbls...)
	r.reg.CounterFunc("retina_aggregate_late_events_total", "events that arrived after their window sealed",
		inst.LateTotal, lbls...)
	r.reg.CounterFunc("retina_aggregate_group_overflow_total", "events unattributed because the per-core group table was full",
		inst.OverflowTotal, lbls...)
	r.reg.GaugeFunc("retina_aggregate_keys_tracked", "distinct keys across merged windows",
		func() float64 { return float64(inst.KeysTracked()) }, lbls...)
	r.reg.GaugeFunc("retina_aggregate_last_window_seq", "highest window sequence sealed by any participant",
		func() float64 { return float64(inst.LastSealedSeq()) }, lbls...)
}

// DropBreakdown sums every per-reason drop counter across the NIC and
// all cores. Keys are the telemetry.Drop* reason strings; zero-valued
// reasons are omitted.
func (r *Runtime) DropBreakdown() map[string]uint64 {
	out := map[string]uint64{}
	for _, d := range dropLedger {
		if n := d.count(r); n > 0 {
			out[d.reason] = n
		}
	}
	return out
}

// MetricsServer is a running metrics endpoint started by ServeMetrics.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address (useful with ":0").
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// Close shuts the endpoint down.
func (m *MetricsServer) Close() error { return m.srv.Close() }

// ServeMetrics exposes the runtime's metrics and the subscription admin
// API over HTTP on addr:
//
//	/metrics              Prometheus text exposition
//	/traces               sampled connection lifecycle spans as JSON
//	/debug/vars           expvar (the registry is also published as "retina")
//	/status               control-plane health: epoch, swaps, hardware
//	                      state, reconcile errors, flow-offload table

//	/subscriptions        GET: list (JSON); POST: add
//	                      {"name","filter","callback","aggregate":{...}}
//	/subscriptions/{name} GET: one subscription; DELETE: remove (drain)
//	/aggregates           GET: every aggregation query's merged windowed
//	                      report (aggregate.Report JSON)
//
// The POST body's "callback" is a kind name accepted by
// SubscriptionForKind ("packets", "connections", "sessions", "streams",
// "tls", "http"); API-added subscriptions count deliveries without
// user code. The server runs until Close is called on the returned
// MetricsServer.
func (r *Runtime) ServeMetrics(addr string) (*MetricsServer, error) {
	telemetry.PublishExpvar("retina", r.reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.tracer == nil {
			fmt.Fprintln(w, "[]")
			return
		}
		_ = r.tracer.WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/status", r.handleStatus)
	mux.HandleFunc("/subscriptions", r.handleSubscriptions)
	mux.HandleFunc("/subscriptions/", r.handleSubscription)
	mux.HandleFunc("/aggregates", r.handleAggregates)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &MetricsServer{ln: ln, srv: srv}, nil
}

// handleSubscriptions serves the collection endpoint: GET lists the
// live and draining set, POST adds a subscription by spec.
func (r *Runtime) handleSubscriptions(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, r.ListSubscriptions())
	case http.MethodPost:
		var spec SubscriptionSpec
		if err := json.NewDecoder(req.Body).Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
			return
		}
		if spec.Name == "" {
			httpError(w, http.StatusBadRequest, fmt.Errorf("missing \"name\""))
			return
		}
		sub, err := SubscriptionForKind(spec.Callback)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		info, err := r.AddSubscriptionWithAggregate(spec.Name, spec.Filter, sub, spec.Aggregate)
		if err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	default:
		w.Header().Set("Allow", "GET, POST")
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", req.Method))
	}
}

// handleSubscription serves one subscription: GET reports it, DELETE
// removes it (the subscription drains; see RemoveSubscription).
func (r *Runtime) handleSubscription(w http.ResponseWriter, req *http.Request) {
	name := strings.TrimPrefix(req.URL.Path, "/subscriptions/")
	if name == "" || strings.Contains(name, "/") {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such subscription"))
		return
	}
	switch req.Method {
	case http.MethodGet:
		for _, info := range r.ListSubscriptions() {
			if info.Name == name {
				writeJSON(w, http.StatusOK, info)
				return
			}
		}
		httpError(w, http.StatusNotFound, fmt.Errorf("no subscription %q", name))
	case http.MethodDelete:
		if err := r.RemoveSubscription(name); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", req.Method))
	}
}

// StatusReport is the control-plane health snapshot served at /status:
// swap progress, hardware filter state (including reconcile failures —
// when ReconcileErrors is non-zero the device has fallen back to
// pass-everything at least once and software filters carried
// correctness), and the dynamic flow-offload table.
type StatusReport struct {
	Epoch         uint64 `json:"epoch"`
	Swaps         uint64 `json:"swaps"`
	Subscriptions int    `json:"subscriptions"`
	// HardwareActive reports whether the device is currently filtering
	// in hardware (false = pass-everything).
	HardwareActive     bool   `json:"hardware_active"`
	ReconcileErrors    uint64 `json:"reconcile_errors"`
	LastReconcileError string `json:"last_reconcile_error,omitempty"`

	Offload *OffloadStatus `json:"offload,omitempty"`

	// RSSSkew is always reported (cumulative max/mean per-core packet
	// share); Observability is present only when Config.LatencyTracking
	// is on; Rebalance only when the adaptive rebalancer is enabled.
	RSSSkew       float64              `json:"rss_skew"`
	Rebalance     *RebalanceStatus     `json:"rebalance,omitempty"`
	Observability *ObservabilityStatus `json:"observability,omitempty"`

	// Aggregates lists the active aggregation queries (present only when
	// at least one subscription carries an aggregation clause).
	Aggregates []AggregateStatus `json:"aggregates,omitempty"`
}

// AggregateStatus is one aggregation query's health slice of
// StatusReport (full windowed results live at /aggregates).
type AggregateStatus struct {
	Query string `json:"query"`
	// Spec renders the compiled query, e.g. "topk(src_ip) k=5
	// window=1s stage=packet".
	Spec string `json:"spec"`
	// Stage is where the query executes (push-down placement).
	Stage       string `json:"stage"`
	Events      uint64 `json:"events"`
	WindowSeq   uint64 `json:"window_seq"`
	KeysTracked int    `json:"keys_tracked"`
	Late        uint64 `json:"late,omitempty"`
	Draining    bool   `json:"draining,omitempty"`
}

// RebalanceStatus is the adaptive-rebalancer slice of StatusReport.
type RebalanceStatus struct {
	Moves         uint64  `json:"moves"`
	ConnsMigrated uint64  `json:"conns_migrated"`
	Rounds        uint64  `json:"rounds"`
	FailedMoves   uint64  `json:"failed_moves"`
	LastSkew      float64 `json:"last_skew"`
	LastError     string  `json:"last_error,omitempty"`
}

// String renders the one-line rebalance summary the CLI tools print.
func (s RebalanceStatus) String() string {
	return fmt.Sprintf("rebalance: %d bucket moves, %d conns migrated, %d rounds (%d failed moves), last skew %.2f",
		s.Moves, s.ConnsMigrated, s.Rounds, s.FailedMoves, s.LastSkew)
}

// ObservabilityStatus is the latency/duty slice of StatusReport,
// populated when Config.LatencyTracking is enabled.
type ObservabilityStatus struct {
	// Latency summarizes rx→delivery across all cores.
	Latency LatencySummary `json:"latency"`
	Cores   []CoreDuty     `json:"cores"`
}

// CoreDuty is one core's duty-cycle and elephant snapshot.
type CoreDuty struct {
	Core          int         `json:"core"`
	BusyFraction  float64     `json:"busy_fraction"`
	MeanOccupancy float64     `json:"mean_ring_occupancy"`
	Bursts        uint64      `json:"bursts"`
	Wakeups       uint64      `json:"wakeups"`
	Elephants     []FlowShare `json:"elephants,omitempty"`
}

// FlowShare is one witnessed elephant flow.
type FlowShare struct {
	Flow    string `json:"flow"`
	Packets uint64 `json:"packets"`
}

// OffloadStatus is the flow-offload slice of StatusReport.
type OffloadStatus struct {
	Rules            int    `json:"rules"`
	PeakRules        int    `json:"peak_rules"`
	Installed        uint64 `json:"installed"`
	Removed          uint64 `json:"removed"`
	EvictedLRU       uint64 `json:"evicted_lru"`
	EvictedIdle      uint64 `json:"evicted_idle"`
	Invalidated      uint64 `json:"invalidated"`
	RejectedCapacity uint64 `json:"rejected_capacity"`
	StaleDropped     uint64 `json:"stale_dropped"`
}

// Status assembles the StatusReport (also used directly by tests and
// embedding applications).
func (r *Runtime) Status() StatusReport {
	st := StatusReport{
		Epoch:              r.plane.Epoch(),
		Swaps:              r.plane.Swaps(),
		Subscriptions:      len(r.plane.List()),
		HardwareActive:     r.dev.HardwareActive(),
		ReconcileErrors:    r.plane.ReconcileErrors(),
		LastReconcileError: r.plane.LastReconcileError(),
	}
	if r.offload != nil {
		os := r.offload.Stats()
		st.Offload = &OffloadStatus{
			Rules:            os.RulesLive,
			PeakRules:        os.PeakRules,
			Installed:        os.Installed,
			Removed:          os.Removed,
			EvictedLRU:       os.EvictedLRU,
			EvictedIdle:      os.EvictedIdle,
			Invalidated:      os.Flushed,
			RejectedCapacity: os.RejectedCapacity,
			StaleDropped:     os.StaleDropped,
		}
	}
	st.RSSSkew = r.RSSSkewCumulative()
	if r.rebal != nil {
		moves, conns := r.plane.RebalanceStats()
		st.Rebalance = &RebalanceStatus{
			Moves:         moves,
			ConnsMigrated: conns,
			Rounds:        r.rebal.Rounds(),
			FailedMoves:   r.rebal.FailedMoves(),
			LastSkew:      r.rebal.LastSkew(),
			LastError:     r.plane.LastMoveError(),
		}
	}
	if r.cfg.LatencyTracking {
		obs := &ObservabilityStatus{Latency: r.LatencySummary()}
		for i, c := range r.cores {
			d, w := c.Duty(), c.Witness()
			if d == nil || w == nil {
				continue
			}
			cd := CoreDuty{
				Core:          i,
				BusyFraction:  d.BusyFraction(),
				MeanOccupancy: d.MeanOccupancy(),
				Bursts:        d.Bursts(),
				Wakeups:       d.Wakeups(),
			}
			for _, fc := range w.Top() {
				cd.Elephants = append(cd.Elephants, FlowShare{Flow: fc.Tuple.String(), Packets: fc.Packets})
			}
			obs.Cores = append(obs.Cores, cd)
		}
		st.Observability = obs
	}
	st.Aggregates = r.aggregateStatuses()
	return st
}

// aggregateStatuses assembles the per-query health slice for /status
// and retina-top.
func (r *Runtime) aggregateStatuses() []AggregateStatus {
	var out []AggregateStatus
	for _, info := range r.plane.List() {
		spec := r.plane.Spec(info.Name)
		if spec == nil || spec.Agg == nil {
			continue
		}
		inst := spec.Agg
		out = append(out, AggregateStatus{
			Query:       spec.Name,
			Spec:        inst.Q.String(),
			Stage:       inst.Q.Stage.String(),
			Events:      inst.EventsTotal(),
			WindowSeq:   inst.LastSealedSeq(),
			KeysTracked: inst.KeysTracked(),
			Late:        inst.LateTotal(),
			Draining:    info.Draining,
		})
	}
	return out
}

// handleAggregates serves every aggregation query's merged windowed
// report.
func (r *Runtime) handleAggregates(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", req.Method))
		return
	}
	reports := r.Aggregates()
	if reports == nil {
		reports = []AggregateReport{}
	}
	writeJSON(w, http.StatusOK, reports)
}

// handleStatus serves the admin status snapshot.
func (r *Runtime) handleStatus(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", req.Method))
		return
	}
	writeJSON(w, http.StatusOK, r.Status())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
