package retina

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"retina/internal/aggregate"
	"retina/internal/conntrack"
	"retina/internal/core"
	"retina/internal/nic"
	"retina/internal/offload"
	"retina/internal/overload"
	"retina/internal/telemetry"
)

// Registry exposes the runtime's metric registry (for embedding Retina's
// metrics into an application's own exposition).
func (r *Runtime) Registry() *telemetry.Registry { return r.reg }

// Tracer exposes the connection tracer (nil unless Config.TraceSample
// was set).
func (r *Runtime) Tracer() *telemetry.ConnTracer { return r.tracer }

// metric is one row of a telemetry table: a family, the row's own
// labels, and the reader its series scrapes from x, one instance of the
// table's scope (the runtime, a core, a queue, ...). Exactly one reader
// is set; it fixes the family's type. Rows sharing a name are one family.
type metric[T any] struct {
	name, help string
	labels     []telemetry.Label
	count      func(x T) uint64
	gauge      func(x T) float64
	hist       func(x T) *telemetry.Histogram
}

func counter[T any](name, help string, read func(T) uint64, labels ...telemetry.Label) metric[T] {
	return metric[T]{name: name, help: help, labels: labels, count: read}
}

func gauge[T any](name, help string, read func(T) float64, labels ...telemetry.Label) metric[T] {
	return metric[T]{name: name, help: help, labels: labels, gauge: read}
}

// at is one instance of a runtime-wide scope: a receive queue, a
// pipeline stage or a protocol.
type at[K any] struct {
	r   *Runtime
	key K
}

// register adds one series per row for instance x, labelled with the
// instance's scope labels followed by the row's own. Registering a
// series again rebinds it where it stands.
func register[T any](reg *telemetry.Registry, rows []metric[T], x T, scope ...telemetry.Label) {
	for _, m := range rows {
		lbls := append(slices.Clip(scope), m.labels...)
		switch {
		case m.count != nil:
			reg.CounterFunc(m.name, m.help, func() uint64 { return m.count(x) }, lbls...)
		case m.gauge != nil:
			reg.GaugeFunc(m.name, m.help, func() float64 { return m.gauge(x) }, lbls...)
		default:
			reg.AttachHistogram(m.name, m.help, m.hist(x), lbls...)
		}
	}
}

// registerCores registers a per-core table, core by core, so each
// family lists its series in core order.
func (r *Runtime) registerCores(rows []metric[*core.Core]) {
	for i, c := range r.cores {
		register(r.reg, rows, c, telemetry.L("core", strconv.Itoa(i)))
	}
}

// registerProtos registers the failure series of every protocol in the
// published parser set, in name order. Series already registered keep
// their place, so protocols that join the set later append.
func (r *Runtime) registerProtos() {
	for _, name := range slices.Sorted(slices.Values(r.plane.Current().ParserNames)) {
		register(r.reg, protoMetrics, at[string]{r, name}, telemetry.L("proto", name))
	}
}

// registerMetrics registers the construction-time tables as pull
// collectors. Series render in registration order, so this sequence is
// the /metrics layout. The layers keep their own atomics and scrapes
// read them through the table readers, so nothing is double-counted and
// the hot paths pay nothing for exposition.
func (r *Runtime) registerMetrics() {
	reg := r.reg
	register(reg, deviceMetrics, r)
	r.registerCores(coreMetrics)
	if r.sub != nil {
		// Legacy per-level delivery series, kept for dashboards written
		// against the single-subscription runtime.
		register(reg, []metric[*Runtime]{counter("retina_subscription_delivered_total", "callback deliveries per subscription", callbacks)},
			r, telemetry.L("subscription", r.sub.Level.String()))
	}
	register(reg, controlMetrics, r)
	if r.offload != nil {
		register(reg, offloadMetrics, r)
	}
	r.registerProtos()
	for _, st := range core.Stages() {
		register(reg, stageMetrics, at[core.Stage]{r, st}, telemetry.L("stage", st.String()))
	}
	if r.tracer != nil {
		register(reg, traceMetrics, r)
	}
	for q := range r.cores {
		register(reg, queueMetrics, at[int]{r, q}, telemetry.L("queue", strconv.Itoa(q)))
	}
	register(reg, balanceMetrics, r)
	if r.rebal != nil {
		register(reg, []metric[*Runtime]{gauge("retina_rebalance_last_skew", "windowed per-queue load skew at the last rebalancer observation",
			func(r *Runtime) float64 { return r.rebal.LastSkew() })}, r)
	}
	r.registerCores(migrationMetrics)
	if r.offload != nil {
		register(reg, partitionMetrics, r)
	}
	if r.cfg.LatencyTracking {
		r.registerCores(latencyMetrics)
	}
}

// registerSubscription registers one subscription's series — at
// construction for the initial subscription and at AddSubscription for
// dynamic ones — with its aggregation query's and those of protocols it
// brought into the parser set. The id label keeps series distinct when
// a name is reused after a remove. The registry's own locking makes
// this safe while /metrics is being scraped.
func (r *Runtime) registerSubscription(spec *core.SubSpec) {
	id := telemetry.L("id", strconv.Itoa(spec.ID))
	register(r.reg, subMetrics, spec, telemetry.L("subscription", spec.Name), id)
	if spec.Agg != nil {
		register(r.reg, aggMetrics, spec.Agg, telemetry.L("query", spec.Name), id, telemetry.L("stage", spec.Agg.Q.Stage.String()))
	}
	r.registerProtos()
}

// DropBreakdown sums every per-reason drop counter across the NIC and
// all cores. Keys are the telemetry.Drop* reason strings; zero-valued
// reasons are omitted.
func (r *Runtime) DropBreakdown() map[string]uint64 {
	out := map[string]uint64{}
	for _, d := range dropLedger {
		if n := d.count(r); n > 0 {
			out[d.labels[0].Value] = n
		}
	}
	return out
}

// sumCores folds a per-core reader across all cores.
func (r *Runtime) sumCores(f func(*core.Core) uint64) uint64 {
	var total uint64
	for _, c := range r.cores {
		total += f(c)
	}
	return total
}

// stat reads one CoreStats field of a core.
func stat(f func(core.CoreStats) uint64) func(*core.Core) uint64 {
	return func(c *core.Core) uint64 { return f(c.Stats()) }
}

// allCores sums one CoreStats field across all cores.
func allCores(f func(core.CoreStats) uint64) func(*Runtime) uint64 {
	return func(r *Runtime) uint64 { return r.sumCores(stat(f)) }
}

// devStat reads one device counter.
func devStat(f func(nic.Stats) uint64) func(*Runtime) uint64 {
	return func(r *Runtime) uint64 { return f(r.dev.Stats()) }
}

// Readers LiveStats shares with the tables.
var (
	callbacks = allCores(func(s core.CoreStats) uint64 { return s.Delivered })
	liveConns = func(c *core.Core) uint64 { return uint64(c.Table().ConcurrentLen()) }
	busyNanos = func(c *core.Core) uint64 { return uint64(c.Duty().BusyNs()) }
	waitNanos = func(c *core.Core) uint64 { return uint64(c.Duty().WaitNs()) }
)

// deviceMetrics is the simulated port, its drop-reason taxonomy (one
// series per reason, all under a single family so dashboards can sum
// and break down losses uniformly) and the buffer pool.
var deviceMetrics = slices.Concat([]metric[*Runtime]{
	counter("retina_rx_frames_total", "frames offered to the simulated port", devStat(func(s nic.Stats) uint64 { return s.RxFrames })),
	counter("retina_delivered_frames_total", "frames enqueued onto receive rings", devStat(func(s nic.Stats) uint64 { return s.Delivered })),
}, dropLedger, []metric[*Runtime]{
	gauge("retina_mbuf_pool_free", "free packet buffers", func(r *Runtime) float64 { return float64(r.pool.Available()) }),
	gauge("retina_mbuf_pool_size", "total packet buffers", func(r *Runtime) float64 { return float64(r.pool.Size()) }),
	counter("retina_mbuf_allocs_total", "packet buffer allocations", func(r *Runtime) uint64 { allocs, _ := r.pool.Stats(); return allocs }),
	counter("retina_mbuf_alloc_fails_total", "failed packet buffer allocations (pool exhausted)",
		func(r *Runtime) uint64 { _, fails := r.pool.Stats(); return fails }),
})

// dropLedger maps every drop reason (each row's one label) to the
// counter it is read from, in retina_drops_total series order.
// DropBreakdown reads through it too.
var dropLedger = []metric[*Runtime]{
	drop(telemetry.DropMalformed, devStat(func(s nic.Stats) uint64 { return s.Malformed })),
	drop(telemetry.DropHWFilter, devStat(func(s nic.Stats) uint64 { return s.HWDropped })),
	drop(telemetry.DropHWOffload, devStat(func(s nic.Stats) uint64 { return s.HWOffloadDrop })),
	// Offline mode refuses oversize frames before they reach the device.
	drop(telemetry.DropOversize, func(r *Runtime) uint64 { return r.dev.Stats().Oversize + r.offlineOversize.Load() }),
	drop(telemetry.DropRSSSink, devStat(func(s nic.Stats) uint64 { return s.Sunk })),
	drop(telemetry.DropRingOverflow, devStat(func(s nic.Stats) uint64 { return s.RingDrops })),
	// Offline mode allocates from the pool directly; count every failed
	// allocation exactly once.
	drop(telemetry.DropPoolExhausted, func(r *Runtime) uint64 { _, fails := r.pool.Stats(); return max(fails, r.dev.Stats().NoMbuf) }),
	drop(telemetry.DropSWFilter, allCores(func(s core.CoreStats) uint64 { return s.FilterDropped })),
	drop(telemetry.DropNotTrackable, allCores(func(s core.CoreStats) uint64 { return s.NotTrackable })),
	drop(telemetry.DropTableFull, allCores(func(s core.CoreStats) uint64 { return s.TableFull })),
	drop(telemetry.DropConnRejected, allCores(func(s core.CoreStats) uint64 { return s.TombstonePkts })),
	drop(telemetry.DropPktBufOverflow, allCores(func(s core.CoreStats) uint64 { return s.PktBufOverflow })),
	drop(telemetry.DropPendingDiscard, allCores(func(s core.CoreStats) uint64 { return s.PendingDiscard })),
	drop(telemetry.DropStreamBufOverflow, allCores(func(s core.CoreStats) uint64 { return s.StreamBufOverflow })),
	drop(telemetry.DropReasmBufferFull, allCores(func(s core.CoreStats) uint64 { return s.ReasmDropped })),
	drop(telemetry.DropReasmBudget, allCores(func(s core.CoreStats) uint64 { return s.ReasmBudgetDrops })),
	drop(telemetry.DropPktBufBudget, allCores(func(s core.CoreStats) uint64 { return s.PktBufBudget })),
	drop(telemetry.DropShedLowPool, allCores(func(s core.CoreStats) uint64 { return s.ShedLowPool })),
	drop(telemetry.DropEvictedPressure, allCores(func(s core.CoreStats) uint64 { return s.EvictedPressure })),
}

func drop(reason string, count func(*Runtime) uint64) metric[*Runtime] {
	return counter("retina_drops_total", "frames dropped, by reason", count, telemetry.L("reason", reason))
}

// coreMetrics is each core's pipeline, connection store (DESIGN.md §15;
// all zero on the map oracle except load_factor's Live input) and
// overload accountant, whose buffered bytes vs budget per class show
// pressure building before shedding starts.
var coreMetrics = slices.Concat([]metric[*core.Core]{
	counter("retina_core_processed_total", "mbufs consumed from the receive ring", stat(func(s core.CoreStats) uint64 { return s.Processed })),
	counter("retina_conns_created_total", "connections created", stat(func(s core.CoreStats) uint64 { return s.ConnsCreated })),
	counter("retina_conns_rejected_total", "connections that failed the filter", stat(func(s core.CoreStats) uint64 { return s.ConnsRejected })),
	counter("retina_conns_unidentified_total", "connections whose protocol probing was exhausted",
		stat(func(s core.CoreStats) uint64 { return s.ConnsUnidentified })),
	gauge("retina_conns_live", "connections currently tracked", func(c *core.Core) float64 { return float64(liveConns(c)) }),
	counter("retina_timer_rearms_total", "lazy timer re-arms (stale wheel entries rescheduled)", func(c *core.Core) uint64 { return c.Table().Rearmed() }),
	gauge("retina_conntrack_load_factor", "connection-store occupancy / bucket-slot capacity",
		func(c *core.Core) float64 { return c.Table().IndexStats().LoadFactor }),
	gauge("retina_conntrack_probe_len", "worst insert probe length since start (buckets)",
		func(c *core.Core) float64 { return float64(c.Table().IndexStats().MaxProbe) }),
	counter("retina_conntrack_rehashes_total", "connection-store bucket-array rebuilds", func(c *core.Core) uint64 { return c.Table().IndexStats().Rehashes }),
	gauge("retina_conntrack_slab_bytes", "connection slab footprint in bytes", func(c *core.Core) float64 { return float64(c.Table().IndexStats().SlabBytes) }),
	counter("retina_core_epoch_swaps_total", "program-set epochs picked up at burst boundaries", stat(func(s core.CoreStats) uint64 { return s.EpochSwaps })),
}, each(overload.Classes(), func(cls overload.Class) []metric[*core.Core] {
	return []metric[*core.Core]{
		gauge("retina_overload_used_bytes", "bytes currently charged to a buffer class",
			func(c *core.Core) float64 { return float64(c.Accountant().Used(cls)) }, telemetry.L("class", cls.String())),
		gauge("retina_overload_budget_bytes", "byte budget for a buffer class",
			func(c *core.Core) float64 { return float64(c.Accountant().Limit(cls)) }, telemetry.L("class", cls.String())),
	}
}), func() (rows []metric[*core.Core]) {
	for reason := range conntrack.NumExpireReasons {
		rows = append(rows, counter("retina_conns_expired_total", "connection removals, by reason",
			func(c *core.Core) uint64 { _, expired := c.Table().Stats(); return expired[reason] }, telemetry.L("reason", reason.String())))
	}
	return rows
}(), []metric[*core.Core]{
	delivered("packets", func(s core.CoreStats) uint64 { return s.DeliveredPackets }),
	delivered("connections", func(s core.CoreStats) uint64 { return s.DeliveredConns }),
	delivered("sessions", func(s core.CoreStats) uint64 { return s.DeliveredSessions }),
	delivered("chunks", func(s core.CoreStats) uint64 { return s.DeliveredChunks }),
	sessions("seen", func(s core.CoreStats) uint64 { return s.SessionsSeen }),
	sessions("matched", func(s core.CoreStats) uint64 { return s.SessionsMatch }),
	segments("in_order", func(s core.CoreStats) uint64 { return s.ReasmInOrder }),
	segments("out_of_order", func(s core.CoreStats) uint64 { return s.ReasmOutOfOrder }),
	segments("retransmission", func(s core.CoreStats) uint64 { return s.ReasmRetrans }),
	segments("dropped", func(s core.CoreStats) uint64 { return s.ReasmDropped }),
})

func delivered(kind string, f func(core.CoreStats) uint64) metric[*core.Core] {
	return counter("retina_delivered_total", "callback deliveries, by data kind", stat(f), telemetry.L("kind", kind))
}

func sessions(result string, f func(core.CoreStats) uint64) metric[*core.Core] {
	return counter("retina_sessions_total", "application-layer sessions parsed", stat(f), telemetry.L("result", result))
}

func segments(kind string, f func(core.CoreStats) uint64) metric[*core.Core] {
	return counter("retina_reassembly_segments_total", "TCP segments by reassembly outcome", stat(f), telemetry.L("kind", kind))
}

// each concatenates the rows rows(k) builds for every key, in key order.
func each[K, T any](keys []K, rows func(K) []metric[T]) []metric[T] {
	var out []metric[T]
	for _, k := range keys {
		out = append(out, rows(k)...)
	}
	return out
}

// controlMetrics is the control plane: swap epochs, the size of the live
// set, and hardware reconcile failures (the device has fallen back to
// pass-everything at least once when this is non-zero).
var controlMetrics = []metric[*Runtime]{
	gauge("retina_ctl_epoch", "current program-set epoch", func(r *Runtime) float64 { return float64(r.plane.Epoch()) }),
	counter("retina_ctl_swaps_total", "program-set swaps published by the control plane", func(r *Runtime) uint64 { return r.plane.Swaps() }),
	gauge("retina_ctl_subscriptions", "subscriptions live or draining", func(r *Runtime) float64 { return float64(len(r.plane.List())) }),
	counter("retina_nic_reconcile_errors_total", "hardware rule reconcile failures during program swaps",
		func(r *Runtime) uint64 { return r.plane.ReconcileErrors() }),
}

// offloadMetrics is the dynamic flow offload's rule-table occupancy and
// lifecycle counters.
var offloadMetrics = []metric[*Runtime]{
	gauge("retina_offload_rules", "per-flow drop rules currently installed", func(r *Runtime) float64 { return float64(r.offload.Stats().RulesLive) }),
	gauge("retina_offload_rules_peak", "peak per-flow drop rules installed", func(r *Runtime) float64 { return float64(r.offload.Stats().PeakRules) }),
	counter("retina_offload_installed_total", "per-flow drop rules installed", func(r *Runtime) uint64 { return r.offload.Stats().Installed }),
	counter("retina_offload_removed_total", "per-flow rules removed on conntrack expiry/eviction", func(r *Runtime) uint64 { return r.offload.Stats().Removed }),
	evicted("lru", func(s offload.ManagerStats) uint64 { return s.EvictedLRU }),
	evicted("idle", func(s offload.ManagerStats) uint64 { return s.EvictedIdle }),
	evicted("invalidated", func(s offload.ManagerStats) uint64 { return s.Flushed }),
	counter("retina_offload_rejected_total", "offload requests refused for capacity", func(r *Runtime) uint64 { return r.offload.Stats().RejectedCapacity }),
	counter("retina_offload_stale_total", "offload requests dropped for a retired epoch", func(r *Runtime) uint64 { return r.offload.Stats().StaleDropped }),
}

func evicted(cause string, f func(offload.ManagerStats) uint64) metric[*Runtime] {
	return counter("retina_offload_evicted_total", "per-flow rules evicted, by cause",
		func(r *Runtime) uint64 { return f(r.offload.Stats()) }, telemetry.L("cause", cause))
}

// protoMetrics is one protocol's probe/parse failures, summed across
// cores at scrape.
var protoMetrics = []metric[at[string]]{
	counter("retina_proto_failures_total", "protocol probe/parse failures", func(p at[string]) uint64 {
		return p.r.sumCores(func(c *core.Core) uint64 { return c.ProtoStats()[p.key].ProbeRejects })
	}, telemetry.L("kind", "probe_reject")),
	counter("retina_proto_failures_total", "protocol probe/parse failures", func(p at[string]) uint64 {
		return p.r.sumCores(func(c *core.Core) uint64 { return c.ProtoStats()[p.key].ParseErrors })
	}, telemetry.L("kind", "parse_error")),
}

// stageMetrics is one pipeline stage's counters (Figure 7), summed
// across cores at scrape time.
var stageMetrics = []metric[at[core.Stage]]{
	counter("retina_stage_invocations_total", "pipeline stage invocations", func(s at[core.Stage]) uint64 {
		return s.r.sumCores(func(c *core.Core) uint64 { return c.StageStats().Invocations(s.key) })
	}),
	counter("retina_stage_nanos_total", "pipeline stage time in nanoseconds (needs Profile)", func(s at[core.Stage]) uint64 {
		return s.r.sumCores(func(c *core.Core) uint64 { return c.StageStats().Nanos(s.key) })
	}),
}

var traceMetrics = []metric[*Runtime]{
	counter("retina_trace_spans_total", "sampled connection trace spans",
		func(r *Runtime) uint64 { _, started, _ := r.tracer.Stats(); return started }, telemetry.L("state", "started")),
	counter("retina_trace_spans_total", "sampled connection trace spans",
		func(r *Runtime) uint64 { _, _, dropped := r.tracer.Stats(); return dropped }, telemetry.L("state", "dropped")),
}

// queueMetrics is one receive ring's occupancy and producer-maintained
// high-water mark (DESIGN.md §14), kept regardless of LatencyTracking.
var queueMetrics = []metric[at[int]]{
	gauge("retina_ring_occupancy", "frames currently queued on a receive ring",
		func(q at[int]) float64 { used, _ := q.r.dev.RingOccupancy(q.key); return float64(used) }),
	gauge("retina_ring_high_water", "peak receive-ring occupancy since start", func(q at[int]) float64 { return float64(q.r.dev.RingHighWater(q.key)) }),
}

// balanceMetrics is the RSS skew — cumulative (whole-run) so scrapes are
// idempotent; the windowed RSSSkew is for callers that own their window —
// and the bucket migrations the control plane completed, whether the
// rebalancer or a manual MoveBucket asked for them.
var balanceMetrics = []metric[*Runtime]{
	gauge("retina_rss_skew", "max/mean per-core packet share (1.0 = even RSS spread)", (*Runtime).RSSSkewCumulative),
	counter("retina_rebalance_moves_total", "completed RETA bucket migrations", func(r *Runtime) uint64 { m, _ := r.plane.RebalanceStats(); return m }),
	counter("retina_rebalance_conns_migrated_total", "connections handed between cores by bucket migrations",
		func(r *Runtime) uint64 { _, c := r.plane.RebalanceStats(); return c }),
}

var migrationMetrics = []metric[*core.Core]{
	counter("retina_conntrack_migrated_in_total", "connections imported by bucket migrations",
		func(c *core.Core) uint64 { in, _ := c.Table().Migrations(); return in }),
	counter("retina_conntrack_migrated_out_total", "connections exported by bucket migrations",
		func(c *core.Core) uint64 { _, out := c.Table().Migrations(); return out }),
}

// partitionMetrics is how full the dynamic flow-rule partition is and
// what fraction of offered frames the installed rules absorbed in
// hardware.
var partitionMetrics = []metric[*Runtime]{
	gauge("retina_offload_partition_used", "per-flow rules installed in the dynamic partition", func(r *Runtime) float64 { return float64(r.dev.FlowRuleCount()) }),
	gauge("retina_offload_partition_capacity", "dynamic flow-rule partition capacity", func(r *Runtime) float64 { return float64(r.dev.FlowCapacity()) }),
	gauge("retina_offload_hit_ratio", "fraction of offered frames dropped by per-flow hardware rules", func(r *Runtime) float64 {
		if s := r.dev.Stats(); s.RxFrames > 0 {
			return float64(s.HWOffloadDrop) / float64(s.RxFrames)
		}
		return 0
	}),
}

// latencyMetrics is each core's latency histograms (attached directly;
// the registry reads their atomics at scrape time), duty-cycle ledger
// and elephant-flow witness share.
var latencyMetrics = slices.Concat([]metric[*core.Core]{
	{name: "retina_latency_rx_to_delivery_nanoseconds", help: "NIC RX stamp to callback delivery latency",
		hist: func(c *core.Core) *telemetry.Histogram { return c.Latency().RxHist() }},
}, each(core.Stages(), func(st core.Stage) []metric[*core.Core] {
	return []metric[*core.Core]{{name: "retina_latency_stage_nanoseconds", help: "per-invocation pipeline stage latency (1-in-128 sampled)",
		labels: []telemetry.Label{telemetry.L("stage", st.Slug())}, hist: func(c *core.Core) *telemetry.Histogram { return c.Latency().StageHist(st) }}}
}), []metric[*core.Core]{
	counter("retina_core_busy_nanos_total", "nanoseconds spent dequeuing and processing", busyNanos),
	counter("retina_core_wait_nanos_total", "nanoseconds parked in ring wait", waitNanos),
	counter("retina_core_bursts_total", "non-empty bursts processed by the poll loop", func(c *core.Core) uint64 { return c.Duty().Bursts() }),
	counter("retina_core_wakeups_total", "times the poll loop fell into ring wait", func(c *core.Core) uint64 { return c.Duty().Wakeups() }),
	gauge("retina_core_busy_fraction", "busy/(busy+wait) duty cycle of the poll loop", func(c *core.Core) float64 { return c.Duty().BusyFraction() }),
	gauge("retina_core_ring_occupancy_mean", "time-weighted mean ring depth seen at dequeue", func(c *core.Core) float64 { return c.Duty().MeanOccupancy() }),
	gauge("retina_core_elephant_share", "top witnessed flow's estimated (1-in-32 sampled) share of the core's packets",
		func(c *core.Core) float64 { return c.Witness().TopShare(c.Stats().Processed) }),
})

var subMetrics = []metric[*core.SubSpec]{
	counter("retina_sub_delivered_total", "callback deliveries per subscription", func(s *core.SubSpec) uint64 { return s.Delivered.Value() }),
	counter("retina_sub_matched_conns_total", "connections fully matched per subscription", func(s *core.SubSpec) uint64 { return s.MatchedConns.Value() }),
	gauge("retina_sub_live_conns", "connections currently holding a match per subscription", func(s *core.SubSpec) float64 { return float64(s.LiveConns.Load()) }),
}

var aggMetrics = []metric[*aggregate.Instance]{
	counter("retina_aggregate_events_total", "events folded into the query's sketches across all cores", (*aggregate.Instance).EventsTotal),
	counter("retina_aggregate_windows_sealed_total", "per-core windows sealed into the merger", (*aggregate.Instance).WindowsSealed),
	counter("retina_aggregate_late_events_total", "events that arrived after their window sealed", (*aggregate.Instance).LateTotal),
	counter("retina_aggregate_group_overflow_total", "events unattributed because the per-core group table was full", (*aggregate.Instance).OverflowTotal),
	gauge("retina_aggregate_keys_tracked", "distinct keys across merged windows", func(a *aggregate.Instance) float64 { return float64(a.KeysTracked()) }),
	gauge("retina_aggregate_last_window_seq", "highest window sequence sealed by any participant",
		func(a *aggregate.Instance) float64 { return float64(a.LastSealedSeq()) }),
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

	Offload *offload.ManagerStats `json:"offload,omitempty"`

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
		st.Offload = &os
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
			d := c.Duty()
			cd := CoreDuty{
				Core:          i,
				BusyFraction:  d.BusyFraction(),
				MeanOccupancy: d.MeanOccupancy(),
				Bursts:        d.Bursts(),
				Wakeups:       d.Wakeups(),
			}
			for _, fc := range c.Witness().Top() {
				cd.Elephants = append(cd.Elephants, FlowShare{Flow: fc.Tuple.String(), Packets: fc.Packets})
			}
			obs.Cores = append(obs.Cores, cd)
		}
		st.Observability = obs
	}
	for _, info := range r.plane.List() {
		if spec := r.plane.Spec(info.Name); spec != nil && spec.Agg != nil {
			inst := spec.Agg
			st.Aggregates = append(st.Aggregates, AggregateStatus{
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
	}
	return st
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
