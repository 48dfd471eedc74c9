package core

import (
	"maps"
	"time"

	"retina/internal/metrics"
	"retina/internal/telemetry"
)

// Stage identifies one pipeline stage for the Figure 7 breakdown.
type Stage int

const (
	// StageSWFilter is the software packet filter (decode + match).
	StageSWFilter Stage = iota
	// StageConnTrack is connection table lookup/insert and touch.
	StageConnTrack
	// StageReassembly is stream reassembly (segments offered).
	StageReassembly
	// StageParsing is application-layer probing and parsing.
	StageParsing
	// StageSessionFilter is session filter evaluation.
	StageSessionFilter
	// StageCallback is user callback execution.
	StageCallback

	numStages
)

// String names the stage as in Figure 7.
func (s Stage) String() string {
	switch s {
	case StageSWFilter:
		return "SW Packet Filter"
	case StageConnTrack:
		return "Connection Tracking"
	case StageReassembly:
		return "Stream Reassembly"
	case StageParsing:
		return "App-layer Parsing"
	case StageSessionFilter:
		return "Session Filter"
	case StageCallback:
		return "Run Callback"
	}
	return "?"
}

// StageStats accumulates per-stage counts and (optionally) time. The
// owning core counts invocations in plain fields and publishes them to
// the shared timers once per burst (and at Flush/AdvanceTime), so a
// stage invocation costs no locked instruction; readers on other
// goroutines see counts at burst granularity, exact at end of run.
type StageStats struct {
	timers [numStages]metrics.StageTimer
	// counts is each stage's exact invocation count and published the
	// part of it already added to timers (owning core only).
	counts    [numStages]uint64
	published [numStages]uint64
	profile   bool
	// lat, when non-nil, receives deterministic 1-in-128 per-stage
	// latency samples into its burst-local histograms (observe.go). It
	// is owned by the same core goroutine that calls Time/TimeBatch.
	lat *LatencyStats
}

// NewStageStats creates stage counters; profile enables wall-time
// sampling per invocation (slower but yields the cycles column).
func NewStageStats(profile bool) *StageStats {
	return &StageStats{profile: profile}
}

// Time runs fn under the stage's timer (or untimed when profiling is
// off). With latency tracking on, 1 invocation in 128 is additionally
// timed into the stage's latency histogram — the sampling decision
// depends only on the invocation count, so recorded sample counts are
// identical across burst sizes.
func (s *StageStats) Time(st Stage, fn func()) {
	// The sampling decision rides the exact invocation count: record
	// when it crosses a 2^latencySampleShift boundary.
	s.counts[st]++
	n := s.counts[st]
	var rec uint64
	if s.lat != nil {
		rec = n>>latencySampleShift - (n-1)>>latencySampleShift
	}
	if !s.profile && rec == 0 {
		fn()
		return
	}
	// metrics.NowNanos is the monotonic-only read; time.Now would also
	// fetch the wall clock and costs twice as much per sample.
	start := metrics.NowNanos()
	fn()
	d := metrics.NowNanos() - start
	if s.profile {
		s.timers[st].AddNanos(time.Duration(d))
	}
	if rec > 0 {
		s.lat.stageLocal[st].ObserveNs(uint64(d))
	}
}

// TimeBatch runs fn once on behalf of n invocations of the stage,
// attributing the measured duration to all of them. The burst datapath
// uses it to pay for two clock reads per batch instead of two per
// packet; the per-invocation averages stay comparable to Time's.
// Latency samples get the mean per-invocation duration, recorded once
// per 128 invocations like Time's.
func (s *StageStats) TimeBatch(st Stage, n uint64, fn func()) {
	s.counts[st] += n
	total := s.counts[st]
	var rec uint64
	if s.lat != nil {
		rec = total>>latencySampleShift - (total-n)>>latencySampleShift
	}
	if !s.profile && rec == 0 {
		fn()
		return
	}
	start := metrics.NowNanos()
	fn()
	d := metrics.NowNanos() - start
	if s.profile {
		s.timers[st].AddNanos(time.Duration(d))
	}
	if rec > 0 && n > 0 {
		s.lat.stageLocal[st].ObserveN(float64(d)/float64(n), rec)
	}
}

// publish adds the invocations counted since the last publish to the
// shared timers (owning core only).
func (s *StageStats) publish() {
	for st := range s.counts {
		if d := s.counts[st] - s.published[st]; d > 0 {
			s.timers[st].AddCount(d)
			s.published[st] = s.counts[st]
		}
	}
}

// Invocations returns how many times the stage ran, as of the owning
// core's last publish.
func (s *StageStats) Invocations(st Stage) uint64 { return s.timers[st].Count() }

// AvgCycles returns the stage's mean cost in nominal CPU cycles
// (zero when profiling was off).
func (s *StageStats) AvgCycles(st Stage) float64 { return s.timers[st].AvgCycles() }

// Merge adds other's counters into s (for aggregating per-core stats).
// Totals are merged from exact accumulated nanoseconds — reconstructing
// them as avg*count would round every merge and drift the Figure 7
// cycle columns across cores.
func (s *StageStats) Merge(other *StageStats) {
	for i := Stage(0); i < numStages; i++ {
		n := other.timers[i].Count()
		nanos := other.timers[i].Nanos()
		if n == 0 && nanos == 0 {
			continue
		}
		s.timers[i].Add(n, time.Duration(nanos))
	}
}

// Nanos returns the stage's exact accumulated nanoseconds.
func (s *StageStats) Nanos(st Stage) uint64 { return s.timers[st].Nanos() }

// Stages lists all stages in pipeline order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// CoreStats is a point-in-time snapshot of one core's packet-level
// counters. The live counters are always-on atomics (telemetry.Counter),
// so snapshots are safe to take from monitoring goroutines while the
// core is processing.
type CoreStats struct {
	Processed     uint64 // mbufs consumed from the ring
	FilterDropped uint64 // dropped by the software packet filter
	Delivered     uint64 // callback invocations (all kinds)
	ConnsCreated  uint64
	SessionsSeen  uint64
	SessionsMatch uint64
	TombstonePkts uint64 // packets landing on rejected connections
	BufferedPkts  uint64 // packets buffered awaiting a filter verdict
	// Tracked counts frames whose only outcome was being folded into a
	// tracked connection: they matched no packet-level subscription.
	// Zero on packet-subscription runs.
	Tracked uint64

	// Per-reason drop accounting (the §5.3 taxonomy); Disposed sums
	// the frame-level reasons with the frame outcomes.
	NotTrackable      uint64 // no L4 flow and no terminal packet match
	TableFull         uint64 // connection table at MaxConns
	PktBufOverflow    uint64 // per-connection packet buffer full
	PendingDiscard    uint64 // buffered packets freed before any verdict
	StreamBufOverflow uint64 // stream chunks dropped pre-verdict

	// Overload-control drops: shedding under budget or resource
	// pressure rather than hard structural bounds.
	PktBufBudget     uint64 // packets not buffered / discarded: per-core pktbuf byte budget
	ShedLowPool      uint64 // packets not buffered: pool/ring low-watermark pressure
	EvictedPressure  uint64 // buffered packets discarded by pressure-driven conn eviction
	ReasmBudgetDrops uint64 // segments refused or shed: reassembly byte budget

	// Connection-level outcomes.
	ConnsRejected     uint64 // connections that failed the filter
	ConnsUnidentified uint64 // probing exhausted without identification

	// Per-kind delivery counts (sum equals Delivered).
	DeliveredPackets  uint64
	DeliveredConns    uint64
	DeliveredSessions uint64
	DeliveredChunks   uint64

	// Reassembly aggregate across the core's connections.
	ReasmInOrder    uint64 // segments passed through in sequence
	ReasmOutOfOrder uint64 // segments parked out of order
	ReasmRetrans    uint64 // duplicate segments discarded
	ReasmDropped    uint64 // segments dropped: out-of-order buffer full

	// Parsing failures (summed over protocols; per-protocol counts are
	// exposed through Core.ProtoStats).
	ProbeRejects uint64
	ParseErrors  uint64

	// EpochSwaps counts program-set pickups (control-plane swaps the
	// core has acked).
	EpochSwaps uint64
}

// Disposed sums the frames the core gave exactly one outcome: delivered
// to a packet callback, folded into a tracked connection, or dropped
// under one frame-level reason. Once no frame is buffered awaiting a
// verdict (always after Flush) it equals Processed. Payload-level
// counts (StreamBufOverflow, ReasmBudgetDrops, ReasmDropped) are not in
// it: their frames already have an outcome.
func (s CoreStats) Disposed() uint64 {
	return s.DeliveredPackets + s.Tracked + s.FilterDropped + s.TombstonePkts +
		s.NotTrackable + s.TableFull + s.PktBufOverflow + s.PendingDiscard +
		s.PktBufBudget + s.ShedLowPool + s.EvictedPressure
}

// coreCounters is the live, atomic backing store for CoreStats.
type coreCounters struct {
	processed     telemetry.Counter
	filterDropped telemetry.Counter
	connsCreated  telemetry.Counter
	sessionsSeen  telemetry.Counter
	sessionsMatch telemetry.Counter
	tombstonePkts telemetry.Counter
	bufferedPkts  telemetry.Counter
	tracked       telemetry.Counter

	notTrackable      telemetry.Counter
	tableFull         telemetry.Counter
	pktBufOverflow    telemetry.Counter
	pendingDiscard    telemetry.Counter
	streamBufOverflow telemetry.Counter

	pktBufBudget    telemetry.Counter
	shedLowPool     telemetry.Counter
	evictedPressure telemetry.Counter
	reasmBudget     telemetry.Counter

	connsRejected     telemetry.Counter
	connsUnidentified telemetry.Counter

	deliveredPackets  telemetry.Counter
	deliveredConns    telemetry.Counter
	deliveredSessions telemetry.Counter
	deliveredChunks   telemetry.Counter

	reasmInOrder    telemetry.Counter
	reasmOutOfOrder telemetry.Counter
	reasmRetrans    telemetry.Counter
	reasmDropped    telemetry.Counter

	probeRejects telemetry.Counter
	parseErrors  telemetry.Counter

	epochSwaps telemetry.Counter
}

func (c *coreCounters) snapshot() CoreStats {
	s := CoreStats{
		Processed:     c.processed.Value(),
		FilterDropped: c.filterDropped.Value(),
		ConnsCreated:  c.connsCreated.Value(),
		SessionsSeen:  c.sessionsSeen.Value(),
		SessionsMatch: c.sessionsMatch.Value(),
		TombstonePkts: c.tombstonePkts.Value(),
		BufferedPkts:  c.bufferedPkts.Value(),
		Tracked:       c.tracked.Value(),

		NotTrackable:      c.notTrackable.Value(),
		TableFull:         c.tableFull.Value(),
		PktBufOverflow:    c.pktBufOverflow.Value(),
		PendingDiscard:    c.pendingDiscard.Value(),
		StreamBufOverflow: c.streamBufOverflow.Value(),

		PktBufBudget:     c.pktBufBudget.Value(),
		ShedLowPool:      c.shedLowPool.Value(),
		EvictedPressure:  c.evictedPressure.Value(),
		ReasmBudgetDrops: c.reasmBudget.Value(),

		ConnsRejected:     c.connsRejected.Value(),
		ConnsUnidentified: c.connsUnidentified.Value(),

		DeliveredPackets:  c.deliveredPackets.Value(),
		DeliveredConns:    c.deliveredConns.Value(),
		DeliveredSessions: c.deliveredSessions.Value(),
		DeliveredChunks:   c.deliveredChunks.Value(),

		ReasmInOrder:    c.reasmInOrder.Value(),
		ReasmOutOfOrder: c.reasmOutOfOrder.Value(),
		ReasmRetrans:    c.reasmRetrans.Value(),
		ReasmDropped:    c.reasmDropped.Value(),

		ProbeRejects: c.probeRejects.Value(),
		ParseErrors:  c.parseErrors.Value(),

		EpochSwaps: c.epochSwaps.Value(),
	}
	s.Delivered = s.DeliveredPackets + s.DeliveredConns + s.DeliveredSessions + s.DeliveredChunks
	return s
}

// ProtoStat is one protocol's identification/parsing failure counts.
type ProtoStat struct {
	ProbeRejects uint64
	ParseErrors  uint64
}

// protoCounters holds per-protocol failure counters. Each instance is
// immutable once published (the core swaps in an extended copy behind
// an atomic pointer when a program swap changes the parser set), so
// concurrent reads of the maps and the (atomic) values are safe.
type protoCounters struct {
	probeRejects map[string]*telemetry.Counter
	parseErrors  map[string]*telemetry.Counter
}

// extendProtoCounters builds the counter set for a new parser-name list
// (from an empty set at construction), carrying over the existing
// counter instances so per-protocol history survives program swaps (a
// protocol that leaves and returns keeps its totals for the runtime's
// lifetime).
func extendProtoCounters(old *protoCounters, names []string) *protoCounters {
	pc := &protoCounters{
		probeRejects: make(map[string]*telemetry.Counter, len(names)),
		parseErrors:  make(map[string]*telemetry.Counter, len(names)),
	}
	maps.Copy(pc.probeRejects, old.probeRejects)
	maps.Copy(pc.parseErrors, old.parseErrors)
	for _, n := range names {
		if pc.probeRejects[n] == nil {
			pc.probeRejects[n] = &telemetry.Counter{}
			pc.parseErrors[n] = &telemetry.Counter{}
		}
	}
	return pc
}
