package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"retina/internal/layers"
	"retina/internal/telemetry"
)

// This file is the per-core half of the latency / duty-cycle / RSS-skew
// observability layer (DESIGN.md §14): log-linear latency histograms
// with burst-local accumulation, poll-loop duty accounting, and a
// space-saving top-k elephant-flow witness. Everything here is off by
// default and enabled by Config.Latency; when off, the hot path keeps
// exactly its prior cost (no clock reads, no branches beyond a nil
// check).

// latencySampleShift sets the deterministic 1-in-128 sampling rate for
// per-stage timings: a stage records floor(invocations/128) samples, so
// the recorded count depends only on the invocation count — identical
// across burst sizes, which the differential test pins — while the
// amortized clock cost stays well under a nanosecond per stage call
// (the monotonic clock costs ~40ns on virtualized hosts, so
// per-invocation timing would dwarf the stages it measures).
const latencySampleShift = 7

// LatencyStats holds one core's latency histograms. The shared
// histograms are scraped concurrently by telemetry; the core observes
// into plain burst-local histograms and folds them in every 64 bursts
// (the PR 4 pattern, throttled), so per-packet cost is a couple of
// non-atomic array increments.
type LatencyStats struct {
	// rx is the rx→delivery histogram: NIC ingress stamp to user
	// callback, including every queue and verdict-buffering delay.
	rx *telemetry.Histogram
	// stage[s] is the per-invocation latency of pipeline stage s,
	// sampled 1-in-128.
	stage [numStages]*telemetry.Histogram

	rxLocal    *telemetry.LocalHist
	stageLocal [numStages]*telemetry.LocalHist

	// lastRxNs/lastRxIdx memoize the last rx→delivery bucket lookup.
	// Deliveries within one processing burst share the burst clock, and
	// their ingress stamps come one-per-DeliverBurst, so the same
	// latency value typically repeats ~burst-size times — a compare
	// replaces the index computation for all but the first. Invalidated
	// at flush, because the flush resets the touched-bucket range the
	// cached index relies on. Core goroutine only.
	lastRxNs  uint64
	lastRxIdx int
}

// NewLatencyStats builds the per-core latency state over the shared
// latency bucket layout.
func NewLatencyStats() *LatencyStats {
	l := &LatencyStats{
		rx:       telemetry.NewLogLinearHistogram(telemetry.LatencyLayout),
		rxLocal:  telemetry.NewLocalHist(telemetry.LatencyLayout),
		lastRxNs: ^uint64(0),
	}
	for i := range l.stage {
		l.stage[i] = telemetry.NewLogLinearHistogram(telemetry.LatencyLayout)
		l.stageLocal[i] = telemetry.NewLocalHist(telemetry.LatencyLayout)
	}
	return l
}

// observeRx records one rx→delivery latency into the burst-local
// histogram. Negative values (a stale burst clock racing a fresh stamp)
// clamp to zero rather than polluting the first bucket's meaning.
func (l *LatencyStats) observeRx(ns int64) {
	n := uint64(ns)
	if ns < 0 {
		n = 0
	}
	if n == l.lastRxNs {
		l.rxLocal.ObserveAt(l.lastRxIdx, n)
		return
	}
	l.observeRxMiss(n)
}

// observeRxMiss is the memo-miss half of observeRx, kept out of line so
// observeRx stays within the inlining budget of its per-delivery caller.
func (l *LatencyStats) observeRxMiss(n uint64) {
	l.lastRxNs = n
	l.lastRxIdx = l.rxLocal.ObserveNs(n)
}

// flush folds the burst-local histograms into the shared ones. Called
// from the core goroutine every 64 bursts, and unconditionally at
// Flush/AdvanceTime so end-of-run and idle snapshots stay exact.
func (l *LatencyStats) flush() {
	l.rxLocal.FlushInto(l.rx)
	l.lastRxNs = ^uint64(0) // FlushInto reset the range ObserveAt relies on
	for i := range l.stageLocal {
		l.stageLocal[i].FlushInto(l.stage[i])
	}
}

// RxHist returns the shared rx→delivery histogram (scrape-safe).
func (l *LatencyStats) RxHist() *telemetry.Histogram { return l.rx }

// StageHist returns the shared histogram for one pipeline stage
// (scrape-safe).
func (l *LatencyStats) StageHist(st Stage) *telemetry.Histogram { return l.stage[st] }

// Slug returns the stage's Prometheus label value.
func (s Stage) Slug() string {
	switch s {
	case StageSWFilter:
		return "sw_filter"
	case StageConnTrack:
		return "conntrack"
	case StageReassembly:
		return "reassembly"
	case StageParsing:
		return "parsing"
	case StageSessionFilter:
		return "session_filter"
	case StageCallback:
		return "callback"
	}
	return "unknown"
}

// DutyStats accounts how one core's poll loop spends wall time: busy
// (dequeue + processing) versus parked in ring Wait, plus a
// time-weighted ring occupancy integral. All fields are atomics so
// monitoring reads them while the core runs; only the core writes.
type DutyStats struct {
	busyNs  atomic.Int64
	waitNs  atomic.Int64
	bursts  atomic.Uint64
	wakeups atomic.Uint64
	// occWeighted integrates ring depth over busy time: Σ depth×iterNs,
	// where depth is what DequeueBurst found. Divided by total loop time
	// it yields the mean queue depth the core ran behind (waiting time
	// weights in at depth 0 — the ring was empty).
	occWeighted atomic.Int64
}

// BusyNs returns cumulative busy nanoseconds.
func (d *DutyStats) BusyNs() int64 { return d.busyNs.Load() }

// WaitNs returns cumulative nanoseconds parked in ring Wait.
func (d *DutyStats) WaitNs() int64 { return d.waitNs.Load() }

// Bursts returns how many non-empty bursts the loop processed.
func (d *DutyStats) Bursts() uint64 { return d.bursts.Load() }

// Wakeups returns how many times the loop fell into ring Wait.
func (d *DutyStats) Wakeups() uint64 { return d.wakeups.Load() }

// BusyFraction returns busy/(busy+wait) — the core's duty cycle. Zero
// before the loop has run.
func (d *DutyStats) BusyFraction() float64 {
	b, w := d.busyNs.Load(), d.waitNs.Load()
	if b+w <= 0 {
		return 0
	}
	return float64(b) / float64(b+w)
}

// MeanOccupancy returns the time-weighted mean ring depth observed at
// dequeue (0 when the loop has not run).
func (d *DutyStats) MeanOccupancy() float64 {
	total := d.busyNs.Load() + d.waitNs.Load()
	if total <= 0 {
		return 0
	}
	return float64(d.occWeighted.Load()) / float64(total)
}

// witnessK is the elephant witness capacity. Eight slots cover the
// rebalancer's need (the top one or two flows decide a migration) with
// an O(8) linear scan per sampled packet.
const witnessK = 8

// witnessSampleShift sets the witness's deterministic 1-in-32 packet
// sampling: an unsampled packet costs one counter increment and a
// branch, and published counts scale back up by 32 (sampled-NetFlow
// style). Elephants dominate samples exactly as they dominate packets,
// so top-k identity is unaffected; only mice near the replacement
// floor blur, which space-saving already blurs.
const witnessSampleShift = 5

// FlowCount is one witnessed flow and its estimated packet count
// (sampled count scaled by the witness sampling rate).
type FlowCount struct {
	Tuple   layers.FiveTuple
	Packets uint64
}

// FlowWitness is a per-core space-saving top-k sketch over connection
// five-tuples — the elephant-flow witness the future RSS rebalancer
// consumes. The core notes flows into private fixed arrays (no
// allocation, no atomics) and publishes a copy under a mutex every 64
// bursts; readers take the mutex only against that periodic copy.
//
// The hot arrays are split by access pattern: the per-sample scan reads
// only fp (32 B) and counts (64 B) — two cache lines — while the
// 38-byte tuples sit in a cold array touched on fingerprint match or
// slot replacement. The previous tuple-keyed layout strided the scan
// across seven lines and showed up as the single largest line item in
// the tracking-overhead profile.
type FlowWitness struct {
	seen   uint64                     // packets offered (sampling counter)
	fp     [witnessK]uint32           // port-pair fingerprints (scanned per sample)
	counts [witnessK]uint64           // sampled packet counts (scanned per sample)
	tuples [witnessK]layers.FiveTuple // full tuples (verify + publish only)
	n      int
	dirty  bool

	mu   sync.Mutex
	pub  [witnessK]FlowCount
	pubN int
}

// Note counts one packet for tuple t (1-in-32 sampled). Core goroutine
// only; t must not be retained. Space-saving semantics on the sampled
// stream: a tracked tuple increments; an untracked one replaces the
// current minimum, inheriting its count + 1 — so a true elephant's
// count is never underestimated by more than the minimum it displaced.
func (w *FlowWitness) Note(t *layers.FiveTuple) {
	// Kept to a counter, a mask, and a call so it inlines: thirty-one of
	// thirty-two packets never leave the caller's frame. The stride
	// anchors at the first packet (seen ≡ 1 mod 32), not the last, so a
	// near-idle core still witnesses its flows instead of reporting an
	// empty sketch until packet thirty-two.
	w.seen++
	if w.seen&(1<<witnessSampleShift-1) != 1 {
		return
	}
	w.noteSampled(t)
}

// noteSampled is Note's out-of-line slow path: the space-saving scan
// for the one-in-thirty-two packets the witness actually samples.
func (w *FlowWitness) noteSampled(t *layers.FiveTuple) {
	w.dirty = true
	k := uint32(t.SrcPort)<<16 | uint32(t.DstPort)
	minI := 0
	for i := 0; i < w.n; i++ {
		if w.fp[i] == k && w.tuples[i] == *t {
			w.counts[i]++
			return
		}
		if w.counts[i] < w.counts[minI] {
			minI = i
		}
	}
	if w.n < witnessK {
		w.fp[w.n], w.tuples[w.n], w.counts[w.n] = k, *t, 1
		w.n++
		return
	}
	w.fp[minI], w.tuples[minI] = k, *t
	w.counts[minI]++
}

// publish copies the sketch for readers, scaling sampled counts back
// to packet estimates. Called from the core goroutine every 64 bursts
// and at Flush/AdvanceTime; a clean sketch costs one branch.
func (w *FlowWitness) publish() {
	if !w.dirty {
		return
	}
	w.mu.Lock()
	for i := 0; i < w.n; i++ {
		w.pub[i] = FlowCount{Tuple: w.tuples[i], Packets: w.counts[i] << witnessSampleShift}
	}
	w.pubN = w.n
	w.mu.Unlock()
	w.dirty = false
}

// Top returns the witnessed flows, most packets first. Safe from any
// goroutine; reflects state as of the last burst boundary.
func (w *FlowWitness) Top() []FlowCount {
	w.mu.Lock()
	out := make([]FlowCount, w.pubN)
	copy(out, w.pub[:w.pubN])
	w.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Packets > out[j].Packets })
	return out
}

// TopShare returns the top flow's share of total packets (0 when total
// or the witness is empty) — the bounded-cardinality elephant gauge.
func (w *FlowWitness) TopShare(total uint64) float64 {
	if total == 0 {
		return 0
	}
	w.mu.Lock()
	var max uint64
	for i := 0; i < w.pubN; i++ {
		if w.pub[i].Packets > max {
			max = w.pub[i].Packets
		}
	}
	w.mu.Unlock()
	return float64(max) / float64(total)
}
