package nic

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"retina/internal/filter"
	"retina/internal/layers"
	"retina/internal/mbuf"
	"retina/internal/metrics"
)

// CapabilityModel describes what the simulated device's flow engine
// accepts, mirroring the per-vendor quirks §4.1 abstracts away. The zero
// value accepts nothing (hardware filtering unavailable).
type CapabilityModel struct {
	// ExactMatch permits equality predicates on ports and addresses.
	ExactMatch bool
	// PrefixMatch permits CIDR containment predicates.
	PrefixMatch bool
	// RangeMatch permits ordered comparisons and integer ranges; most
	// commodity NICs (including the paper's ConnectX-5 example) do not
	// support these, forcing software fallback.
	RangeMatch bool
	// MaxRules bounds the flow table (0 = unlimited).
	MaxRules int
}

// ConnectX5Model approximates the paper's Mellanox ConnectX-5: protocol
// and exact matches plus prefixes, but no range operands.
func ConnectX5Model() CapabilityModel {
	return CapabilityModel{ExactMatch: true, PrefixMatch: true, MaxRules: 512}
}

// Supports implements filter.Capability.
func (c CapabilityModel) Supports(p filter.Predicate) bool {
	if p.Unary() {
		return true
	}
	switch p.Op {
	case filter.OpEq:
		return c.ExactMatch
	case filter.OpIn:
		if p.Val.Kind == filter.KindIPPrefix {
			return c.PrefixMatch
		}
		return c.RangeMatch
	case filter.OpLt, filter.OpLe, filter.OpGt, filter.OpGe:
		return c.RangeMatch
	}
	return false
}

// Stats aggregates port counters.
type Stats struct {
	RxFrames      uint64 // frames offered to the port
	HWDropped     uint64 // dropped by the hardware filter
	HWOffloadDrop uint64 // dropped by a dynamic per-flow offload rule
	Sunk          uint64 // redirected to the sink by RSS sampling
	Delivered     uint64 // enqueued onto a receive queue
	RingDrops     uint64 // dropped because a descriptor ring was full (packet loss)
	NoMbuf        uint64 // dropped because the buffer pool was exhausted
	Oversize      uint64 // dropped because the frame exceeds the buffer capacity
	NonRSS        uint64 // frames without an L3 header (delivered to queue 0)
	Malformed     uint64 // frames the hardware parser could not read
}

// Config configures a simulated port.
type Config struct {
	// Queues is the number of receive queues (one per core).
	Queues int
	// RingSize bounds each descriptor ring; a full ring drops packets,
	// which is the packet loss the zero-loss experiments measure.
	RingSize int
	// Pool supplies packet buffers.
	Pool *mbuf.Pool
	// Capability models the device's flow engine.
	Capability CapabilityModel
	// Registry resolves predicates when validating rules; nil selects
	// the default registry.
	Registry *filter.Registry
	// RetaSize overrides the redirection table size (default 128).
	RetaSize int
	// Burst sets the producer-side staging depth: DeliverBurst stages up
	// to Burst mbufs per queue and publishes them with a single ring
	// operation, and buffers are drawn from the pool in bulk. 0 or 1
	// publishes one-packet bursts through the same code.
	Burst int
	// RxStamp stamps every accepted frame with metrics.NowNanos at
	// ingress (Mbuf.RxNanos) — the hardware RX timestamp the latency
	// subsystem measures rx→delivery against. The clock is read once
	// per DeliverBurst call, not per frame.
	RxStamp bool
}

// ErrTooManyRules reports flow-table exhaustion.
var ErrTooManyRules = errors.New("nic: flow table full")

// NIC is one simulated port. DeliverBurst is single-producer (the traffic
// source); each receive queue has exactly one consumer core. Stats use
// atomics so monitoring can read them concurrently.
type NIC struct {
	cfg     Config
	reg     *filter.Registry
	rss     *toeplitzTable
	reta    *Reta
	rings   []*Ring
	tbl     atomic.Pointer[ruleTable]
	parsed  layers.Parsed // hardware parser state (single-producer)
	scratch [maxRSSInput]byte

	// Producer state (single-producer, like DeliverBurst itself):
	// pending stages per-queue mbufs until a full burst is published with
	// one EnqueueBurst; cache hands out bulk-taken buffers so the pool
	// lock is taken once per burst, not once per packet.
	burst   int
	pending [][]*mbuf.Mbuf
	cache   *mbuf.Cache
	// nowNs is the RX timestamp applied to frames of the current
	// DeliverBurst call (producer-owned; 0 when RxStamp is off).
	nowNs int64

	// ruleMu serializes table mutations across the two writers (the
	// control plane's static reconciles and the offload manager's flow
	// installs); the datapath reads both partitions lock-free.
	ruleMu    sync.Mutex
	ftbl      atomic.Pointer[flowTable]
	flowTrims atomic.Uint64

	// Aggregation taps (tap.go): per-frame counter callbacks placed
	// before the drop stages, modeling hardware flow counters. Same
	// copy-on-write discipline as the rule tables.
	taps   atomic.Pointer[tapTable]
	tapSeq atomic.Uint64

	// bucketPkts counts RSS-hashed frames per redirection-table bucket —
	// the load signal the adaptive rebalancer reads (producer writes,
	// rebalancer reads; hence atomic despite the single producer).
	bucketPkts []atomic.Uint64
	// retaEpoch advances once per applied redirection-table assignment,
	// versioning the dispatch function the way program epochs version the
	// filter set.
	retaEpoch atomic.Uint64
	// Queued Reta.Assign requests. The producer owns the redirection
	// table on the hot path, so the control plane never swaps an entry
	// directly — it queues a request (assignFlag is the cheap hot-path
	// signal) and the producer applies it between frames, closing the
	// race between a reta lookup and the subsequent ring enqueue and
	// anchoring each swap to an exact ring-tail snapshot for drain
	// detection.
	assignMu   sync.Mutex
	assignQ    []*AssignReq
	assignFlag atomic.Bool
	closed     atomic.Bool

	rxFrames  atomic.Uint64
	hwDropped atomic.Uint64
	hwOffload atomic.Uint64
	sunk      atomic.Uint64
	delivered atomic.Uint64
	ringDrops atomic.Uint64
	noMbuf    atomic.Uint64
	oversize  atomic.Uint64
	nonRSS    atomic.Uint64
	malformed atomic.Uint64
}

type compiledRule struct {
	src      string
	matchers []func(*layers.Parsed) bool
	// hits counts frames this rule admitted (first matching rule wins
	// the attribution, like a priority flow table's per-entry counter).
	// compiledRule is held by pointer so the counter survives table
	// generations that keep the rule installed.
	hits atomic.Uint64
}

// RuleStat is one static rule's observable state.
type RuleStat struct {
	Src  string
	Hits uint64
}

// ruleTable is one immutable generation of the device's flow table. The
// whole table swaps atomically — the hardware analogue of a flow-group
// replace — so the (single-producer) datapath and the control plane
// never observe a half-updated rule set.
type ruleTable struct {
	rules []*compiledRule
	on    bool
}

var emptyRuleTable = &ruleTable{}

// New creates a port with empty flow table (hardware filter off:
// everything is RSS-dispatched).
func New(cfg Config) *NIC {
	if cfg.Queues <= 0 {
		cfg.Queues = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 4096
	}
	if cfg.RetaSize <= 0 {
		cfg.RetaSize = DefaultRetaSize
	}
	if cfg.Burst < 1 {
		cfg.Burst = 1
	}
	reg := cfg.Registry
	if reg == nil {
		reg = filter.DefaultRegistry()
	}
	n := &NIC{
		cfg:        cfg,
		reg:        reg,
		rss:        symmetricRSS,
		reta:       NewReta(cfg.RetaSize, cfg.Queues),
		rings:      make([]*Ring, cfg.Queues),
		burst:      cfg.Burst,
		pending:    make([][]*mbuf.Mbuf, cfg.Queues),
		cache:      mbuf.NewCache(cfg.Pool, cfg.Burst),
		bucketPkts: make([]atomic.Uint64, cfg.RetaSize),
	}
	for i := range n.rings {
		n.rings[i] = NewRing(cfg.RingSize)
		n.pending[i] = make([]*mbuf.Mbuf, 0, n.burst)
	}
	n.tbl.Store(emptyRuleTable)
	n.ftbl.Store(emptyFlowTable)
	return n
}

// Capability exposes the device's flow-engine model for filter
// compilation (filter.Options.HW).
func (n *NIC) Capability() filter.Capability { return n.cfg.Capability }

// compileRules validates rules against the capability model and builds
// their matchers, without touching the installed table.
func (n *NIC) compileRules(rules []filter.FlowRule) ([]*compiledRule, error) {
	if n.cfg.Capability.MaxRules > 0 && len(rules) > n.cfg.Capability.MaxRules {
		return nil, fmt.Errorf("%w: %d rules, limit %d", ErrTooManyRules, len(rules), n.cfg.Capability.MaxRules)
	}
	compiled := make([]*compiledRule, 0, len(rules))
	for _, r := range rules {
		cr := &compiledRule{src: r.String()}
		for _, pred := range r.Preds {
			if !n.cfg.Capability.Supports(pred) {
				return nil, fmt.Errorf("nic: device cannot match %q", pred)
			}
			m, err := filter.CompilePredicateMatcher(n.reg, pred)
			if err != nil {
				return nil, err
			}
			cr.matchers = append(cr.matchers, m)
		}
		compiled = append(compiled, cr)
	}
	return compiled, nil
}

// InstallRules validates and installs hardware flow rules, atomically
// replacing whatever was installed. Packets matching any rule are
// RSS-dispatched; with at least one rule installed, non-matching packets
// are dropped in "hardware" at zero CPU cost. Safe to call from a
// control goroutine while the datapath delivers.
func (n *NIC) InstallRules(rules []filter.FlowRule) error {
	compiled, err := n.compileRules(rules)
	if err != nil {
		return err
	}
	n.ruleMu.Lock()
	defer n.ruleMu.Unlock()
	// Rules present in both generations keep their flow-table entries —
	// and their hit counters — in place, like a real device's reconcile.
	old := n.tbl.Load()
	if len(old.rules) > 0 {
		bySrc := make(map[string]*compiledRule, len(old.rules))
		for _, r := range old.rules {
			bySrc[r.src] = r
		}
		for i, r := range compiled {
			if prev := bySrc[r.src]; prev != nil {
				compiled[i] = prev
			}
		}
	}
	n.tbl.Store(&ruleTable{rules: compiled, on: len(compiled) > 0})
	// Static subscription rules take precedence for the shared MaxRules
	// capacity: shrink the dynamic partition if the install outgrew it.
	n.trimFlowsLocked()
	return nil
}

// ClearRules removes all static flow rules (hardware filtering off:
// every frame is RSS-dispatched and filtered in software). Dynamic
// per-flow offload rules are unaffected — they encode per-connection
// software verdicts that stay valid without a static filter.
func (n *NIC) ClearRules() {
	n.ruleMu.Lock()
	defer n.ruleMu.Unlock()
	n.tbl.Store(emptyRuleTable)
}

// InstalledRuleStats reports the static rules with their per-rule hit
// counters. Safe from any goroutine.
func (n *NIC) InstalledRuleStats() []RuleStat {
	tbl := n.tbl.Load()
	out := make([]RuleStat, len(tbl.rules))
	for i, r := range tbl.rules {
		out[i] = RuleStat{Src: r.src, Hits: r.hits.Load()}
	}
	return out
}

// InstalledRuleStrings reports the currently installed rules in their
// Figure 3 rendering — the observable the reconcile tests diff against.
// Safe from any goroutine.
func (n *NIC) InstalledRuleStrings() []string {
	tbl := n.tbl.Load()
	out := make([]string, len(tbl.rules))
	for i, r := range tbl.rules {
		out[i] = r.src
	}
	return out
}

// HardwareActive reports whether hardware filtering is currently
// enforcing a rule set (false = all frames pass to software).
func (n *NIC) HardwareActive() bool { return n.tbl.Load().on }

// DiffRules computes the minimal install/remove sets transitioning the
// hardware table from old to next, comparing rules by their canonical
// rendering. Rules in both sets are untouched — a real device keeps
// their flow-table entries (and their counters) in place across the
// reconcile.
func DiffRules(old, next []filter.FlowRule) (install, remove []filter.FlowRule) {
	oldSet := make(map[string]bool, len(old))
	for _, r := range old {
		oldSet[r.String()] = true
	}
	nextSet := make(map[string]bool, len(next))
	for _, r := range next {
		s := r.String()
		if nextSet[s] {
			continue // duplicate within next
		}
		nextSet[s] = true
		if !oldSet[s] {
			install = append(install, r)
		}
	}
	seen := make(map[string]bool, len(old))
	for _, r := range old {
		s := r.String()
		if seen[s] {
			continue
		}
		seen[s] = true
		if !nextSet[s] {
			remove = append(remove, r)
		}
	}
	return install, remove
}

// ReconcileGrow is the first half of an install-before-remove rule swap:
// it publishes the union of the currently installed set and next, so
// hardware coverage is a superset of both the outgoing and the incoming
// program while cores transition between them. If the union cannot be
// held (table capacity) or next contains a rule the device cannot
// express, the table falls back to pass-everything — software filtering
// takes over, coverage never narrows — and the reason is returned.
func (n *NIC) ReconcileGrow(current, next []filter.FlowRule) error {
	install, _ := DiffRules(current, next)
	if len(install) == 0 {
		return nil // next ⊆ current: already covered
	}
	union := make([]filter.FlowRule, 0, len(current)+len(install))
	union = append(union, current...)
	union = append(union, install...)
	if err := n.InstallRules(union); err != nil {
		n.ClearRules()
		return err
	}
	return nil
}

// ReconcileShrink is the second half of the swap, called after every
// core has acked the new program: it publishes exactly next, dropping
// the outgoing program's rules. An empty next (no subscription
// contributes rules, or none can be expressed) turns hardware filtering
// off rather than installing a drop-everything table.
func (n *NIC) ReconcileShrink(next []filter.FlowRule) error {
	if len(next) == 0 {
		n.ClearRules()
		return nil
	}
	if err := n.InstallRules(next); err != nil {
		n.ClearRules()
		return err
	}
	return nil
}

// SetSinkFraction redirects approximately frac of flows to the sink.
func (n *NIC) SetSinkFraction(frac float64) { n.reta.SetSinkFraction(frac) }

// Queues returns the number of receive queues.
func (n *NIC) Queues() int { return len(n.rings) }

// Queue returns the receive ring for queue i; each core polls one via
// DequeueBurst.
func (n *NIC) Queue(i int) *Ring { return n.rings[i] }

// PokeAll wakes every queue's consumer without delivering traffic, so
// idle cores reach a burst boundary and pick up a newly published
// program set. Safe from any goroutine.
func (n *NIC) PokeAll() {
	for _, r := range n.rings {
		r.Poke()
	}
}

// RingOccupancy reports queue i's current depth and capacity — the ring
// high-watermark signal the cores consult to shed optional work before
// the ring overflows. Frames staged in the producer's pending burst are
// not counted; they are published within one burst interval.
func (n *NIC) RingOccupancy(i int) (used, capacity int) {
	return n.rings[i].Occupancy()
}

// RingHighWater reports the deepest occupancy queue i has ever reached.
func (n *NIC) RingHighWater(i int) int {
	return n.rings[i].HighWater()
}

// FlushPending publishes every staged partial burst to its ring. The
// producer calls it when the source goes idle or ends so no frame waits
// for a burst that will never fill. Not safe concurrently with
// DeliverBurst.
func (n *NIC) FlushPending() {
	if n.assignFlag.Load() {
		n.applyAssigns()
	}
	for q := range n.pending {
		n.flushQueue(q)
	}
}

// Close flushes staged bursts, returns cached buffers to the pool, and
// closes all rings, signaling consumers that traffic has ended. Call it
// from the producer goroutine (it touches producer-owned state).
func (n *NIC) Close() {
	n.FlushPending()
	n.cache.Release()
	n.closed.Store(true)
	for _, r := range n.rings {
		r.Close()
	}
}

// Reopen readies a closed device for another run: its rings accept and
// hold frames again, so consumers started afterwards wait for traffic
// instead of exiting at once. Call it from the producer goroutine before
// the consumers start. A device that was never closed is unaffected.
func (n *NIC) Reopen() {
	for _, r := range n.rings {
		r.Reopen()
	}
	n.closed.Store(false)
}

// deliver performs what the hardware does for one frame: header parse,
// flow-rule match, RSS hash, redirection-table lookup, and staging for
// the ring. The caller has already counted it under rx.
func (n *NIC) deliver(frame []byte, tick uint64) {
	if err := n.parsed.DecodeLayers(frame); err != nil {
		n.malformed.Add(1)
		return
	}

	// NIC-stage aggregation counters run first: a hardware flow counter
	// observes every admitted frame, even ones the offload or static
	// tables drop before reaching any core.
	if tt := n.taps.Load(); tt != nil && len(tt.taps) > 0 {
		n.runTaps(tt, &n.parsed, len(frame), tick)
	}

	// Dynamic per-flow offload rules are more specific than the static
	// subscription wildcards, so they match first (a priority flow
	// table): the flow already reached a terminal software verdict and
	// its frames are discarded before costing any core cycles.
	if ft := n.ftbl.Load(); len(ft.flows) > 0 && n.matchFlow(ft, &n.parsed, tick) {
		n.hwOffload.Add(1)
		return
	}

	if tbl := n.tbl.Load(); tbl.on && !matchRules(tbl.rules, &n.parsed) {
		n.hwDropped.Add(1)
		return
	}

	queue := int16(0)
	var hash uint32
	if input, ok := RSSInput(&n.parsed, n.scratch[:]); ok {
		hash = n.rss.hash(input)
		queue = n.reta.Lookup(hash)
		n.bucketPkts[hash%uint32(len(n.bucketPkts))].Add(1)
	} else {
		n.nonRSS.Add(1)
	}
	if queue == SinkQueue {
		n.sunk.Add(1)
		return
	}

	m := n.allocMbuf(frame)
	if m == nil {
		return // attributed inside allocMbuf (pool exhausted vs oversize)
	}
	m.Queue = uint16(queue)
	m.RxTick = tick
	m.RSSHash = hash
	m.RxNanos = n.nowNs

	n.pending[queue] = append(n.pending[queue], m)
	if len(n.pending[queue]) >= n.burst {
		n.flushQueue(int(queue))
	}
}

// DeliverBurst offers a batch of frames sharing one producer pass;
// frames[i] arrives at ticks[i]. Each frame is parsed, matched against
// the flow rules, RSS-dispatched, and staged for its queue's ring; the
// rx counter is bumped once per batch. Not safe for concurrent use (a
// port has one wire).
func (n *NIC) DeliverBurst(frames [][]byte, ticks []uint64) {
	n.rxFrames.Add(uint64(len(frames)))
	if n.assignFlag.Load() {
		n.applyAssigns()
	}
	if n.cfg.RxStamp {
		n.nowNs = metrics.NowNanos()
	}
	for i, f := range frames {
		n.deliver(f, ticks[i])
	}
}

// allocMbuf draws a buffer filled with frame through the bulk cache,
// attributing each failure to its cause: pool exhaustion (no_mbuf, one
// pool allocation failure recorded per dropped frame) or a frame too
// large for the buffer geometry (oversize — the pool had buffers, the
// frame just cannot be stored).
func (n *NIC) allocMbuf(frame []byte) *mbuf.Mbuf {
	m, err := n.cache.AllocData(frame)
	switch err {
	case nil:
		return m
	case mbuf.ErrPoolExhausted:
		n.noMbuf.Add(1)
	default:
		n.oversize.Add(1)
	}
	return nil
}

// flushQueue publishes queue q's staged burst. Frames the ring cannot
// take are dropped and attributed to ring overflow exactly once each.
func (n *NIC) flushQueue(q int) {
	pq := n.pending[q]
	if len(pq) == 0 {
		return
	}
	k := n.rings[q].EnqueueBurst(pq)
	n.delivered.Add(uint64(k))
	if k < len(pq) {
		n.ringDrops.Add(uint64(len(pq) - k))
		mbuf.FreeBulk(pq[k:])
	}
	for i := range pq {
		pq[i] = nil
	}
	n.pending[q] = pq[:0]
}

// matchRules reports whether any rule's conjunction matches the frame,
// counting a hit on the first rule that does.
func matchRules(rules []*compiledRule, p *layers.Parsed) bool {
	for _, r := range rules {
		ok := true
		for _, m := range r.matchers {
			if !m(p) {
				ok = false
				break
			}
		}
		if ok {
			r.hits.Add(1)
			return true
		}
	}
	return false
}

// Stats snapshots the port counters.
func (n *NIC) Stats() Stats {
	return Stats{
		RxFrames:      n.rxFrames.Load(),
		HWDropped:     n.hwDropped.Load(),
		HWOffloadDrop: n.hwOffload.Load(),
		Sunk:          n.sunk.Load(),
		Delivered:     n.delivered.Load(),
		RingDrops:     n.ringDrops.Load(),
		NoMbuf:        n.noMbuf.Load(),
		Oversize:      n.oversize.Load(),
		NonRSS:        n.nonRSS.Load(),
		Malformed:     n.malformed.Load(),
	}
}

// Loss reports packets lost after hardware filtering (ring overflows,
// buffer exhaustion, and unstorable oversized frames) — the "packet
// loss" the paper's zero-loss experiments require to be zero.
func (s Stats) Loss() uint64 { return s.RingDrops + s.NoMbuf + s.Oversize }
