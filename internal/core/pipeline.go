package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"retina/internal/aggregate"
	"retina/internal/conntrack"
	"retina/internal/filter"
	"retina/internal/layers"
	"retina/internal/mbuf"
	"retina/internal/metrics"
	"retina/internal/offload"
	"retina/internal/overload"
	"retina/internal/proto"
	"retina/internal/reassembly"
	"retina/internal/telemetry"
)

// probeBudget bounds how many stream bytes may be spent identifying a
// protocol before the connection is declared unidentifiable.
const probeBudget = 8 << 10

// pktBufferCap bounds packets buffered per connection while awaiting a
// filter verdict (packet-level subscriptions, Figure 4a's Probe state).
const defaultPktBufferCap = 512

// maxStreamBufBytes bounds stream bytes buffered per connection while a
// byte-stream subscription awaits the filter verdict.
const maxStreamBufBytes = 256 << 10

// Config configures one processing core.
type Config struct {
	// Set is the initial multi-subscription program set (required; the
	// control plane publishes its successors).
	Set *ProgramSet
	// Conntrack configures the core's connection table.
	Conntrack conntrack.Config
	// Profile enables per-stage wall-time sampling (Figure 7).
	Profile bool
	// PacketBufferCap overrides the per-connection packet buffer bound.
	PacketBufferCap int
	// ExtraParsers supplies user-defined protocol parser factories
	// (Appendix A), layered over the built-ins.
	ExtraParsers map[string]proto.Factory
	// Tracer, when non-nil, samples connections for lifecycle tracing.
	// It may be shared across cores (sampling is atomic).
	Tracer *telemetry.ConnTracer
	// Budget bounds the core's per-class buffered bytes (the zero value
	// selects the overload package defaults; negative fields disable a
	// class's bound).
	Budget overload.Budget
	// PoolSignal reports (free, total) buffers of the core's mbuf pool;
	// nil disables the pool low-watermark shedding signal.
	PoolSignal func() (free, total int)
	// RingSignal reports (used, capacity) of the core's receive ring;
	// nil disables the ring high-watermark shedding signal.
	RingSignal func() (used, capacity int)
	// BurstSize is the receive burst the core dequeues and processes at
	// a time (Run / ProcessBurst). <= 0 selects DefaultBurstSize; 1 runs
	// one-packet bursts through the same code.
	BurstSize int
	// Offload, when non-nil, receives per-connection terminal-verdict
	// notifications at burst boundaries — the dynamic flow-offload
	// feedback loop that installs per-flow drop rules on the device
	// (DESIGN.md §13).
	Offload OffloadSink
	// Latency enables the observability layer (DESIGN.md §14):
	// rx→delivery and sampled per-stage latency histograms, poll-loop
	// duty-cycle accounting, and the elephant-flow witness. Off by
	// default; the hot path then pays nothing beyond nil checks.
	Latency bool
}

// OffloadSink is the face of the flow-offload manager the core pushes
// terminal verdicts to. Submit is called at burst boundaries with the
// core's current program-set epoch; implementations must be safe for
// concurrent use across cores. *offload.Manager implements it.
type OffloadSink interface {
	Submit(epoch uint64, reqs []offload.Request)
}

// DefaultBurstSize mirrors DPDK's conventional 32-packet receive burst,
// the batch the paper's datapath amortizes I/O and bookkeeping over.
const DefaultBurstSize = 32

// RxRing is the burst face of a receive ring the core consumes from.
// DequeueBurst fills buf and returns the count without blocking; Wait
// blocks until the ring is non-empty (true) or closed and drained
// (false). Wait may also return true spuriously when the ring is poked
// (the control plane's wake-up for epoch pickup on idle cores).
// *nic.Ring implements it.
type RxRing interface {
	DequeueBurst(buf []*mbuf.Mbuf) int
	Wait() bool
}

// Core is one share-nothing processing pipeline instance.
type Core struct {
	ID int

	cfg    Config
	table  *conntrack.Table
	parReg *proto.Registry
	stages *StageStats
	ctr    coreCounters
	tracer *telemetry.ConnTracer

	// ps is the program set the core is currently serving (core
	// goroutine only); next is the RCU publication slot the control
	// plane stores into; acked is the epoch the core has picked up —
	// once every core acks epoch E, no packet is being evaluated
	// against any set older than E and the control plane may retire it.
	ps    *ProgramSet
	next  atomic.Pointer[ProgramSet]
	acked atomic.Uint64

	// protoCtr is swapped wholesale on registry rebuild (epoch pickup)
	// so monitoring goroutines never observe a map mutation.
	protoCtr atomic.Pointer[protoCounters]

	// acct tracks the core's buffered bytes per class and answers
	// reserve/shed decisions; reasmHooks adapts it to the reassembler's
	// budget interface (built once, shared by every connection).
	acct       *overload.Accountant
	reasmHooks reassembly.BudgetHooks

	// pendingBuf is an approximate FIFO of connections holding buffered
	// packets while their filter verdict is pending — the eviction order
	// for packet-buffer shedding (oldest verdict-pending first; those
	// have waited longest and are the least likely to still match).
	// Entries go stale when a connection's buffer resolves; they are
	// skipped on scan and compacted when the queue outgrows the live
	// count (pendingCount). Entries carry the connection ID captured at
	// enqueue: the conntrack slab recycles Conn storage, so a stale
	// pointer can alias a newer connection — the never-reused ID exposes
	// that (see pendingState).
	pendingBuf   []pendingEntry
	pendingCount int

	// Migration coordination (DESIGN.md §16): the control plane posts
	// bucket migrations to the involved cores; migFlag is the cheap
	// burst-boundary signal. exportMig is the export awaiting ring
	// drain (core goroutine only); migErrs counts import anomalies.
	migMu     sync.Mutex
	migQ      []*Migration
	migFlag   atomic.Bool
	exportMig *Migration
	migErrs   atomic.Uint64

	now uint64

	// Burst scratch state: one decode slot, one match mask, and one
	// slot-indexed filter result row per packet of the largest burst
	// seen, reused across bursts so the steady state allocates nothing.
	burstParsed []layers.Parsed
	burstMask   []uint64
	burstRes    []filter.Result

	// pktScratch is this core's reusable packet-filter accumulator
	// (avoids a per-packet heap allocation in both engines).
	pktScratch filter.PacketScratch

	// pktOut is the reusable Packet handed to OnPacket callbacks. The
	// subscription contract already limits *Packet validity to the
	// callback's duration (its Data dies with the mbuf then anyway), so
	// reusing one struct per core is observationally equivalent to
	// allocating — minus one heap allocation per delivered packet.
	pktOut Packet

	// sessOK is the per-session per-subscription verdict scratch;
	// frameBufs collects the buffer entries one frame landed in so a
	// shared disposition token can be wired after the dispatch loop.
	sessOK    []bool
	frameBufs []*pktBufEntry

	// offloadReqs accumulates terminal-verdict offload requests within a
	// burst; flushOffload publishes them to cfg.Offload at burst
	// boundaries (core goroutine only).
	offloadReqs []offload.Request

	// Observability state (all nil when Config.Latency is off). nowNs is
	// the wall clock read once at the top of each burst; rx→delivery
	// observations subtract mbuf RX stamps from it so delivery costs no
	// clock read per packet.
	lat   *LatencyStats
	duty  *DutyStats
	wit   *FlowWitness
	nowNs int64
	// obsBursts throttles folding the burst-local observability state
	// into the shared structures to every obsFlushEvery-th burst:
	// monitoring scrapes at second granularity, so per-burst folds
	// (seven histogram flushes plus a mutexed witness copy) were pure
	// overhead. AdvanceTime and Flush still fold unconditionally, so
	// idle and end-of-run snapshots are exact.
	obsBursts uint64

	// Aggregation state (rebuilt on epoch pickup): aggBySlot mirrors
	// ps.Slots for packet-stage queries (nil otherwise) so the burst loop
	// indexes it straight off the match mask; aggStates lists every
	// aggregation state this core updates at any stage, for clock
	// advancement and final sealing. States belong to the Instance (which
	// outlives program sets), so a swap re-resolves pointers without
	// losing window contents.
	aggBySlot []*aggregate.CoreState
	aggStates []*aggregate.CoreState

	// Connection-state slab (connstate.go): freeStates lists reusable
	// states, releasedStates those retired since the last burst
	// boundary, and stateChunk is the size of the last chunk carved.
	freeStates     *connState
	releasedStates *connState
	stateChunk     int
}

// obsFlushEvery is the observability fold interval in bursts (power of
// two). At 64 bursts of 32 packets, shared metrics lag the hot path by
// at most ~2k packets — microseconds at line rate.
const obsFlushEvery = 64

// burstDelta accumulates the per-packet hot counters of one burst in
// plain (non-atomic) fields; ProcessBurst folds it into the shared
// atomic counters once per burst. Monitoring sees counts at burst
// granularity, and the conservation identity rx == delivered + Σdrops
// holds exactly whenever no burst is mid-flight (always at end of run).
type burstDelta struct {
	processed        uint64
	filterDropped    uint64
	deliveredPackets uint64
}

func (c *Core) foldDelta(d *burstDelta) {
	if d.processed > 0 {
		c.ctr.processed.Add(d.processed)
	}
	if d.filterDropped > 0 {
		c.ctr.filterDropped.Add(d.filterDropped)
	}
	if d.deliveredPackets > 0 {
		c.ctr.deliveredPackets.Add(d.deliveredPackets)
	}
}

// pktToken resolves one frame's drop/delivery account exactly once when
// several subscriptions buffer references to the same frame. holders is
// the number of buffer entries still holding the frame; the first flush
// marks it delivered, and a discard counts a drop only when it is the
// last holder and no delivery happened — so a frame buffered for two
// subscriptions and delivered by either counts as delivered, and counts
// as exactly one drop only when every holder discarded it.
type pktToken struct {
	holders  int
	resolved bool
}

// pktBufEntry is one buffered frame reference awaiting a subscription's
// filter verdict. tok is nil when this entry solely owns the frame's
// disposition account (the single-subscription case, and the common
// multi-subscription case of one buffering subscription).
type pktBufEntry struct {
	m   *mbuf.Mbuf
	tok *pktToken
}

// NewCore builds a core. The parser registry is populated with the union
// of the filters' connection protocols and the subscriptions' data-type
// protocols — probing work is proportional to the subscriptions (§5.2).
func NewCore(id int, cfg Config) (*Core, error) {
	ps := cfg.Set
	if ps == nil {
		return nil, fmt.Errorf("core: nil program set")
	}
	reg, err := proto.BuildRegistryWith(ps.ParserNames, ps.ExtraParsers)
	if err != nil {
		return nil, err
	}
	if cfg.PacketBufferCap <= 0 {
		cfg.PacketBufferCap = defaultPktBufferCap
	}
	acct := overload.NewAccountant(cfg.Budget)
	if cfg.PoolSignal != nil {
		acct.SetPoolSignal(cfg.PoolSignal)
	}
	if cfg.RingSignal != nil {
		acct.SetRingSignal(cfg.RingSignal)
	}
	if cfg.BurstSize <= 0 {
		cfg.BurstSize = DefaultBurstSize
	}
	c := &Core{
		ID:     id,
		cfg:    cfg,
		ps:     ps,
		table:  conntrack.NewTable(cfg.Conntrack),
		parReg: reg,
		stages: NewStageStats(cfg.Profile),
		tracer: cfg.Tracer,
		acct:   acct,
	}
	c.acked.Store(ps.Epoch)
	c.protoCtr.Store(extendProtoCounters(&protoCounters{}, reg.Names()))
	if cfg.Latency {
		c.lat = NewLatencyStats()
		c.stages.lat = c.lat
		c.duty = &DutyStats{}
		c.wit = &FlowWitness{}
	}
	// Shared budget hooks for every connection's reassembler: reserve
	// consults the low-watermark signals first (under pool/ring pressure
	// parking OOO segments is optional work we skip), then the byte
	// budget. Refusals and retroactive sheds both count as reasm_budget
	// drops — segment-level, outside the frame-disposition taxonomy.
	c.reasmHooks = reassembly.BudgetHooks{
		Reserve: func(n int) bool {
			if c.acct.LowResources() {
				return false
			}
			return c.acct.TryReserve(overload.ClassReassembly, n)
		},
		Release: func(n int) { c.acct.Release(overload.ClassReassembly, n) },
		OnShed:  func(int) { c.ctr.reasmBudget.Inc() },
	}
	// Pressure evictions flow through the same teardown as timer-driven
	// expiry so buffered state is freed and counted.
	c.table.SetEvictHandler(c.onExpire)
	c.rebuildAgg()
	return c, nil
}

// rebuildAgg re-resolves this core's aggregation states from the
// current program set. Instances persist across program sets, so a
// retained subscription's state (and its open windows) carries over; a
// newly attached query creates state on first resolve. States tracked
// before the swap stay tracked — a removed query's open windows must
// still advance to their seal even though its slot is gone. NIC-stage
// queries are excluded: their participant is the NIC tap, not a core.
func (c *Core) rebuildAgg() {
	if c.aggBySlot == nil || len(c.aggBySlot) < len(c.ps.Slots) {
		c.aggBySlot = make([]*aggregate.CoreState, len(c.ps.Slots))
	}
	for i := range c.aggBySlot {
		c.aggBySlot[i] = nil
	}
	for i, sp := range c.ps.Slots {
		if sp == nil || sp.Agg == nil || sp.Agg.Q.Stage == aggregate.StageNIC {
			continue
		}
		st := sp.Agg.StateFor(c.ID)
		if st == nil {
			continue
		}
		c.trackAgg(st)
		if sp.Agg.Q.Stage == aggregate.StagePacket {
			c.aggBySlot[i] = st
		}
	}
}

// trackAgg registers a state for clock advancement and final sealing
// (idempotent; the list is at most a few entries).
func (c *Core) trackAgg(st *aggregate.CoreState) {
	for _, s := range c.aggStates {
		if s == st {
			return
		}
	}
	c.aggStates = append(c.aggStates, st)
}

// SetProgramSet publishes a new program set to the core (RCU publish
// side). The core picks it up at its next burst boundary — including
// while idle, if its ring is poked — and acks the epoch; until then
// packets are processed against the previous set. Safe to call from the
// control plane while the core runs.
func (c *Core) SetProgramSet(ps *ProgramSet) { c.next.Store(ps) }

// AckedEpoch returns the program-set epoch the core has picked up. Safe
// to call concurrently.
func (c *Core) AckedEpoch() uint64 { return c.acked.Load() }

// pickup swaps in a newly published program set at a burst boundary.
// Connections reconcile lazily on their next packet; the parser registry
// is rebuilt only when the subscription union's protocol needs changed.
func (c *Core) pickup() {
	ps := c.next.Load()
	if ps == nil || ps == c.ps {
		return
	}
	if !sameParsers(ps.ParserNames, c.ps.ParserNames) {
		// The control plane validates parser availability at Add time, so
		// a rebuild failure here is unreachable; if it ever happens, keep
		// the old registry rather than killing the datapath.
		if reg, err := proto.BuildRegistryWith(ps.ParserNames, ps.ExtraParsers); err == nil {
			c.parReg = reg
			c.protoCtr.Store(extendProtoCounters(c.protoCtr.Load(), reg.Names()))
		}
	}
	c.ps = ps
	c.ctr.epochSwaps.Inc()
	c.acked.Store(ps.Epoch)
	c.rebuildAgg()
}

// Stats returns a snapshot of the core's packet counters. Safe to call
// from a monitoring goroutine while the core runs.
func (c *Core) Stats() CoreStats { return c.ctr.snapshot() }

// ProtoStats returns per-protocol identification/parsing failure counts.
// Safe to call concurrently with processing.
func (c *Core) ProtoStats() map[string]ProtoStat {
	pc := c.protoCtr.Load()
	out := make(map[string]ProtoStat, len(pc.probeRejects))
	for name, pr := range pc.probeRejects {
		out[name] = ProtoStat{
			ProbeRejects: pr.Value(),
			ParseErrors:  pc.parseErrors[name].Value(),
		}
	}
	return out
}

// Stages returns the core's stage counters.
func (c *Core) StageStats() *StageStats { return c.stages }

// Table exposes the connection table (monitoring, Figure 8 sampling).
func (c *Core) Table() *conntrack.Table { return c.table }

// Accountant exposes the core's overload accountant (monitoring).
func (c *Core) Accountant() *overload.Accountant { return c.acct }

// Now returns the core's current virtual tick.
func (c *Core) Now() uint64 { return c.now }

// Latency returns the core's latency histograms (nil when
// Config.Latency is off).
func (c *Core) Latency() *LatencyStats { return c.lat }

// Duty returns the core's poll-loop duty accounting (nil when
// Config.Latency is off).
func (c *Core) Duty() *DutyStats { return c.duty }

// Witness returns the core's elephant-flow witness (nil when
// Config.Latency is off).
func (c *Core) Witness() *FlowWitness { return c.wit }

// ProcessBurst consumes a burst of packet buffers in two passes: decode
// + software packet filter over the whole batch (one stage-timer entry,
// tight loop over the tries), then per-packet disposition. The virtual
// clock follows each packet's RxTick, but connection-expiry timers fire
// once per burst at the final clock, and the burst's hot counters are
// folded into the shared atomics once. Frees (one reference per mbuf)
// are batched through the pool in one lock acquisition. A newly
// published program set is picked up at the top — never mid-burst — so
// every packet of a burst sees one consistent subscription set.
func (c *Core) ProcessBurst(ms []*mbuf.Mbuf) {
	c.pickup()
	n := len(ms)
	if n == 0 {
		return
	}
	if c.lat != nil {
		c.nowNs = metrics.NowNanos()
	}
	slots := len(c.ps.Multi.Slots)
	if cap(c.burstParsed) < n {
		c.burstParsed = make([]layers.Parsed, n)
		c.burstMask = make([]uint64, n)
	}
	if cap(c.burstRes) < n*slots {
		c.burstRes = make([]filter.Result, n*slots)
	}
	parsed := c.burstParsed[:n]
	masks := c.burstMask[:n]
	resAll := c.burstRes[:n*slots]

	var d burstDelta
	d.processed = uint64(n)
	c.stages.TimeBatch(StageSWFilter, uint64(n), func() {
		for i, m := range ms {
			if err := parsed[i].DecodeLayers(m.Data()); err != nil {
				masks[i] = 0
				continue
			}
			masks[i] = c.ps.Multi.PacketInto(&parsed[i], &c.pktScratch, resAll[i*slots:(i+1)*slots])
		}
	})

	for i, m := range ms {
		if m.RxTick > c.now {
			c.now = m.RxTick
		}
		mr := filter.MultiResult{Mask: masks[i], Res: resAll[i*slots : (i+1)*slots]}
		c.processFiltered(&parsed[i], m, mr, &d)
	}
	c.foldDelta(&d)
	c.advance()
	c.flushOffload()
	c.recycleStates()
	if c.lat != nil {
		c.obsBursts++
		if c.obsBursts&(obsFlushEvery-1) == 0 {
			c.publishObs()
		}
	}
	mbuf.FreeBulk(ms)
}

// processFiltered routes one packet that already went through decode and
// the packet filters. It does not free m — the caller owns one reference
// and releases it (singly or in bulk) after the call; paths that keep
// the packet take their own reference.
func (c *Core) processFiltered(p *layers.Parsed, m *mbuf.Mbuf, mr filter.MultiResult, d *burstDelta) {
	if mr.Mask == 0 {
		d.filterDropped++
		return
	}
	first := bits.TrailingZeros64(mr.Mask)
	m.Mark = uint32(mr.Res[first].Node)

	// Packet-stage aggregation (Sonata push-down): queries whose filter
	// is packet-decidable fold here, straight off the filter verdict,
	// before any conntrack or session work runs for them.
	if agg := mr.Mask & c.ps.aggPkt; agg != 0 {
		for rem := agg; rem != 0; {
			i := bits.TrailingZeros64(rem)
			rem &= rem - 1
			if mr.Res[i].Terminal {
				c.aggBySlot[i].UpdatePacket(p, m.Len(), m.RxTick)
			}
		}
	}

	// Fast path: when every matching subscription is packet-level with a
	// terminal match and no session protocols, the callbacks run
	// immediately and all stateful processing is bypassed (§5.1). The
	// frame counts once as delivered regardless of fan-out.
	if mr.Mask&^c.ps.fastSlots == 0 {
		allTerminal := true
		rem := mr.Mask
		for rem != 0 {
			i := bits.TrailingZeros64(rem)
			rem &= rem - 1
			if !mr.Res[i].Terminal {
				allTerminal = false
				break
			}
		}
		if allTerminal {
			rem = mr.Mask
			for rem != 0 {
				i := bits.TrailingZeros64(rem)
				rem &= rem - 1
				c.deliverPacketTo(c.ps.Slots[i], m)
			}
			d.deliveredPackets++
			return
		}
	}

	c.processStateful(p, m, mr)
}

// advance moves the connection table's clock, firing expirations, and
// seals aggregation windows whose grace has passed (each state's fast
// path is a single compare).
func (c *Core) advance() {
	c.table.Advance(c.now, c.onExpire)
	for _, st := range c.aggStates {
		st.Advance(c.now)
	}
}

// aggState resolves a subscription's aggregation state for this core,
// tracking it for clock advancement and final sealing. Draining specs
// leave the slot table but keep delivering connection records, so their
// states resolve through here rather than the slot mirror.
func (c *Core) aggState(sp *SubSpec) *aggregate.CoreState {
	st := sp.Agg.StateFor(c.ID)
	if st == nil {
		return nil
	}
	c.trackAgg(st)
	return st
}

// AdvanceTime explicitly moves the virtual clock (idle periods, end of
// input) so timeouts fire without packet arrivals.
func (c *Core) AdvanceTime(tick uint64) {
	if c.lat != nil {
		c.nowNs = metrics.NowNanos()
	}
	if tick > c.now {
		c.now = tick
	}
	c.advance()
	c.flushOffload()
	c.recycleStates()
	c.publishObs()
}

// publishObs folds the burst-local latency histograms and the elephant
// witness into their shared, scrapeable forms (no-op with Latency off).
func (c *Core) publishObs() {
	if c.lat != nil {
		c.lat.flush()
		c.wit.publish()
	}
}

// Frame dispositions, in ascending precedence: one frame of a
// packet-level subscription set takes exactly one disposition, the most
// useful outcome any subscription gave it — delivery beats buffering
// beats any drop — so rx == delivered + Σdrops + still-buffered holds in
// frame units no matter how many subscriptions touched the frame.
const (
	dispNone = iota
	dispTombstone
	dispBudget
	dispShed
	dispOverflow
	dispBuffered
	dispDelivered
)

func (c *Core) processStateful(p *layers.Parsed, m *mbuf.Mbuf, mr filter.MultiResult) {
	ft, ok := layers.FiveTupleFrom(p)
	if !ok {
		// Not a trackable flow (no L4 ports). A terminal match can
		// still satisfy packet-level delivery; stateful subscriptions
		// cannot use it.
		delivered := false
		rem := mr.Mask
		for rem != 0 {
			i := bits.TrailingZeros64(rem)
			rem &= rem - 1
			spec := c.ps.Slots[i]
			if spec != nil && spec.Sub.Level == LevelPacket && mr.Res[i].Terminal {
				c.deliverPacketTo(spec, m)
				delivered = true
			}
		}
		if delivered {
			c.ctr.deliveredPackets.Inc()
		} else {
			c.ctr.notTrackable.Inc()
		}
		return
	}

	var conn *conntrack.Conn
	var created, okc bool
	payload := p.Payload()
	flags := uint8(0)
	if p.L4 == layers.LayerTypeTCP {
		flags = p.TCP.Flags
	}
	isTCP := p.L4 == layers.LayerTypeTCP
	seq := uint32(0)
	if isTCP {
		seq = p.TCP.Seq
	}
	c.stages.Time(StageConnTrack, func() {
		conn, created, okc = c.table.GetOrCreate(ft, c.now)
		if okc {
			c.table.TouchSeq(conn, ft, c.now, m.Len(), len(payload), flags, seq, isTCP)
		}
	})
	if !okc {
		c.ctr.tableFull.Inc() // table full: connection-level loss
		return
	}
	if c.wit != nil {
		c.wit.Note(&conn.Tuple)
	}

	var cs *connState
	if created {
		c.ctr.connsCreated.Inc()
		conn.PktMark = m.Mark
		// The device's RSS hash decides redirection-table bucket
		// membership; the rebalancer's bucket migrations extract by it.
		conn.RSSHash = m.RSSHash
		c.initConn(conn, mr)
		cs = c.state(conn)
	} else {
		cs = c.state(conn) // reconciles to the current epoch lazily
		// A later packet may match different or deeper trie branches
		// (e.g. a predicate satisfied only by some packets); keep the
		// union of viable branches per subscription and the most
		// specific mark. A subscription whose first packet this is
		// (dormant until now) gets its verdict resolved as far as the
		// connection's progress allows.
		anyPending := false
		rem := mr.Mask
		for rem != 0 {
			i := bits.TrailingZeros64(rem)
			rem &= rem - 1
			if i >= len(cs.subs) {
				continue
			}
			s := &cs.subs[i]
			if s.spec == nil || s.matched || s.rejected || s.drain {
				continue
			}
			anyPending = true
			wasDormant := !s.engaged()
			s.addFrontier(mr.Res[i])
			if wasDormant && s.engaged() {
				c.activateSub(conn, cs, i, s)
			}
		}
		if anyPending && m.Mark > conn.PktMark {
			conn.PktMark = m.Mark
		}
	}

	if cs.tombstone {
		c.ctr.tombstonePkts.Inc()
		c.maybeTerminate(conn, cs, ft, flags)
		return
	}

	// Feed the stream machinery while the connection needs it. Stream
	// subscriptions keep the reassembler for the connection's lifetime.
	if conn.State == conntrack.StateProbe || conn.State == conntrack.StateParse ||
		cs.anyStreamLive() {
		c.feed(conn, cs, p, m, ft, payload, flags)
	}

	// Packet-level delivery/buffering. Each frame matched by at least
	// one packet-level subscription takes exactly one disposition here
	// (or one of the earlier drop paths), so the per-reason counters sum
	// back to Processed — the conservation invariant the telemetry tests
	// assert. Per-subscription callback counts live on the SubSpecs.
	if c.ps.hasPacket {
		disp := dispNone
		deliveredAny := false
		rem := mr.Mask
		for rem != 0 {
			si := bits.TrailingZeros64(rem)
			rem &= rem - 1
			if si >= len(cs.subs) {
				continue
			}
			s := &cs.subs[si]
			if s.spec == nil || s.drain || s.spec.Sub.Level != LevelPacket {
				continue
			}
			if s.rejected || conn.State == conntrack.StateDelete {
				// The subscription rejected the connection — or the
				// connection was deleted while this very packet's payload
				// was being fed: it lands on a tombstone.
				if disp < dispTombstone {
					disp = dispTombstone
				}
				continue
			}
			if s.matched {
				c.deliverPacketTo(s.spec, m)
				deliveredAny = true
				continue
			}
			// Verdict pending: buffer a reference for this subscription.
			switch {
			case len(s.pktBuf) >= c.cfg.PacketBufferCap:
				if disp < dispOverflow {
					disp = dispOverflow
				}
			case c.acct.LowResources():
				// Pool or ring at its watermark: buffering a speculative
				// copy of this packet is optional work — shed it so the
				// pool keeps feeding the NIC (the packet is still tracked
				// and counted).
				if disp < dispShed {
					disp = dispShed
				}
			case !c.reservePktBuf(conn, m.Len()):
				if disp < dispBudget {
					disp = dispBudget
				}
			default:
				s.pktBuf = append(s.pktBuf, pktBufEntry{m: m.Ref()})
				s.pktBufBytes += m.Len()
				cs.pktBufBytes += m.Len()
				cs.syncMem(conn)
				if !cs.inPending {
					cs.inPending = true
					c.enqueuePending(conn)
				}
				c.frameBufs = append(c.frameBufs, &s.pktBuf[len(s.pktBuf)-1])
				if disp < dispBuffered {
					disp = dispBuffered
				}
			}
		}
		if deliveredAny {
			disp = dispDelivered
		}
		// Wire the shared disposition token when the frame landed in more
		// than one buffer, or was both delivered and buffered (the buffer
		// entries then start pre-resolved: the frame is already counted).
		if k := len(c.frameBufs); k > 0 {
			if deliveredAny || k > 1 {
				tok := &pktToken{holders: k, resolved: deliveredAny}
				for _, e := range c.frameBufs {
					e.tok = tok
				}
			}
			c.frameBufs = c.frameBufs[:0]
		}
		switch disp {
		case dispDelivered:
			c.ctr.deliveredPackets.Inc()
		case dispBuffered:
			c.ctr.bufferedPkts.Inc()
		case dispOverflow:
			c.ctr.pktBufOverflow.Inc()
		case dispShed:
			c.ctr.shedLowPool.Inc()
		case dispBudget:
			c.ctr.pktBufBudget.Inc()
		case dispTombstone:
			c.ctr.tombstonePkts.Inc()
		}
	}

	c.maybeTerminate(conn, cs, ft, flags)
}

// reconcileConn realigns a connection's per-subscription state with the
// current program set after an epoch swap. Entries are carried over by
// SubSpec identity (slot indices may have been recycled); removed
// subscriptions drain — a matched connection-level entry stays to
// deliver its final record, everything else of a removed subscription is
// released (buffered frames count as pre-verdict discard) — and newly
// added subscriptions attach as dormant pending entries that the next
// matching packet engages.
func (c *Core) reconcileConn(conn *conntrack.Conn, cs *connState) {
	ps := c.ps
	old := cs.subs
	var inline [len(cs.sub0)]subState
	if len(old) > 0 && &old[0] == &cs.sub0[0] {
		// The new subs may reuse the inline slot: copy out of it first.
		copy(inline[:], old)
		old = inline[:len(old)]
	}
	cs.initSubs(ps)
	subs := cs.subs
	for oi := range old {
		s := &old[oi]
		if s.spec == nil {
			continue
		}
		slot := -1
		for i, spec := range ps.Slots {
			if spec == s.spec {
				slot = i
				break
			}
		}
		if slot >= 0 {
			subs[slot] = *s
			continue
		}
		// Subscription removed. Matched connection-level entries drain:
		// they owe a final record at termination. Everything else is
		// released now — new data never reaches a removed subscription.
		if s.matched && !s.rejected && !s.drain && s.spec.Sub.Level == LevelConnection {
			d := *s
			d.drain = true
			subs = append(subs, d)
			continue
		}
		if s.drain && !s.rejected {
			subs = append(subs, *s)
			continue
		}
		c.dropSubEntry(conn, cs, s)
	}
	cs.subs = subs

	// Recompute the matched-subscription bitmask over the new alignment.
	conn.SubMask = 0
	live := 0
	for i := range subs {
		s := &subs[i]
		if s.spec == nil {
			continue
		}
		live++
		if s.matched && !s.rejected && i < filter.MaxSubscriptions {
			conn.SubMask |= 1 << uint(i)
		}
	}
	if live == 0 {
		// Every subscription is gone and nothing drains: the connection
		// is an orphan. Tombstone it without counting a filter rejection.
		cs.tombstone = true
		conn.State = conntrack.StateTrack
		c.releaseStreamState(conn, cs)
		return
	}
	// A removed subscription may have been the only reason the
	// connection was probing or parsing; downgrade to plain tracking
	// when nothing needs the stream machinery anymore.
	if conn.State == conntrack.StateProbe || conn.State == conntrack.StateParse {
		if !c.needsStreamWork(cs) {
			conn.State = conntrack.StateTrack
			c.releaseStreamState(conn, cs)
		}
	}
}

// needsStreamWork reports whether any live entry still needs protocol
// identification or session parsing.
func (c *Core) needsStreamWork(cs *connState) bool {
	for i := range cs.subs {
		s := &cs.subs[i]
		if s.spec == nil || s.rejected || s.drain {
			continue
		}
		if s.matched {
			if s.spec.wantsParsing() {
				return true
			}
			continue
		}
		if s.engaged() {
			return true
		}
	}
	return false
}

// dropSubEntry releases one removed subscription's per-connection state:
// buffered frames count as pre-verdict discard, stream chunks are
// freed, and a matched entry gives up its live-connection hold.
func (c *Core) dropSubEntry(conn *conntrack.Conn, cs *connState, s *subState) {
	c.discardSubPktBuf(conn, cs, s, &c.ctr.pendingDiscard)
	c.releaseSubStreamBytes(conn, cs, s)
	s.streamBuf = nil
	if s.matched && !s.rejected {
		s.spec.LiveConns.Add(-1)
	}
	s.rejected = true
	s.matched = false
}

// activateSub resolves a formerly dormant subscription whose packet
// filter just matched its first packet of the connection. The verdict is
// decided as far as the connection's progress allows: an identified
// service is evaluated immediately; a connection whose probe is still
// running includes the subscription at identification; and a connection
// whose identification window has passed (probe exhausted, or stream
// history already released) rejects the subscription — it attached too
// late to be decidable, exactly the drain-mirror semantics of Add.
func (c *Core) activateSub(conn *conntrack.Conn, cs *connState, si int, s *subState) {
	if cs.identified {
		cr := c.evalConnSub(conn, s)
		if !cr.Match {
			c.rejectSub(conn, cs, s)
			return
		}
		s.connMark = cr.Node
		if cr.Terminal {
			c.markSubMatched(conn, si, s)
			c.onSubFullMatch(conn, cs, s)
			return
		}
		// Non-terminal: a session verdict is needed; only a connection
		// still parsing can provide one.
		if conn.State != conntrack.StateParse {
			c.rejectSub(conn, cs, s)
		}
		return
	}
	if conn.State == conntrack.StateProbe {
		return // probe in flight; resolved at identification/exhaustion
	}
	// Unidentifiable (probe exhausted) or never probed (stream history
	// gone): the connection filter can never rule for this subscription.
	c.rejectSub(conn, cs, s)
}

// evalConnSub runs one subscription's connection filter from every
// viable packet-filter frontier node, collecting all distinct matching
// connection nodes into s.connMarks. It returns the best verdict
// (terminal preferred) — a single frontier node would commit the
// connection to one trie branch and silently drop patterns matched on
// another.
func (c *Core) evalConnSub(conn *conntrack.Conn, s *subState) filter.Result {
	best := filter.NoMatch
	s.connMarks.reset()
	for i := 0; i < s.frontier.len(); i++ {
		r := s.spec.Prog.Conn(conn, s.frontier.at(i))
		if !r.Match {
			continue
		}
		// A conn result can itself carry a frontier: the identified
		// service may match on the mark and on an ancestor branch, each
		// with its own session continuation.
		r.FrontierNodes(func(node int) { s.connMarks.add(node) })
		if !best.Match || (r.Terminal && !best.Terminal) {
			best = r
		}
	}
	return best
}

// initConn derives the connection's initial processing state from the
// subscriptions and the packet filter verdicts (Figure 4). The
// connection's State is the union of every live subscription's needs: it
// probes if any engaged subscription still needs the connection layer,
// reassembles if any byte-stream subscription is in scope, and goes
// straight to lightweight tracking only when every subscription agrees.
func (c *Core) initConn(conn *conntrack.Conn, mr filter.MultiResult) {
	cs := c.newState()
	cs.initSubs(c.ps)
	conn.UserData = cs
	rem := mr.Mask
	for rem != 0 {
		i := bits.TrailingZeros64(rem)
		rem &= rem - 1
		cs.subs[i].addFrontier(mr.Res[i])
	}
	if c.tracer != nil {
		cs.trace = c.tracer.Start(c.ID, conn.ID, conn.Tuple.String(), c.now)
	}

	needParse := c.parReg.Len() > 0

	// A packet-terminal mark means a subscription's whole filter is
	// already satisfied for this connection.
	for i := range cs.subs {
		s := &cs.subs[i]
		if s.spec == nil || !s.engaged() {
			continue
		}
		cr := c.evalConnSub(conn, s)
		if cr.Match && cr.Terminal {
			s.connMark = cr.Node
			if conn.ConnMark == 0 {
				conn.ConnMark = cr.Node
			}
			c.markSubMatched(conn, i, s)
			c.onSubFullMatch(conn, cs, s)
		}
	}

	// Keep probing when some engaged subscription's verdict is pending,
	// or a matched one needs sessions (session level) or explicit
	// protocol identification (SessionProtos); otherwise payload
	// processing is bypassed entirely (§6.1's TCP connection records
	// configuration).
	wantProbe := false
	anyMatched := false
	for i := range cs.subs {
		s := &cs.subs[i]
		if s.spec == nil {
			continue
		}
		if s.matched {
			anyMatched = true
			if s.spec.wantsParsing() {
				wantProbe = true
			}
			continue
		}
		if s.engaged() {
			wantProbe = true
		}
	}

	if wantProbe && needParse {
		conn.State = conntrack.StateProbe
		cs.probeReg = c.parReg
		cs.candidates = ^uint64(0) >> (64 - c.parReg.Len())
	} else if wantProbe {
		// Nothing can identify the protocol; without identification the
		// connection filter can never pass a non-terminal mark.
		c.rejectPending(conn, cs)
		if !cs.tombstone {
			conn.State = conntrack.StateTrack
		}
		if cs.tombstone && !anyMatched {
			return
		}
	} else {
		conn.State = conntrack.StateTrack
	}
	// Byte-stream subscriptions always reassemble matched-or-pending
	// TCP connections; other levels only reassemble while probing or
	// parsing.
	needReasm := conn.Tuple.Proto == layers.IPProtoTCP &&
		(conn.State == conntrack.StateProbe || conn.State == conntrack.StateParse ||
			cs.anyStreamLive())
	if needReasm {
		cs.reasmStore.Reset(reassembly.DefaultMaxOutOfOrder)
		cs.reasm = &cs.reasmStore
		cs.reasm.SetBudget(c.reasmHooks)
	}
}

// feed pushes one packet's stream payload through reassembly into
// probing/parsing.
func (c *Core) feed(conn *conntrack.Conn, cs *connState, p *layers.Parsed, m *mbuf.Mbuf, ft layers.FiveTuple, payload []byte, flags uint8) {
	orig := conn.Orig(ft)
	if conn.Tuple.Proto == layers.IPProtoUDP {
		if len(payload) == 0 {
			return
		}
		if conn.State == conntrack.StateProbe || conn.State == conntrack.StateParse {
			c.stages.Time(StageParsing, func() {
				c.handleStreamData(conn, cs, payload, orig)
			})
		}
		if cs.anyStreamLive() {
			c.emitStream(conn, cs, 0, payload, orig)
		}
		return
	}
	if cs.reasm == nil {
		return
	}
	syn := flags&layers.TCPSyn != 0
	fin := flags&layers.TCPFin != 0
	if len(payload) == 0 && !syn && !fin {
		return // pure ACK: nothing for the stream
	}
	seg := reassembly.Segment{
		Seq:     p.TCP.Seq,
		Payload: payload,
		Orig:    orig,
		Tick:    c.now,
		SYN:     syn,
		FIN:     fin,
	}
	if len(payload) > 0 {
		// The reassembler may park the segment; hold a buffer reference
		// until it lets go.
		seg.Release = m.Ref()
	}
	// Emit callbacks may release cs.reasm mid-insert (it then points at
	// nothing while reasmStore finishes the call); the store is reset
	// only when the whole state is recycled at the burst boundary.
	reasm := cs.reasm
	c.stages.Time(StageReassembly, func() {
		err := reasm.Insert(seg, func(out reassembly.Segment) {
			if len(out.Payload) == 0 {
				return
			}
			if conn.State == conntrack.StateProbe || conn.State == conntrack.StateParse {
				c.stages.Time(StageParsing, func() {
					c.handleStreamData(conn, cs, out.Payload, out.Orig)
				})
			}
			if cs.anyStreamLive() {
				c.emitStream(conn, cs, out.Seq, out.Payload, out.Orig)
			}
		})
		switch err {
		case reassembly.ErrBufferFull:
			c.ctr.reasmDropped.Inc()
		case reassembly.ErrBudget:
			c.ctr.reasmBudget.Inc()
		}
	})
	cs.syncMem(conn)
}

// handleStreamData runs protocol identification and parsing on in-order
// stream bytes.
func (c *Core) handleStreamData(conn *conntrack.Conn, cs *connState, data []byte, orig bool) {
	if conn.State == conntrack.StateProbe && cs.active == nil {
		cs.probeBytes += len(data)
		// Probe on the registry's shared probers; only the matching
		// protocol gets a parser of its own.
		reg := cs.probeReg
		for rem := cs.candidates; rem != 0; rem &= rem - 1 {
			i := bits.TrailingZeros64(rem)
			p := reg.Prober(i)
			switch p.Probe(data, orig) {
			case proto.ProbeMatch:
				cs.active = reg.New(i)
				conn.Service = cs.active.Name()
			case proto.ProbeReject:
				cs.candidates &^= 1 << uint(i)
				c.ctr.probeRejects.Inc()
				if ctr := c.protoCtr.Load().probeRejects[p.Name()]; ctr != nil {
					ctr.Inc()
				}
			}
			if cs.active != nil {
				break
			}
		}

		if cs.active != nil {
			cs.candidates, cs.probeReg = 0, nil
			c.onServiceIdentified(conn, cs)
			if cs.tombstone {
				return
			}
		} else if cs.candidates == 0 || cs.probeBytes > probeBudget {
			// Unidentifiable protocol: every pending subscription's
			// connection filter can never rule now.
			cs.candidates, cs.probeReg = 0, nil
			cs.unidentified = true
			c.ctr.connsUnidentified.Inc()
			c.abandonParsing(conn, cs)
			return
		} else {
			return // keep probing
		}
	}

	if conn.State == conntrack.StateParse && cs.active != nil {
		if cs.trace != nil {
			cs.trace.EventOnce("first_parse", cs.active.Name(), c.now)
		}
		res := cs.active.Parse(data, orig)
		for _, s := range cs.active.DrainSessions() {
			c.onSessionParsed(conn, cs, s)
			if cs.tombstone || conn.State == conntrack.StateDelete {
				return
			}
		}
		switch res {
		case proto.ParseDone:
			c.afterParsing(conn, cs)
		case proto.ParseError:
			c.ctr.parseErrors.Inc()
			if ctr := c.protoCtr.Load().parseErrors[cs.active.Name()]; ctr != nil {
				ctr.Inc()
			}
			c.abandonParsing(conn, cs)
		}
	}
}

// abandonParsing handles a connection whose protocol can no longer be
// identified or parsed: pending subscriptions are rejected, and a
// connection some subscription already matched (its filter was satisfied
// before the session layer) drops to lightweight tracking.
func (c *Core) abandonParsing(conn *conntrack.Conn, cs *connState) {
	c.rejectPending(conn, cs)
	if !cs.tombstone {
		conn.State = conntrack.StateTrack
		c.releaseStreamState(conn, cs)
	}
}

// rejectPending rejects every engaged subscription whose verdict is
// still pending: the filter stage that could rule for it will never run.
func (c *Core) rejectPending(conn *conntrack.Conn, cs *connState) {
	for i := range cs.subs {
		s := &cs.subs[i]
		if s.spec == nil || s.matched || s.rejected || s.drain || !s.engaged() {
			continue
		}
		c.rejectSub(conn, cs, s)
	}
}

// onServiceIdentified applies each pending subscription's connection
// filter the moment the L7 protocol is known (§5.2: "as soon as enough
// data has been observed to identify the L7 protocol but before full L7
// parsing occurs").
func (c *Core) onServiceIdentified(conn *conntrack.Conn, cs *connState) {
	cs.identified = true
	if cs.trace != nil {
		cs.trace.EventDetail("identified", conn.Service, c.now)
		cs.trace.Service = conn.Service
	}
	anyParse := false
	for i := range cs.subs {
		s := &cs.subs[i]
		if s.spec == nil || s.rejected || s.drain {
			continue
		}
		if s.matched {
			// Filter already terminal; parsing continues only to feed the
			// data type.
			if s.spec.wantsParsing() {
				anyParse = true
			}
			continue
		}
		if !s.engaged() {
			continue // dormant: resolved if a packet ever engages it
		}
		cr := c.evalConnSub(conn, s)
		if !cr.Match {
			c.rejectSub(conn, cs, s)
			continue
		}
		s.connMark = cr.Node
		if conn.ConnMark == 0 {
			conn.ConnMark = cr.Node
		}
		if cr.Terminal {
			c.markSubMatched(conn, i, s)
			c.onSubFullMatch(conn, cs, s)
			if s.spec.Sub.Level == LevelSession {
				anyParse = true // deliver every session
			}
			continue
		}
		// Session predicates pending: parse until the session filter can
		// rule (Figure 4b).
		anyParse = true
	}
	if cs.tombstone {
		return
	}
	if anyParse {
		conn.State = conntrack.StateParse
	} else {
		conn.State = conntrack.StateTrack
		c.releaseStreamState(conn, cs)
	}
}

// sessionOK evaluates one subscription's session filter against a parsed
// session.
func (c *Core) sessionOK(s *subState, data filter.Session) bool {
	if s.connMarks.len() == 0 {
		return s.spec.Prog.Session(data, s.connMark)
	}
	// Every matched connection node may carry different session
	// predicates; any of them passing delivers the session.
	for i := 0; i < s.connMarks.len(); i++ {
		if s.spec.Prog.Session(data, s.connMarks.at(i)) {
			return true
		}
	}
	return false
}

// onSessionParsed applies every relevant subscription's session filter
// to one parsed session and routes the verdicts (Figure 4's
// session-filter pseudostate). The connection's next state is the union
// of the subscriptions' needs: it keeps parsing if anyone still needs
// sessions, stays tracked if anyone needs the connection, and is deleted
// only when every subscription is done with it.
func (c *Core) onSessionParsed(conn *conntrack.Conn, cs *connState, sess *proto.Session) {
	c.ctr.sessionsSeen.Inc()
	n := len(cs.subs)
	if cap(c.sessOK) < n {
		c.sessOK = make([]bool, n)
	}
	ok := c.sessOK[:n]
	anyOK := false
	c.stages.Time(StageSessionFilter, func() {
		for i := range cs.subs {
			s := &cs.subs[i]
			ok[i] = false
			if s.spec == nil || s.rejected || s.drain {
				continue
			}
			if !s.matched && !s.engaged() {
				continue
			}
			ok[i] = c.sessionOK(s, sess.Data)
			anyOK = anyOK || ok[i]
		}
	})
	if cs.trace != nil {
		if anyOK {
			cs.trace.EventDetail("session_verdict", "match", c.now)
		} else {
			cs.trace.EventDetail("session_verdict", "nomatch", c.now)
		}
	}
	if anyOK {
		c.ctr.sessionsMatch.Inc()
	}

	voteParse, voteTrack, voteDelete := false, false, false
	vote := func(st conntrack.State) {
		switch st {
		case conntrack.StateParse:
			voteParse = true
		case conntrack.StateDelete:
			voteDelete = true
		default:
			voteTrack = true
		}
	}
	for i := range cs.subs {
		s := &cs.subs[i]
		if s.spec == nil || s.rejected {
			continue
		}
		lvl := s.spec.Sub.Level
		if s.drain {
			vote(conntrack.StateTrack) // owes a final record; hold the conn
			continue
		}
		if s.matched {
			if ok[i] && lvl == LevelSession {
				c.deliverSessionTo(s.spec, conn, sess)
			}
			// Post-match state: the parser's default, overridden by
			// subscriptions that still need the connection.
			var next conntrack.State
			if ok[i] {
				next = cs.active.SessionMatchState()
				if lvl != LevelSession && next == conntrack.StateDelete {
					// The subscription still needs packets/records/bytes;
					// keep tracking instead of deleting (Figure 4a vs 4b).
					next = conntrack.StateTrack
				}
			} else {
				next = cs.active.SessionNoMatchState()
				if next == conntrack.StateDelete {
					next = conntrack.StateTrack
				}
			}
			vote(next)
			continue
		}
		if !s.engaged() {
			continue // dormant: neither holds nor releases the connection
		}
		// Verdict pending on the session filter.
		if ok[i] {
			c.markSubMatched(conn, i, s)
			c.onSubFullMatch(conn, cs, s)
			if lvl == LevelSession {
				c.deliverSessionTo(s.spec, conn, sess)
			}
			next := cs.active.SessionMatchState()
			if lvl != LevelSession && next == conntrack.StateDelete {
				next = conntrack.StateTrack
			}
			vote(next)
			continue
		}
		next := cs.active.SessionNoMatchState()
		if next == conntrack.StateDelete {
			c.rejectSub(conn, cs, s)
			continue
		}
		vote(next)
	}
	if cs.tombstone {
		return
	}
	switch {
	case voteParse:
		c.applyState(conn, cs, conntrack.StateParse)
	case voteTrack:
		c.applyState(conn, cs, conntrack.StateTrack)
	case voteDelete:
		c.applyState(conn, cs, conntrack.StateDelete)
	default:
		c.applyState(conn, cs, conntrack.StateTrack)
	}
}

func (c *Core) applyState(conn *conntrack.Conn, cs *connState, next conntrack.State) {
	switch next {
	case conntrack.StateDelete:
		// Deliver before removal, then drop all state mid-connection
		// (Figure 4b's "Done → DEL"). Straggler packets of the deleted
		// connection will recreate an entry whose probe fails fast and
		// leaves a light tombstone.
		conn.State = conntrack.StateDelete
		c.finishConn(conn, cs, conntrack.ExpireEvicted)
		c.table.Remove(conn, conntrack.ExpireEvicted)
		c.queueOffload(conn, cs, offload.VerdictParsedDone)
	case conntrack.StateTrack:
		conn.State = conntrack.StateTrack
		c.releaseStreamState(conn, cs)
	default:
		conn.State = next
	}
}

// afterParsing handles a parser that is done for the connection: no more
// sessions will ever come, so pending subscriptions resolve to rejection
// and the connection keeps only what its matched subscriptions need.
func (c *Core) afterParsing(conn *conntrack.Conn, cs *connState) {
	if conn.State != conntrack.StateParse {
		return
	}
	c.rejectPending(conn, cs)
	if cs.tombstone {
		return
	}
	anyMatched := false
	wantDelete := true
	for i := range cs.subs {
		s := &cs.subs[i]
		if s.spec == nil || s.rejected || !s.matched {
			continue
		}
		anyMatched = true
		if s.drain || s.spec.Sub.Level != LevelSession ||
			cs.active == nil || cs.active.SessionMatchState() != conntrack.StateDelete {
			wantDelete = false
		}
	}
	if anyMatched && wantDelete {
		c.applyState(conn, cs, conntrack.StateDelete)
		return
	}
	conn.State = conntrack.StateTrack
	c.releaseStreamState(conn, cs)
}

// markSubMatched records a subscription's full filter match for the
// connection: the per-subscription match counters, the live-connection
// hold used for drain progress, and the conntrack match bitmask.
func (c *Core) markSubMatched(conn *conntrack.Conn, si int, s *subState) {
	s.matched = true
	s.spec.MatchedConns.Inc()
	s.spec.LiveConns.Add(1)
	if si >= 0 && si < filter.MaxSubscriptions && si < len(c.ps.Slots) {
		conn.SubMask |= 1 << uint(si)
	}
}

// onSubFullMatch runs once when the connection first satisfies one
// subscription's whole filter: speculative buffers flush to that
// subscription's callback.
func (c *Core) onSubFullMatch(conn *conntrack.Conn, cs *connState, s *subState) {
	switch s.spec.Sub.Level {
	case LevelPacket:
		// Flush packets buffered while the verdict was pending
		// (Figure 4a: "run callback on any buffered packets").
		c.flushSubPktBuf(conn, cs, s)
	case LevelStream:
		for i := range s.streamBuf {
			ch := &s.streamBuf[i]
			c.stages.Time(StageCallback, func() { s.spec.Sub.OnStream(ch) })
			c.ctr.deliveredChunks.Inc()
			s.spec.Delivered.Inc()
		}
		s.streamBuf = nil
		c.releaseSubStreamBytes(conn, cs, s)
	}
}

// flushSubPktBuf delivers a subscription's buffered frames on match.
// Each frame counts as delivered exactly once core-wide (the shared
// token dedupes frames buffered for several subscriptions).
func (c *Core) flushSubPktBuf(conn *conntrack.Conn, cs *connState, s *subState) {
	for i := range s.pktBuf {
		e := &s.pktBuf[i]
		c.deliverPacketTo(s.spec, e.m)
		if e.tok == nil {
			c.ctr.deliveredPackets.Inc()
		} else {
			e.tok.holders--
			if !e.tok.resolved {
				c.ctr.deliveredPackets.Inc()
				e.tok.resolved = true
			}
		}
		e.m.Free()
	}
	s.pktBuf = nil
	c.releaseSubPktBytes(conn, cs, s)
}

// discardSubPktBuf frees a subscription's buffered frames unflushed,
// counting each frame's loss once core-wide under ctr (pendingDiscard,
// evictedPressure, or pktBufBudget depending on the path). A frame some
// other subscription still holds (or already delivered) is not counted
// here — its account resolves with the last holder.
func (c *Core) discardSubPktBuf(conn *conntrack.Conn, cs *connState, s *subState, ctr *telemetry.Counter) {
	for i := range s.pktBuf {
		e := &s.pktBuf[i]
		if e.tok == nil {
			ctr.Inc()
		} else {
			e.tok.holders--
			if !e.tok.resolved && e.tok.holders == 0 {
				ctr.Inc()
				e.tok.resolved = true
			}
		}
		e.m.Free()
	}
	s.pktBuf = nil
	c.releaseSubPktBytes(conn, cs, s)
}

// releaseSubPktBytes returns one subscription's packet-buffer budget
// reservation and retires the connection's shed-queue membership once no
// subscription holds buffered frames. Idempotent; callers free/deliver
// the mbufs themselves.
func (c *Core) releaseSubPktBytes(conn *conntrack.Conn, cs *connState, s *subState) {
	if s.pktBufBytes > 0 {
		c.acct.Release(overload.ClassPacketBuf, s.pktBufBytes)
		cs.pktBufBytes -= s.pktBufBytes
		s.pktBufBytes = 0
		cs.syncMem(conn)
	}
	if cs.pktBufBytes <= 0 && cs.inPending {
		cs.inPending = false
		c.pendingCount--
	}
}

// releaseSubStreamBytes returns one subscription's stream-buffer budget
// reservation. Idempotent.
func (c *Core) releaseSubStreamBytes(conn *conntrack.Conn, cs *connState, s *subState) {
	if s.streamBufBytes > 0 {
		c.acct.Release(overload.ClassStreamBuf, s.streamBufBytes)
		cs.streamBufBytes -= s.streamBufBytes
		s.streamBufBytes = 0
		cs.syncMem(conn)
	}
}

// emitStream delivers or buffers one reconstructed chunk for every
// byte-stream subscription in scope. Pre-verdict bytes are copied per
// pending subscription (bounded); post-match bytes are copied once per
// matched subscription into the callback's chunk — chunk Data ownership
// passes to the callback, so subscriptions never share backing arrays.
func (c *Core) emitStream(conn *conntrack.Conn, cs *connState, seq uint32, payload []byte, orig bool) {
	for i := range cs.subs {
		s := &cs.subs[i]
		if s.spec == nil || s.rejected || s.drain || s.spec.Sub.Level != LevelStream {
			continue
		}
		if !s.matched && !s.engaged() {
			continue // dormant: chunks start at its first matching packet
		}
		chunk := StreamChunk{
			Tuple:  conn.Tuple,
			Orig:   orig,
			Seq:    seq,
			Data:   append([]byte(nil), payload...),
			Tick:   c.now,
			CoreID: c.ID,
		}
		if s.matched {
			c.stages.Time(StageCallback, func() { s.spec.Sub.OnStream(&chunk) })
			c.ctr.deliveredChunks.Inc()
			s.spec.Delivered.Inc()
			continue
		}
		// Pre-verdict chunks are speculative copies: bounded per
		// connection, budgeted per core, and skipped outright under
		// pool/ring pressure.
		if s.streamBufBytes+len(payload) > maxStreamBufBytes ||
			c.acct.LowResources() ||
			!c.acct.TryReserve(overload.ClassStreamBuf, len(payload)) {
			s.streamOverflow = true
			c.ctr.streamBufOverflow.Inc()
			continue
		}
		s.streamBuf = append(s.streamBuf, chunk)
		s.streamBufBytes += len(payload)
		cs.streamBufBytes += len(payload)
		cs.syncMem(conn)
	}
}

// pendingEntry is one shed-queue slot: the connection pointer plus the
// ID it had when enqueued.
type pendingEntry struct {
	conn *conntrack.Conn
	id   uint64
}

// pendingState resolves a shed-queue entry to its connection state,
// reporting false for entries whose Conn storage has been recycled for
// a different connection since enqueue (conntrack slab slots are
// reused; connection IDs never are). The ID must be checked before
// UserData: a recycled slot's UserData belongs to the new connection.
func pendingState(e pendingEntry) (*connState, bool) {
	if e.conn.ID != e.id {
		return nil, false
	}
	es, ok := e.conn.UserData.(*connState)
	return es, ok
}

// enqueuePending adds a connection to the packet-buffer shed queue,
// compacting stale entries when they outnumber live ones.
func (c *Core) enqueuePending(conn *conntrack.Conn) {
	c.pendingCount++
	if len(c.pendingBuf) >= 64 && len(c.pendingBuf) >= 2*c.pendingCount {
		kept := c.pendingBuf[:0]
		for _, e := range c.pendingBuf {
			if es, ok := pendingState(e); ok && es.inPending {
				kept = append(kept, e)
			}
		}
		c.pendingBuf = kept
	}
	c.pendingBuf = append(c.pendingBuf, pendingEntry{conn: conn, id: conn.ID})
}

// reservePktBuf reserves n packet-buffer bytes for conn, shedding the
// oldest other verdict-pending connection's buffers while the budget is
// exhausted. The arriving packet is cheaper to lose than to let one hot
// connection starve the class, but it is also the freshest signal — so
// older speculative buffers go first, and only if none remain is the
// reservation refused.
func (c *Core) reservePktBuf(conn *conntrack.Conn, n int) bool {
	for !c.acct.TryReserve(overload.ClassPacketBuf, n) {
		if !c.shedOldestPending(conn) {
			return false
		}
	}
	return true
}

// shedOldestPending discards the entire packet buffer (every
// subscription's) of the oldest verdict-pending connection other than
// except. Stale queue entries encountered on the way are dropped.
// Returns false when no candidate exists.
func (c *Core) shedOldestPending(except *conntrack.Conn) bool {
	i := 0
	kept := c.pendingBuf[:0]
	var victim *conntrack.Conn
	for ; i < len(c.pendingBuf); i++ {
		e := c.pendingBuf[i]
		es, ok := pendingState(e)
		if !ok || !es.inPending {
			continue // stale: buffer resolved or Conn storage recycled
		}
		if e.conn == except {
			kept = append(kept, e)
			continue
		}
		victim = e.conn
		i++
		break
	}
	c.pendingBuf = append(kept, c.pendingBuf[i:]...)
	if victim == nil {
		return false
	}
	vs := victim.UserData.(*connState)
	for si := range vs.subs {
		s := &vs.subs[si]
		if s.spec == nil || len(s.pktBuf) == 0 {
			continue
		}
		c.discardSubPktBuf(victim, vs, s, &c.ctr.pktBufBudget)
	}
	return true
}

// rejectSub marks one subscription's filter as failed for the
// connection and releases that subscription's speculative buffers. When
// every present subscription has rejected, the whole connection becomes
// a tombstone.
func (c *Core) rejectSub(conn *conntrack.Conn, cs *connState, s *subState) {
	if s.rejected {
		return
	}
	s.rejected = true
	c.discardSubPktBuf(conn, cs, s, &c.ctr.pendingDiscard)
	c.releaseSubStreamBytes(conn, cs, s)
	s.streamBuf = nil
	if cs.allRejected() {
		c.rejectConn(conn, cs)
	}
}

// rejectConn finalizes a connection every subscription has rejected. The
// paper's state machine deletes such connections outright; deleting
// means the next packet of the connection would recreate and re-probe
// it, so we keep a zero-cost tombstone entry that the normal timeouts
// collect. The heavy state (buffers, parsers) is freed either way.
func (c *Core) rejectConn(conn *conntrack.Conn, cs *connState) {
	if cs.tombstone {
		return
	}
	c.ctr.connsRejected.Inc()
	if cs.trace != nil {
		cs.trace.EventDetail("rejected", "filter", c.now)
	}
	cs.tombstone = true
	conn.State = conntrack.StateTrack
	c.releaseStreamState(conn, cs)
	c.queueOffload(conn, cs, offload.VerdictUnsubscribed)
}

// queueOffload publishes a connection's terminal verdict to the
// flow-offload manager (once per connection): subsequent frames of the
// flow can be dropped at the device without changing any subscription's
// output. Requests batch up and flush at the burst boundary.
func (c *Core) queueOffload(conn *conntrack.Conn, cs *connState, v offload.Verdict) {
	if c.cfg.Offload == nil || cs.offloaded {
		return
	}
	key, _ := conn.Tuple.Canonical()
	cs.offloaded = true
	c.offloadReqs = append(c.offloadReqs, offload.Request{Key: key, Tick: c.now, Verdict: v})
}

// queueOffloadRemove revokes a connection's flow rule when its backing
// conntrack entry dies (expiry or pressure eviction): a recreated
// connection must be re-evaluated in software, so the table stays
// coherent with conntrack.
func (c *Core) queueOffloadRemove(conn *conntrack.Conn, cs *connState) {
	if c.cfg.Offload == nil || !cs.offloaded {
		return
	}
	cs.offloaded = false
	key, _ := conn.Tuple.Canonical()
	c.offloadReqs = append(c.offloadReqs, offload.Request{Key: key, Tick: c.now, Remove: true})
}

// flushOffload publishes the accumulated offload requests at a burst
// boundary, tagged with the core's current epoch so the manager can
// discard verdicts reached against a retired program set.
func (c *Core) flushOffload() {
	if len(c.offloadReqs) == 0 {
		return
	}
	c.cfg.Offload.Submit(c.ps.Epoch, c.offloadReqs)
	c.offloadReqs = c.offloadReqs[:0]
}

// releaseStreamState frees reassembly and parser resources once the
// connection no longer needs stream processing. Byte-stream
// subscriptions retain the reassembler for connections that are still
// in scope (matched or verdict pending).
func (c *Core) releaseStreamState(conn *conntrack.Conn, cs *connState) {
	keepReasm := !cs.tombstone && cs.anyStreamLive()
	if cs.reasm != nil && !keepReasm {
		// Fold the connection's reassembly counters into the core totals
		// before the reassembler is dropped (buffer-full drops are counted
		// live at Insert time, so only the flow-shape counters fold here).
		rs := cs.reasm.Stats()
		c.ctr.reasmInOrder.Add(rs.InOrder)
		c.ctr.reasmOutOfOrder.Add(rs.OutOfOrder)
		c.ctr.reasmRetrans.Add(rs.Retrans)
		cs.reasm.FlushAll(func(reassembly.Segment) {})
		cs.reasm = nil
	}
	cs.candidates, cs.probeReg = 0, nil
	cs.active = nil
	cs.syncMem(conn)
}

// maybeTerminate removes gracefully finished connections.
func (c *Core) maybeTerminate(conn *conntrack.Conn, cs *connState, ft layers.FiveTuple, flags uint8) {
	if flags&layers.TCPFin != 0 {
		if conn.Orig(ft) {
			cs.finOrig = true
		} else {
			cs.finResp = true
		}
	}
	if conn.RstSeen || (cs.finOrig && cs.finResp) {
		c.finishConn(conn, cs, conntrack.ExpireTermination)
		c.table.Remove(conn, conntrack.ExpireTermination)
		c.queueOffload(conn, cs, offload.VerdictClosed)
	}
}

// onExpire handles timer-driven connection removal (and pressure
// eviction, which routes through the same handler).
func (c *Core) onExpire(conn *conntrack.Conn, reason conntrack.ExpireReason) {
	cs := c.state(conn)
	c.finishConn(conn, cs, reason)
	c.queueOffloadRemove(conn, cs)
}

// finishConn delivers final records to every matched connection-level
// subscription (including draining removed ones), frees held resources
// and retires the state (recycled at the burst boundary; cs stays
// readable until then). Safe to call more than once.
func (c *Core) finishConn(conn *conntrack.Conn, cs *connState, reason conntrack.ExpireReason) {
	for si := range cs.subs {
		s := &cs.subs[si]
		if s.spec == nil || s.rejected || !s.matched {
			continue
		}
		if s.spec.Sub.Level == LevelConnection {
			rec := &ConnRecord{
				Tuple:       conn.Tuple,
				Service:     conn.Service,
				FirstTick:   conn.FirstTick,
				LastTick:    conn.LastTick,
				PktsOrig:    conn.PktsOrig,
				PktsResp:    conn.PktsResp,
				BytesOrig:   conn.BytesOrig,
				BytesResp:   conn.BytesResp,
				PayloadOrig: conn.PayloadOrig,
				PayloadResp: conn.PayloadResp,
				OOOOrig:     conn.OOOOrig,
				OOOResp:     conn.OOOResp,
				Established: conn.Established,
				SynSeen:     conn.SynSeen,
				FinSeen:     conn.FinSeen,
				RstSeen:     conn.RstSeen,
				Why:         reason,
				CoreID:      c.ID,
			}
			spec := s.spec
			c.stages.Time(StageCallback, func() { spec.Sub.OnConn(rec) })
			c.ctr.deliveredConns.Inc()
			spec.Delivered.Inc()
			// Connection-stage aggregation folds the final record, keyed
			// by the connection's last-activity tick — the same tick on
			// whichever core finishes the conn, so a migrated connection
			// contributes exactly once to exactly one window.
			if spec.Agg != nil && spec.Agg.Q.Stage == aggregate.StageConn {
				if st := c.aggState(spec); st != nil {
					st.UpdateConn(&conn.Tuple, conn.Service,
						conn.PktsOrig+conn.PktsResp,
						conn.BytesOrig+conn.BytesResp,
						conn.PayloadOrig+conn.PayloadResp,
						conn.LastTick)
				}
			}
		}
		s.spec.LiveConns.Add(-1)
	}
	if cs.trace != nil {
		cs.trace.EventDetail("expire", reason.String(), c.now)
		c.tracer.Finish(cs.trace)
		cs.trace = nil
	}
	// Buffered packets lost to pressure-driven eviction are overload
	// shedding, not ordinary pre-verdict discard — count them apart so
	// the operator can see load shedding distinctly.
	lost := &c.ctr.pendingDiscard
	if reason == conntrack.ExpirePressure {
		lost = &c.ctr.evictedPressure
	}
	for si := range cs.subs {
		s := &cs.subs[si]
		if s.spec == nil {
			continue
		}
		c.discardSubPktBuf(conn, cs, s, lost)
		c.releaseSubStreamBytes(conn, cs, s)
		s.streamBuf = nil
		s.matched = false // prevent double delivery
		s.rejected = true // force full release, including stream state
	}
	conn.SubMask = 0
	cs.tombstone = true
	c.releaseStreamState(conn, cs)
	c.retireState(conn, cs)
}

// Flush delivers records for all live connections (end of run) and
// clears the table.
func (c *Core) Flush() {
	if c.lat != nil {
		c.nowNs = metrics.NowNanos()
	}
	var conns []*conntrack.Conn
	c.table.Each(func(conn *conntrack.Conn) { conns = append(conns, conn) })
	for _, conn := range conns {
		cs := c.state(conn)
		c.finishConn(conn, cs, conntrack.ExpireEvicted)
		c.table.Remove(conn, conntrack.ExpireEvicted)
		c.queueOffloadRemove(conn, cs)
	}
	c.flushOffload()
	c.recycleStates()
	// Seal all aggregation windows: input has ended for this core, so
	// every open window's contents are final and must reach the merger.
	for _, st := range c.aggStates {
		st.FinalSeal()
	}
	c.publishObs()
}

// deliverPacket invokes one subscription's packet callback for an mbuf,
// whether it arrived this instant or was buffered awaiting the filter
// verdict. Packet.Data aliases the mbuf's pooled buffer, which is freed
// — and may be recycled for a new packet — the moment the callback
// returns; the no-retain contract on Packet.Data exists so this
// zero-copy hand-off stays safe. Frame-level delivery counting is the
// caller's job (a frame delivered to N subscriptions counts once).
func (c *Core) deliverPacketTo(spec *SubSpec, m *mbuf.Mbuf) {
	if l := c.lat; l != nil && m.RxNanos != 0 {
		// Memo hit open-coded here: observeRx is past the inlining
		// budget, and one compare beats a call on the per-delivery path.
		// A negative delta converts to a huge uint64, misses the memo,
		// and observeRx clamps it.
		if n := uint64(c.nowNs - m.RxNanos); n == l.lastRxNs {
			l.rxLocal.ObserveAt(l.lastRxIdx, n)
		} else {
			l.observeRx(c.nowNs - m.RxNanos)
		}
	}
	c.pktOut = Packet{Data: m.Data(), Tick: m.RxTick, CoreID: c.ID}
	c.stages.Time(StageCallback, func() { spec.Sub.OnPacket(&c.pktOut) })
	spec.Delivered.Inc()
}

func (c *Core) deliverSessionTo(spec *SubSpec, conn *conntrack.Conn, s *proto.Session) {
	ev := &SessionEvent{Session: s, Tuple: conn.Tuple, Tick: c.now, CoreID: c.ID}
	c.stages.Time(StageCallback, func() { spec.Sub.OnSession(ev) })
	c.ctr.deliveredSessions.Inc()
	spec.Delivered.Inc()
	if spec.Agg != nil && spec.Agg.Q.Stage == aggregate.StageSession {
		if st := c.aggState(spec); st != nil {
			sni := ""
			if s.Data != nil {
				sni, _ = s.Data.StringField("sni")
			}
			st.UpdateSession(&conn.Tuple, conn.Service, sni, c.now)
		}
	}
}

// Run consumes bursts from a receive ring until it closes, then flushes.
// A poked ring wakes the loop without data so a newly published program
// set is picked up while idle. With Config.Latency the loop also keeps
// the duty-cycle ledger: every wall interval is attributed to busy
// (dequeue + processing) or wait (parked in ring Wait), and ring depth
// observed at each dequeue is integrated over the iteration it fed —
// two clock reads per burst or park, never per packet.
func (c *Core) Run(queue RxRing) {
	buf := make([]*mbuf.Mbuf, c.cfg.BurstSize)
	duty := c.duty
	var last int64
	if duty != nil {
		last = metrics.NowNanos()
	}
	for {
		c.pickup()
		if c.migFlag.Load() {
			c.handleMigrations(queue)
		}
		n := queue.DequeueBurst(buf)
		if n == 0 {
			c.maybeCompleteExport(queue) // empty ring has trivially drained
			var t0 int64
			if duty != nil {
				t0 = metrics.NowNanos()
				duty.busyNs.Add(t0 - last)
			}
			ok := queue.Wait()
			if duty != nil {
				last = metrics.NowNanos()
				duty.waitNs.Add(last - t0)
				duty.wakeups.Add(1)
			}
			if !ok {
				break
			}
			continue
		}
		depth := int64(n)
		if duty != nil && c.cfg.RingSignal != nil {
			used, _ := c.cfg.RingSignal()
			depth += int64(used) // what remained after this dequeue
		}
		c.ProcessBurst(buf[:n])
		c.maybeCompleteExport(queue)
		if duty != nil {
			now := metrics.NowNanos()
			iter := now - last
			duty.busyNs.Add(iter)
			duty.occWeighted.Add(iter * depth)
			duty.bursts.Add(1)
			last = now
		}
	}
	c.pickup()
	if c.migFlag.Load() {
		c.handleMigrations(queue)
	}
	c.maybeCompleteExport(queue)
	c.Flush()
}
