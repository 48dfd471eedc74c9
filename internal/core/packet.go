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

// The packet stage (DESIGN.md §3): the per-core burst loop — decode,
// software packet filter, packet-stage aggregation and the stateless
// fast path — then connection lookup and the stream feed into
// reassembly and parsing. What happens to a connection's subscriptions
// is decided in statemachine.go, speculative buffers live in buffer.go,
// and callbacks run from deliver.go.

// pktBufferCap bounds packets buffered per connection while awaiting a
// filter verdict (packet-level subscriptions, Figure 4a's Probe state).
const defaultPktBufferCap = 512

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
	// rx→delivery and sampled per-stage latency histograms and
	// poll-loop duty-cycle accounting. Off by default; the hot path then
	// pays nothing beyond nil checks. The elephant-flow witness is kept
	// either way.
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

	// shed orders verdict-pending connections for packet-buffer
	// shedding (buffer.go).
	shed shedQueue

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

	// sessEvents and connRecs hand out the delivered session events and
	// connection records (deliver.go); Flush drops both.
	sessEvents recordBatch[SessionEvent]
	connRecs   recordBatch[ConnRecord]

	// offloadReqs accumulates terminal-verdict offload requests within a
	// burst; flushOffload publishes them to cfg.Offload at burst
	// boundaries (core goroutine only).
	offloadReqs []offload.Request

	// Observability state (lat and duty nil when Config.Latency is off).
	// nowNs is the wall clock read once at the top of each burst;
	// rx→delivery observations subtract mbuf RX stamps from it so
	// delivery costs no clock read per packet. The elephant witness is
	// always kept: the rebalancer's guard reads it.
	lat   *LatencyStats
	duty  *DutyStats
	wit   FlowWitness
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

	// touched keeps the touch loop's loads live (see ProcessBurst).
	touched byte
}

// obsFlushEvery is the observability fold interval in bursts (power of
// two). At 64 bursts of 32 packets, shared metrics lag the hot path by
// at most ~2k packets — microseconds at line rate.
const obsFlushEvery = 64

// burstDelta accumulates the per-packet hot counters of one burst in
// plain (non-atomic) fields; ProcessBurst folds it into the shared
// atomic counters once per burst. Monitoring sees counts at burst
// granularity, and the conservation identity Processed == Disposed
// holds exactly whenever no burst is mid-flight (always at end of run).
type burstDelta struct {
	processed        uint64
	filterDropped    uint64
	deliveredPackets uint64
	tracked          uint64
	// slotDelivered counts the fast path's deliveries per slot of the
	// burst's program set; slots marks the slots it touched.
	slotDelivered [filter.MaxSubscriptions]uint64
	slots         uint64
}

func (c *Core) foldDelta(d *burstDelta) {
	for rem := d.slots; rem != 0; rem &= rem - 1 {
		i := bits.TrailingZeros64(rem)
		c.ps.Slots[i].Delivered.Add(d.slotDelivered[i])
	}
	if d.processed > 0 {
		c.ctr.processed.Add(d.processed)
	}
	if d.filterDropped > 0 {
		c.ctr.filterDropped.Add(d.filterDropped)
	}
	if d.deliveredPackets > 0 {
		c.ctr.deliveredPackets.Add(d.deliveredPackets)
	}
	if d.tracked > 0 {
		c.ctr.tracked.Add(d.tracked)
	}
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

// Witness returns the core's elephant-flow witness.
func (c *Core) Witness() *FlowWitness { return &c.wit }

// ProcessBurst consumes a burst of packet buffers in two passes: decode
// + software packet filter over the whole batch (one stage-timer entry,
// tight loop over the tries), then per-packet disposition. A touch loop
// first loads each frame's first byte, so the burst's header cache
// misses — offline frames are read straight from the source's memory —
// overlap rather than stall the decoder one frame at a time. The virtual
// clock follows each packet's RxTick, but connection-expiry timers fire
// once per burst at the final clock, and the burst's hot counters and
// stage invocation counts are folded into the shared atomics once.
// Frees (one reference per mbuf) are batched through the pool in one
// lock acquisition. A newly published program set is picked up at the
// top — never mid-burst — so every packet of a burst sees one
// consistent subscription set.
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
		var t byte
		for _, m := range ms {
			if b := m.Data(); len(b) > 0 {
				t ^= b[0]
			}
		}
		c.touched = t
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
	c.stages.publish()
	c.obsBursts++
	if c.obsBursts&(obsFlushEvery-1) == 0 {
		c.publishObs()
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
				c.runOnPacket(c.ps.Slots[i], m)
				d.slotDelivered[i]++
			}
			d.slots |= mr.Mask
			d.deliveredPackets++
			return
		}
	}

	c.processStateful(p, m, mr, d)
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
	c.stages.publish()
	c.publishObs()
}

// publishObs folds the elephant witness and the burst-local latency
// histograms (with Latency on) into their shared, scrapeable forms.
func (c *Core) publishObs() {
	c.wit.publish()
	if c.lat != nil {
		c.lat.flush()
	}
}

// Frame dispositions, in ascending precedence: one frame takes exactly
// one disposition, the most useful outcome any packet-level
// subscription gave it — delivery beats buffering beats any drop — so
// CoreStats.Disposed counts it once no matter how many subscriptions
// touched it. A frame that matched no packet-level subscription counts
// as tracked: its only outcome is the connection state it updated.
const (
	dispNone = iota
	dispTombstone
	dispBudget
	dispShed
	dispOverflow
	dispBuffered
	dispDelivered
)

func (c *Core) processStateful(p *layers.Parsed, m *mbuf.Mbuf, mr filter.MultiResult, d *burstDelta) {
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
	var orig, created, okc bool
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
		conn, orig, created, okc = c.table.GetOrCreate(&ft, c.now)
		if okc {
			c.table.TouchSeq(conn, orig, c.now, m.Len(), len(payload), flags, seq, isTCP)
		}
	})
	if !okc {
		c.ctr.tableFull.Inc() // table full: connection-level loss
		return
	}
	c.wit.Note(&conn.Tuple)

	var cs *connState
	if created {
		c.ctr.connsCreated.Inc()
		// The device's RSS hash decides redirection-table bucket
		// membership; the rebalancer's bucket migrations extract by it.
		conn.RSSHash = m.RSSHash
		c.initConn(conn, mr)
		cs = c.state(conn)
	} else {
		cs = c.state(conn) // reconciles to the current epoch lazily
		// A later packet may match different or deeper trie branches
		// (e.g. a predicate satisfied only by some packets); keep the
		// union of viable branches per subscription. A subscription
		// whose first packet this is (dormant until now) gets its
		// verdict resolved as far as the connection's progress allows.
		rem := mr.Mask
		for rem != 0 {
			i := bits.TrailingZeros64(rem)
			rem &= rem - 1
			if i >= len(cs.subs) {
				continue
			}
			s := &cs.subs[i]
			if s.phase > phasePending {
				continue
			}
			if s.engage(mr.Res[i]) {
				c.activateSub(conn, cs, s)
			}
		}
	}

	if cs.tombstone {
		c.ctr.tombstonePkts.Inc()
		c.maybeTerminate(conn, cs, orig, flags)
		return
	}

	// Feed the stream machinery while the connection needs it. Stream
	// subscriptions keep the reassembler for the connection's lifetime.
	if conn.State == conntrack.StateProbe || conn.State == conntrack.StateParse ||
		cs.anyStreamLive() {
		c.feed(conn, cs, p, m, orig, payload, flags)
	}

	// Packet-level delivery/buffering. Each frame takes exactly one
	// disposition here (or one of the earlier drop paths), so the
	// per-reason counters sum back to Processed — the conservation
	// identity Runtime.Check asserts. Per-subscription callback counts
	// live on the SubSpecs.
	disp := dispNone
	if c.ps.pktSlots != 0 {
		deliveredAny := false
		rem := mr.Mask
		for rem != 0 {
			si := bits.TrailingZeros64(rem)
			rem &= rem - 1
			if si >= len(cs.subs) {
				continue
			}
			s := &cs.subs[si]
			if s.spec.Sub.Level != LevelPacket {
				continue
			}
			if s.phase == phaseDone || conn.State == conntrack.StateDelete {
				// The subscription rejected the connection — or the
				// connection was deleted while this very packet's payload
				// was being fed: it lands on a tombstone.
				if disp < dispTombstone {
					disp = dispTombstone
				}
				continue
			}
			if s.phase == phaseMatched {
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
				m.Keep(nil)
				s.pktBuf = append(s.pktBuf, pktBufEntry{m: m.Ref()})
				s.pktBufBytes += m.Len()
				cs.syncMem(conn)
				c.shed.join(conn, cs)
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
	// A frame a packet-level subscription matched but left without a
	// disposition is counted nowhere, so Runtime.Check reports it.
	if disp == dispNone && mr.Mask&c.ps.pktSlots == 0 {
		d.tracked++
	}

	c.maybeTerminate(conn, cs, orig, flags)
}

// feed pushes one packet's stream payload through reassembly into
// probing/parsing. orig is the packet's direction from GetOrCreate.
func (c *Core) feed(conn *conntrack.Conn, cs *connState, p *layers.Parsed, m *mbuf.Mbuf, orig bool, payload []byte, flags uint8) {
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
		// Hold a buffer reference until the reassembler lets go. It
		// calls the buffer's Keep only if it parks the segment, so an
		// in-order segment is read straight from a borrowed frame.
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

// Flush delivers records for all live connections (end of run) and
// clears the table.
func (c *Core) Flush() {
	if c.lat != nil {
		c.nowNs = metrics.NowNanos()
	}
	// Finishing a connection leaves the table alone, so every one is
	// finished in place and the table emptied after, with no snapshot.
	c.table.Each(func(conn *conntrack.Conn) {
		cs := c.state(conn)
		c.finishConn(conn, cs, conntrack.ExpireEvicted)
		c.queueOffloadRemove(conn, cs)
	})
	c.table.RemoveAll(conntrack.ExpireEvicted)
	c.flushOffload()
	c.recycleStates()
	// Seal all aggregation windows: input has ended for this core, so
	// every open window's contents are final and must reach the merger.
	for _, st := range c.aggStates {
		st.FinalSeal()
	}
	c.stages.publish()
	c.publishObs()
	// Keep no view of a freed buffer: the last burst's decodes and
	// delivered packet would pin the pool chunk holding their bytes
	// after the pool gives it back (mbuf.Pool.Trim).
	clear(c.burstParsed)
	c.pktOut = Packet{}
	// Nor the last record batches: only records a callback kept stay.
	c.sessEvents.drop()
	c.connRecs.drop()
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
