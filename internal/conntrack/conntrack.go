// Package conntrack implements Retina's per-core connection table:
// canonical five-tuple keyed state with two-level timeout expiry
// (paper §5.2, "Connection Tracking").
//
// Each core owns one Table and tracks only the connections symmetric RSS
// delivers to it, so there is no locking anywhere in this package. The
// expiry design follows the paper's empirical observation that ~65% of
// connections are a single unanswered SYN: a short establishment timeout
// evicts those quickly, while a longer inactivity timeout governs
// established connections. Timer wheels fire lazily and the table
// revalidates deadlines, so refreshing a connection costs O(1).
//
// The connection store itself is pluggable (Config.Backend): the default
// flat backend is an open-addressing, cache-line-bucketed hash table
// with slab-allocated Conn structs (see flat.go) so the per-packet
// lookup path touches at most two cache lines and allocates nothing in
// steady state; the map backend is the original Go-map implementation,
// kept as a differential-testing oracle.
package conntrack

import (
	"fmt"
	"sync/atomic"

	"retina/internal/layers"
	"retina/internal/timerwheel"
)

// State is a connection's processing state (Figure 4). The state decides
// how much work each subsequent packet of the connection receives.
type State uint8

const (
	// StateProbe buffers and inspects packets to identify the L7
	// protocol.
	StateProbe State = iota
	// StateParse runs the application-layer parser on reassembled data.
	StateParse
	// StateTrack keeps per-connection counters but skips reassembly and
	// parsing.
	StateTrack
	// StateDelete marks the connection for removal from the table.
	StateDelete
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateProbe:
		return "probe"
	case StateParse:
		return "parse"
	case StateTrack:
		return "track"
	case StateDelete:
		return "delete"
	}
	return "?"
}

// ExpireReason distinguishes why a connection left the table.
type ExpireReason uint8

const (
	// ExpireEstablishTimeout fires for connections that never completed
	// a handshake within the establishment timeout (unanswered SYNs).
	ExpireEstablishTimeout ExpireReason = iota
	// ExpireInactivityTimeout fires for established connections idle
	// longer than the inactivity timeout.
	ExpireInactivityTimeout
	// ExpireTermination fires on graceful FIN/RST removal.
	ExpireTermination
	// ExpireEvicted fires when the subscription no longer needs the
	// connection and the framework discards it early (dashed arrows in
	// Figure 4).
	ExpireEvicted
	// ExpirePressure fires when a connection is evicted at MaxConns to
	// admit a new one (pressure-driven eviction: the longest-idle
	// unestablished connection loses its slot instead of the new
	// connection being refused).
	ExpirePressure

	// NumExpireReasons sizes per-reason arrays.
	NumExpireReasons
)

// String names the reason; the telemetry layer uses these as label
// values.
func (r ExpireReason) String() string {
	switch r {
	case ExpireEstablishTimeout:
		return "establish_timeout"
	case ExpireInactivityTimeout:
		return "inactivity_timeout"
	case ExpireTermination:
		return "termination"
	case ExpireEvicted:
		return "evicted"
	case ExpirePressure:
		return "evicted_pressure"
	}
	return "?"
}

// Backend names for Config.Backend.
const (
	// BackendFlat is the open-addressing, cache-line-bucketed table
	// with slab-allocated connections (the default).
	BackendFlat = "flat"
	// BackendMap is the Go-map implementation, kept as the
	// differential-testing oracle.
	BackendMap = "map"
)

// index is the connection store behind Table: insertion, id-keyed
// resolution for timer-wheel entries, and slot lifecycle. Both
// implementations are single-owner (core goroutine); only stats() is
// safe to call concurrently. Each implementation also has find (the
// per-packet lookup) and each (iteration), which Table calls on the
// concrete type instead (Table.find, Table.each): a tuple pointer or
// closure passed through an interface method escapes to the heap.
type index interface {
	// alloc inserts the canonical key, whose find hash is h, under a
	// fresh id; the caller guarantees the key is absent.
	alloc(key layers.FiveTuple, h uint64, id uint64) *Conn
	remove(c *Conn) bool
	byID(id uint64) *Conn
	size() int
	stats() IndexStats
	check() error
}

// IndexStats describes the health of the connection store. Safe to read
// from monitoring goroutines (backends keep atomic mirrors).
type IndexStats struct {
	// Backend is BackendFlat or BackendMap.
	Backend string
	// Slots is the bucket-slot capacity (0 for the map backend).
	Slots int
	// Live is the number of stored connections.
	Live int
	// LoadFactor is Live/Slots (0 for the map backend).
	LoadFactor float64
	// MaxProbe is the worst insert probe length in buckets since the
	// table was created (flat backend only).
	MaxProbe uint64
	// Rehashes counts bucket-array rebuilds (flat backend only).
	Rehashes uint64
	// SlabBytes is the Conn slab footprint (flat backend only).
	SlabBytes uint64
}

// Conn is one tracked connection. Tuple preserves the orientation of the
// first packet seen (originator → responder).
type Conn struct {
	ID    uint64
	Tuple layers.FiveTuple
	State State

	// Service is the identified application protocol ("tls", "http"),
	// empty while probing. Implements filter.ConnView via ServiceName.
	Service string

	FirstTick uint64
	LastTick  uint64

	Established bool
	SynSeen     bool
	FinSeen     bool
	RstSeen     bool

	PktsOrig, PktsResp       uint64
	BytesOrig, BytesResp     uint64
	PayloadOrig, PayloadResp uint64
	// OOOOrig/OOOResp count TCP segments arriving out of sequence
	// order, detected from sequence numbers in Touch so the statistic
	// exists even for connections whose streams are never reassembled.
	OOOOrig, OOOResp uint64

	expSeq     [2]uint32 // next expected TCP sequence number per direction
	expSeqInit [2]bool

	// ckey is the canonical form of Tuple, set by the index at
	// allocation and used as the removal key.
	ckey layers.FiveTuple
	// origCanonical records whether the first packet's tuple was
	// already in canonical order; GetOrCreate classifies later packets
	// by comparing orientations instead of whole tuples.
	origCanonical bool
	// symmetric marks tuples whose two directions are identical
	// (src and dst endpoint equal): direction is then inherently
	// indistinguishable, so every packet counts as originator and
	// establishment falls back to a packet-count rule.
	symmetric bool

	// RSSHash is the device's symmetric Toeplitz hash for the
	// connection's flow, stamped by the owning core at creation. It
	// decides redirection-table bucket membership (hash mod table size),
	// so bucket migrations can extract exactly the connections whose
	// future frames the RETA swap redirects. Zero for flows the device
	// never hashed (offline mode).
	RSSHash uint32

	// ExtraMem accounts buffers owned by reassembly/parsing for this
	// connection, included in Table.MemoryBytes (Figure 8).
	ExtraMem int

	// UserData carries the subscription's Trackable state.
	UserData any
}

// ServiceName implements filter.ConnView.
func (c *Conn) ServiceName() string { return c.Service }

// connBaseBytes approximates the in-memory footprint of one tracked
// connection (struct, table entry, timer entries), used for the memory
// accounting in Figure 8.
const connBaseBytes = 320

// Config controls table behavior. Timeouts are in virtual-clock ticks;
// the runtime uses 1 tick = 1 microsecond.
type Config struct {
	// EstablishTimeout evicts connections that have not established
	// within this many ticks (0 disables). Paper default: 5 seconds.
	EstablishTimeout uint64
	// InactivityTimeout evicts established connections idle this long
	// (0 disables). Paper default: 5 minutes.
	InactivityTimeout uint64
	// WheelGranularity is the timer wheel slot width in ticks
	// (default 100ms of virtual time).
	WheelGranularity uint64
	// MaxConns bounds the table; 0 is unlimited. At the bound,
	// GetOrCreate fails, modeling memory exhaustion — unless
	// PressureEvict is set.
	MaxConns int
	// PressureEvict changes the MaxConns policy from refusal to
	// eviction: at the bound, the longest-idle unestablished connection
	// is evicted (reason ExpirePressure) to admit the new one. If every
	// tracked connection is established, GetOrCreate still refuses —
	// established state is never shed for an unproven newcomer.
	PressureEvict bool
	// Backend selects the connection store: BackendFlat (default) or
	// BackendMap (the differential-testing oracle). Empty selects the
	// build default; the conntrack_map build tag flips that to the
	// oracle so whole suites can be replayed against it.
	Backend string
	// IDBase and IDStride shape the connection-ID sequence: the n-th
	// created connection gets IDBase + n*IDStride. Defaults (base 1,
	// stride 1) reproduce the historical 1,2,3,… sequence. Multi-core
	// runtimes stride by the core count with per-core bases so IDs stay
	// globally unique — a precondition for migrating connections between
	// tables while preserving their IDs (Inject refuses nothing, the
	// id-index requires uniqueness). IDBase must be ≥ 1: the flat
	// backend's id-index uses 0 as its empty-slot sentinel.
	IDBase   uint64
	IDStride uint64
}

// Ticks per time unit at the runtime's 1µs virtual tick.
const (
	TickMicrosecond uint64 = 1
	TickMillisecond        = 1000 * TickMicrosecond
	TickSecond             = 1000 * TickMillisecond
	TickMinute             = 60 * TickSecond
)

// DefaultConfig returns the paper's defaults: 5s establishment timeout,
// 5m inactivity timeout.
func DefaultConfig() Config {
	return Config{
		EstablishTimeout:  5 * TickSecond,
		InactivityTimeout: 5 * TickMinute,
		WheelGranularity:  100 * TickMillisecond,
	}
}

// Table is a single core's connection table.
//
// Tick discipline: the ticks passed to GetOrCreate/Touch/TouchSeq must
// not lag the largest tick passed to Advance (the core's virtual clock
// is monotonic and advances before packet processing). Under that
// contract no live connection's deadline ever predates Now(), which
// CheckInvariants asserts.
type Table struct {
	cfg    Config
	idx    index
	wheel  *timerwheel.Hierarchical
	nextID uint64
	now    uint64 // virtual clock: largest tick passed to Advance

	// Cumulative event counters are atomic so monitoring goroutines can
	// read them while the owning core processes packets; the core's own
	// updates stay single-writer.
	created atomic.Uint64
	expired [NumExpireReasons]atomic.Uint64
	rearmed atomic.Uint64 // stale timer entries revalidated and re-armed
	full    atomic.Uint64 // GetOrCreate refusals at MaxConns
	// migratedOut/migratedIn count connections handed to / received from
	// another core's table by a RETA bucket migration. They extend the
	// census invariant: created + migratedIn == live + expired + migratedOut.
	migratedOut atomic.Uint64
	migratedIn  atomic.Uint64

	// evictFn runs for a connection evicted under pressure, before it
	// leaves the table, so the owner can deliver records and release
	// subscription state (mirrors Advance's onExpire).
	evictFn func(*Conn, ExpireReason)

	// count mirrors the store size atomically so monitoring goroutines
	// can observe table occupancy without touching the (unsynchronized,
	// core-owned) index.
	count atomic.Int64
}

// NewTable builds a table for one core. An unrecognized Config.Backend
// panics: only the program and its tests set it, so a bad value is a
// programming error.
func NewTable(cfg Config) *Table {
	gran := cfg.WheelGranularity
	if gran == 0 {
		gran = 100 * TickMillisecond
	}
	cfg.WheelGranularity = gran
	if cfg.Backend == "" {
		cfg.Backend = defaultBackend
	}
	if cfg.IDBase == 0 {
		cfg.IDBase = 1
	}
	if cfg.IDStride == 0 {
		cfg.IDStride = 1
	}
	var idx index
	switch cfg.Backend {
	case BackendFlat:
		idx = newFlatIndex(cfg.MaxConns)
	case BackendMap:
		idx = newMapIndex()
	default:
		panic("conntrack: unknown backend " + cfg.Backend)
	}
	// Inner wheel: 512 slots (51.2s horizon at default granularity);
	// outer: 64 laps (~54 min), comfortably above the 5m default.
	return &Table{
		cfg:   cfg,
		idx:   idx,
		wheel: timerwheel.NewHierarchical(512, 64, gran),
	}
}

// Len returns the number of tracked connections.
func (t *Table) Len() int { return t.idx.size() }

// ConcurrentLen returns the number of tracked connections via an atomic
// mirror, safe to call from monitoring goroutines while the owning core
// is processing.
func (t *Table) ConcurrentLen() int { return int(t.count.Load()) }

// Backend reports which connection store the table runs on.
func (t *Table) Backend() string { return t.cfg.Backend }

// IndexStats reports connection-store health (occupancy, load factor,
// probe length, rehashes, slab footprint). Safe to call from monitoring
// goroutines.
func (t *Table) IndexStats() IndexStats { return t.idx.stats() }

// Now returns the table's virtual clock: the largest tick passed to
// Advance. Ticks passed to GetOrCreate/Touch must not lag it (see the
// Table tick discipline); CheckInvariants asserts no live connection's
// deadline predates it.
func (t *Table) Now() uint64 { return t.now }

// MemoryBytes estimates the memory held by tracked connections.
func (t *Table) MemoryBytes() uint64 {
	total := uint64(0)
	t.each(func(c *Conn) {
		total += connBaseBytes + uint64(c.ExtraMem)
	})
	return total
}

// Stats reports cumulative creations and expirations by reason. Safe to
// call from monitoring goroutines.
func (t *Table) Stats() (created uint64, expired [NumExpireReasons]uint64) {
	for i := range expired {
		expired[i] = t.expired[i].Load()
	}
	return t.created.Load(), expired
}

// PressureEvictions reports how many connections were evicted at
// MaxConns to admit new ones.
func (t *Table) PressureEvictions() uint64 { return t.expired[ExpirePressure].Load() }

// SetEvictHandler installs the callback run for pressure-evicted
// connections before removal (the runtime delivers connection records
// and frees subscription state there, exactly as on timer expiry).
func (t *Table) SetEvictHandler(fn func(*Conn, ExpireReason)) { t.evictFn = fn }

// Rearmed reports how many stale timer entries were revalidated against
// a refreshed deadline and re-armed instead of firing — the cost of the
// lazy-timeout design, visible so operators can size wheel granularity.
func (t *Table) Rearmed() uint64 { return t.rearmed.Load() }

// FullDrops reports how many GetOrCreate calls were refused because the
// table was at MaxConns.
func (t *Table) FullDrops() uint64 { return t.full.Load() }

// find resolves ft in either direction on the concrete store, returning
// the store's hash of the canonical key (for alloc on a miss) and
// whether ft is in canonical order.
func (t *Table) find(ft *layers.FiveTuple) (c *Conn, h uint64, canonical bool) {
	if f, ok := t.idx.(*flatIndex); ok {
		return f.find(ft)
	}
	return t.idx.(*mapIndex).find(ft)
}

// each visits every live connection on the concrete store, so fn does
// not escape and callers' closures stay on the stack.
func (t *Table) each(fn func(*Conn)) {
	if f, ok := t.idx.(*flatIndex); ok {
		f.each(fn)
		return
	}
	t.idx.(*mapIndex).each(fn)
}

// GetOrCreate returns the connection for ft, creating it at tick if
// absent, and whether ft runs in the connection's original direction.
// created reports whether a new entry was made; ok is false only when
// the table is at MaxConns. ft is read in place and not retained.
//
// The direction compares orientations, not tuples: ft equals either
// Tuple or its reverse, and exactly one of the two is in canonical
// order — except for self-symmetric tuples (src and dst endpoint
// equal), whose two directions are the same tuple, always canonical.
// Every packet of such a connection therefore counts as originator,
// and establishment uses a packet-count rule instead (TouchSeq).
func (t *Table) GetOrCreate(ft *layers.FiveTuple, tick uint64) (c *Conn, orig, created, ok bool) {
	c, h, canonical := t.find(ft)
	if c != nil {
		return c, canonical == c.origCanonical, false, true
	}
	if t.cfg.MaxConns > 0 && t.idx.size() >= t.cfg.MaxConns {
		if !t.cfg.PressureEvict || !t.evictForPressure() {
			t.full.Add(1)
			return nil, false, false, false
		}
	}
	id := t.cfg.IDBase + t.nextID*t.cfg.IDStride
	t.nextID++
	key := *ft
	if !canonical {
		key = key.Reverse()
	}
	c = t.idx.alloc(key, h, id)
	c.Tuple = *ft // orientation of the first packet
	c.origCanonical = canonical
	c.symmetric = key == key.Reverse()
	c.FirstTick = tick
	c.LastTick = tick
	t.count.Store(int64(t.idx.size()))
	t.created.Add(1)
	t.scheduleExpiry(c)
	return c, true, true, true
}

// pressureScanBudget bounds how many live unestablished candidates an
// eviction scan inspects. The timer wheel yields entries in approximate
// deadline order, so the first candidates are already close to the
// longest-idle; scanning a handful trades exactness for O(1) eviction.
const pressureScanBudget = 32

// pressureVisitBudget bounds how many wheel entries an eviction scan
// visits in total. Lazy rearming leaves stale entries parked in slots;
// when the table is dominated by established (non-victim) connections a
// candidate-only bound would walk the entire wheel per admission.
const pressureVisitBudget = 256

// idlerThan orders pressure-eviction candidates: longest idle first,
// connection ID as the tie-break. The ID tie-break makes victim choice a
// pure function of table history, so the flat and map backends — whose
// iteration orders differ — evict identical victims (a precondition for
// the flat-vs-map differential tests).
func idlerThan(c, than *Conn) bool {
	return than == nil || c.LastTick < than.LastTick ||
		(c.LastTick == than.LastTick && c.ID < than.ID)
}

// evictForPressure frees one table slot by evicting the longest-idle
// unestablished connection found via a bounded timer-wheel scan,
// reporting whether a slot was freed. Established connections are never
// victims: the paper's campus measurement (65% of connections are a
// single unanswered SYN) means pressure at MaxConns is dominated by
// state that will never progress, and that state is the cheapest to
// lose.
func (t *Table) evictForPressure() bool {
	var victim *Conn
	seen, visited := 0, 0
	t.wheel.Scan(func(id, _ uint64) bool {
		visited++
		c := t.idx.byID(id)
		if c != nil && !c.Established { // skip stale entries and protected conns
			seen++
			if idlerThan(c, victim) {
				victim = c
			}
		}
		return seen < pressureScanBudget && visited < pressureVisitBudget
	})
	if victim == nil {
		// The wheel yields no victim when timeouts are disabled (nothing
		// scheduled) or when the visit budget ran out among established
		// entries. Fall back to an exact scan of the whole store: the
		// order-independent (LastTick, ID) minimum costs O(conns) but
		// only runs when the wheel path failed, and — unlike a bounded
		// sample of backend iteration order — picks the same victim on
		// every backend.
		t.each(func(c *Conn) {
			if !c.Established && idlerThan(c, victim) {
				victim = c
			}
		})
	}
	if victim == nil {
		return false
	}
	if t.evictFn != nil {
		t.evictFn(victim, ExpirePressure)
	}
	t.Remove(victim, ExpirePressure)
	return true
}

// deadline computes when c should expire given its current state.
// Returns 0 when no timeout applies.
func (t *Table) deadline(c *Conn) uint64 {
	if c.Established {
		if t.cfg.InactivityTimeout == 0 {
			return 0
		}
		return c.LastTick + t.cfg.InactivityTimeout
	}
	if t.cfg.EstablishTimeout == 0 {
		if t.cfg.InactivityTimeout == 0 {
			return 0
		}
		return c.LastTick + t.cfg.InactivityTimeout
	}
	return c.LastTick + t.cfg.EstablishTimeout
}

func (t *Table) scheduleExpiry(c *Conn) {
	if d := t.deadline(c); d > 0 {
		t.wheel.Schedule(c.ID, d)
	}
}

// Touch records a packet on the connection: direction-aware counters and
// activity refresh. orig is the direction GetOrCreate reported for the
// packet. Refreshing does not reschedule the timer; the stale timer
// entry revalidates against LastTick when it fires.
func (t *Table) Touch(c *Conn, orig bool, tick uint64, wireBytes, payloadBytes int, tcpFlags uint8) {
	t.TouchSeq(c, orig, tick, wireBytes, payloadBytes, tcpFlags, 0, false)
}

// TouchSeq is Touch with the TCP sequence number, enabling out-of-order
// detection. hasSeq is false for non-TCP packets.
func (t *Table) TouchSeq(c *Conn, orig bool, tick uint64, wireBytes, payloadBytes int, tcpFlags uint8, seq uint32, hasSeq bool) {
	if tick > c.LastTick {
		c.LastTick = tick
	}
	if hasSeq {
		// SYN and FIN each consume one sequence number, so a segment
		// carrying both advances the expected sequence by two beyond
		// its payload.
		seqLen := uint32(payloadBytes)
		if tcpFlags&layers.TCPSyn != 0 {
			seqLen++
		}
		if tcpFlags&layers.TCPFin != 0 {
			seqLen++
		}
		if seqLen > 0 {
			d := 0
			if !orig {
				d = 1
			}
			if c.expSeqInit[d] && seq != c.expSeq[d] {
				if orig {
					c.OOOOrig++
				} else {
					c.OOOResp++
				}
			}
			next := seq + seqLen
			if !c.expSeqInit[d] || int32(next-c.expSeq[d]) > 0 {
				c.expSeq[d] = next
			}
			c.expSeqInit[d] = true
		}
	}
	if orig {
		c.PktsOrig++
		c.BytesOrig += uint64(wireBytes)
		c.PayloadOrig += uint64(payloadBytes)
	} else {
		c.PktsResp++
		c.BytesResp += uint64(wireBytes)
		c.PayloadResp += uint64(payloadBytes)
	}
	if tcpFlags&layers.TCPSyn != 0 {
		c.SynSeen = true
		if tcpFlags&layers.TCPAck != 0 && !orig {
			// SYN-ACK from the responder establishes the connection and
			// moves it onto the long (inactivity) timeout.
			if !c.Established {
				c.Established = true
				t.scheduleExpiry(c)
			}
		}
	}
	// Data flowing both ways also establishes (covers UDP and captures
	// joined mid-connection). Symmetric tuples have no distinguishable
	// directions — every packet counts as originator — so any two
	// packets establish them.
	if !c.Established && ((c.PktsOrig > 0 && c.PktsResp > 0) ||
		(c.symmetric && c.PktsOrig+c.PktsResp >= 2)) {
		c.Established = true
		t.scheduleExpiry(c)
	}
	if tcpFlags&layers.TCPFin != 0 {
		c.FinSeen = true
	}
	if tcpFlags&layers.TCPRst != 0 {
		c.RstSeen = true
	}
}

// Remove deletes c from the table with the given reason. A second Remove
// of the same connection is a no-op, but the pointer must not be held
// across subsequent GetOrCreate calls: the flat backend recycles Conn
// storage, so a long-stale pointer may alias a different, newer
// connection (validate with the ID, which is never reused).
func (t *Table) Remove(c *Conn, reason ExpireReason) {
	if !t.idx.remove(c) {
		return
	}
	t.count.Store(int64(t.idx.size()))
	t.expired[reason].Add(1)
}

// RemoveAll removes every connection with the given reason, in Each
// order. Both stores let iteration remove the connection it is
// visiting, so no snapshot of the table is taken.
func (t *Table) RemoveAll(reason ExpireReason) {
	t.each(func(c *Conn) { t.Remove(c, reason) })
}

// Advance moves the virtual clock, expiring due connections. onExpire
// runs for each expired connection before it leaves the table, letting
// the runtime deliver connection records and tear down subscriptions.
// The clock is monotonic: a tick earlier than a previous Advance is
// clamped forward.
func (t *Table) Advance(tick uint64, onExpire func(*Conn, ExpireReason)) {
	if tick < t.now {
		tick = t.now
	}
	t.now = tick
	t.wheel.Advance(tick, func(id uint64) {
		c := t.idx.byID(id)
		if c == nil {
			return // already removed; stale timer entry
		}
		d := t.deadline(c)
		if d == 0 {
			return // timeouts disabled for this state
		}
		if d > tick {
			// Refreshed since scheduling: re-arm for the new deadline.
			t.rearmed.Add(1)
			t.wheel.Schedule(id, d)
			return
		}
		reason := ExpireEstablishTimeout
		if c.Established {
			reason = ExpireInactivityTimeout
		}
		if onExpire != nil {
			onExpire(c, reason)
		}
		t.Remove(c, reason)
	})
}

// CheckInvariants verifies the table's internal accounting. It is cheap
// enough (O(conns)) to call from fuzz targets and tests after every
// operation: the store's internal structure must verify (bucket/slab
// accounting for the flat backend, mirror maps for the oracle), the
// atomic count must match, every live connection must be keyed by its
// canonical tuple and resolvable by ID, no live deadline may predate the
// virtual clock (every due connection expired in the last Advance), and
// every created connection must be either live or expired — never both,
// never neither (no leaks, no double-removal).
func (t *Table) CheckInvariants() error {
	if err := t.idx.check(); err != nil {
		return err
	}
	live := t.idx.size()
	if got := t.count.Load(); got != int64(live) {
		return fmt.Errorf("conntrack: atomic count %d != store size %d", got, live)
	}
	var err error
	t.each(func(c *Conn) {
		if err != nil {
			return
		}
		if canon, _ := c.Tuple.Canonical(); canon != c.ckey {
			err = fmt.Errorf("conntrack: conn %d keyed at %v but canonical tuple is %v", c.ID, c.ckey, canon)
			return
		}
		if got := t.idx.byID(c.ID); got != c {
			err = fmt.Errorf("conntrack: conn %d not resolvable by ID", c.ID)
			return
		}
		if c.ExtraMem < 0 {
			err = fmt.Errorf("conntrack: conn %d ExtraMem %d is negative", c.ID, c.ExtraMem)
			return
		}
		if d := t.deadline(c); d > 0 && d <= t.now {
			err = fmt.Errorf("conntrack: conn %d deadline %d predates clock %d (missed expiry)", c.ID, d, t.now)
			return
		}
	})
	if err != nil {
		return err
	}
	totalExpired := uint64(0)
	for i := range t.expired {
		totalExpired += t.expired[i].Load()
	}
	if in, out := t.migratedIn.Load(), t.migratedOut.Load(); t.created.Load()+in != uint64(live)+totalExpired+out {
		return fmt.Errorf("conntrack: created %d + migrated-in %d != live %d + expired %d + migrated-out %d (leak or double-remove)",
			t.created.Load(), in, live, totalExpired, out)
	}
	return t.wheel.CheckInvariants()
}

// Each iterates over all tracked connections (diagnostics, Figure 8
// sampling). The callback must not mutate the table. Iteration order is
// backend-defined: deterministic bucket order on the flat backend,
// randomized on the map oracle — consumers must not depend on it.
func (t *Table) Each(fn func(*Conn)) {
	t.each(fn)
}
