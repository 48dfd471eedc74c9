// Package offload implements the dynamic flow-offload fastpath: a
// runtime feedback loop that pushes per-connection terminal verdicts
// down into the device's flow table, so packets of already-decided
// flows never reach a core.
//
// The paper's §4.1 hardware filter is static — the NIC mirrors the
// merged subscription filters, and every packet matching them burns CPU
// even after software has decided the flow's fate. Following Deri et
// al. (arXiv:2407.16231) and Sonata's push-down principle, the cores
// publish an offload request when a connection reaches a terminal
// verdict (every subscription rejected it, its sessions are parsed and
// delivered, or it closed after delivering); the manager installs a
// per-5-tuple drop rule into the NIC's dynamic partition. Subsequent
// frames of the flow are discarded in "hardware" at zero CPU cost and
// counted under the hw_offload_drop taxonomy reason, so packet
// conservation (rx == delivered + Σdrops) holds exactly.
//
// Rule lifecycle: the dynamic partition shares CapabilityModel.MaxRules
// with the static subscription rules, which always take precedence —
// the manager's budget is capped by the device's remaining capacity,
// and a static install evicts least-recently-hit flow rules to make
// room. Within its budget the manager evicts LRU on overflow and sweeps
// idle rules (no hit for IdleTimeout ticks). Conntrack keeps the table
// coherent: when a rule-backed connection is expired or
// pressure-evicted, its core queues a removal so the rule dies with the
// connection. Program-set swaps invalidate every per-flow verdict — a
// new subscription may want a previously rejected flow — so the control
// plane flushes the partition and raises the accepted epoch before
// publishing (requests still in flight from cores on the old program
// are dropped as stale).
package offload

import (
	"sync"

	"retina/internal/layers"
	"retina/internal/nic"
)

// Verdict is the terminal software decision that justified offloading a
// flow.
type Verdict uint8

const (
	// VerdictUnsubscribed: every subscription rejected the connection
	// after filter evaluation (the tombstone state) — its packets would
	// only ever count as conn_rejected.
	VerdictUnsubscribed Verdict = iota
	// VerdictParsedDone: the connection's sessions are parsed and
	// delivered and no subscription needs anything further (the
	// Done → DEL transition of Figure 4b).
	VerdictParsedDone
	// VerdictClosed: the connection delivered its data and terminated
	// (FIN in both directions, or RST).
	VerdictClosed

	numVerdicts
)

// String names the verdict for logs and metrics labels.
func (v Verdict) String() string {
	switch v {
	case VerdictUnsubscribed:
		return "unsubscribed"
	case VerdictParsedDone:
		return "parsed_done"
	case VerdictClosed:
		return "closed"
	}
	return "?"
}

// NumVerdicts is the number of verdict kinds (metrics registration).
const NumVerdicts = int(numVerdicts)

// Request is one core→manager offload notification, published at a
// burst boundary.
type Request struct {
	// Key is the flow's canonical five-tuple (both directions of the
	// connection map to it, matching the conntrack key and the NIC's
	// flow-partition key).
	Key layers.FiveTuple
	// Tick is the core's virtual clock when the verdict was reached.
	Tick uint64
	// Verdict is the terminal decision (ignored when Remove is set).
	Verdict Verdict
	// Remove uninstalls the flow's rule instead: the backing connection
	// was expired or pressure-evicted, and the table must stay coherent
	// with conntrack (a recreated connection gets a fresh verdict).
	Remove bool
}

// DefaultIdleTimeout is the idle-eviction horizon in virtual-time ticks
// (1 tick = 1µs): a rule with no hit for this long is uninstalled, so
// table space follows the live traffic mix.
const DefaultIdleTimeout = 5_000_000 // 5s

// Config configures a Manager.
type Config struct {
	// Dev is the device whose dynamic flow partition the manager drives.
	Dev *nic.NIC
	// MaxRules bounds the dynamic partition (the table budget). The
	// effective bound is the smaller of MaxRules and the device's
	// remaining capacity (MaxRules − installed static rules); 0 defers
	// entirely to the device capacity.
	MaxRules int
	// IdleTimeout overrides DefaultIdleTimeout (0 = default; negative
	// disables idle eviction).
	IdleTimeout int64
}

// ManagerStats snapshots the manager's accounting. The tagged fields,
// in this order, are the runtime's /status "offload" object.
type ManagerStats struct {
	// RulesLive is the current dynamic partition size; PeakRules the
	// highest size observed after any install (the budget assertion's
	// witness).
	RulesLive int `json:"rules"`
	PeakRules int `json:"peak_rules"`
	// Installed counts rules installed; Refreshed, re-submissions of an
	// already installed flow (counter kept, last-hit refreshed).
	Installed uint64 `json:"installed"`
	Refreshed uint64 `json:"-"`
	// Removed counts conntrack-coherence removals (expired or
	// pressure-evicted connections).
	Removed uint64 `json:"removed"`
	// EvictedLRU and EvictedIdle count policy evictions; Flushed counts
	// rules dropped by epoch invalidation (program swaps).
	EvictedLRU  uint64 `json:"evicted_lru"`
	EvictedIdle uint64 `json:"evicted_idle"`
	Flushed     uint64 `json:"invalidated"`
	// RejectedCapacity counts installs refused because no room could be
	// made; StaleDropped counts whole requests discarded for carrying a
	// pre-swap epoch.
	RejectedCapacity uint64 `json:"rejected_capacity"`
	StaleDropped     uint64 `json:"stale_dropped"`
	// ByVerdict breaks installs down by verdict kind.
	ByVerdict [NumVerdicts]uint64 `json:"-"`
	// Invalidations counts epoch bumps (one per program swap).
	Invalidations uint64 `json:"-"`
}

// Manager owns the dynamic flow-offload partition of one device. Cores
// submit terminal verdicts at burst boundaries; the control plane
// invalidates on program swaps. All mutations serialize on one mutex —
// installs are per-connection events (not per-packet), so contention is
// negligible.
type Manager struct {
	mu        sync.Mutex
	dev       *nic.NIC
	budget    int
	idle      int64
	minEpoch  uint64
	maxTick   uint64
	lastSweep uint64

	installed   uint64
	refreshed   uint64
	byVerdict   [NumVerdicts]uint64
	removed     uint64
	evictedLRU  uint64
	evictedIdle uint64
	flushed     uint64
	rejectedCap uint64
	stale       uint64
	invalid     uint64
	peak        int

	keyScratch []layers.FiveTuple
}

// NewManager builds a manager for the device.
func NewManager(cfg Config) *Manager {
	m := &Manager{dev: cfg.Dev, budget: cfg.MaxRules}
	switch {
	case cfg.IdleTimeout < 0:
		m.idle = 0
	case cfg.IdleTimeout == 0:
		m.idle = DefaultIdleTimeout
	default:
		m.idle = cfg.IdleTimeout
	}
	return m
}

// effLimit returns the effective rule bound: the manager budget capped
// by the device's remaining capacity. Negative means unlimited.
func (m *Manager) effLimit() int {
	lim := m.dev.FlowCapacity()
	if m.budget > 0 && (lim < 0 || m.budget < lim) {
		lim = m.budget
	}
	return lim
}

// Submit applies a batch of requests published by one core at a burst
// boundary. Requests carrying an epoch older than the last invalidation
// are dropped whole — their verdicts were reached against a retired
// program. Safe for concurrent use by all cores.
func (m *Manager) Submit(epoch uint64, reqs []Request) {
	if len(reqs) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if epoch < m.minEpoch {
		m.stale += uint64(len(reqs))
		return
	}

	var removes, installs []layers.FiveTuple
	for i := range reqs {
		r := &reqs[i]
		if r.Tick > m.maxTick {
			m.maxTick = r.Tick
		}
		if r.Remove {
			removes = append(removes, r.Key)
		} else {
			installs = append(installs, r.Key)
		}
	}
	if len(removes) > 0 {
		m.removed += uint64(m.dev.RemoveFlowRules(removes))
	}
	if len(installs) > 0 {
		m.installLocked(reqs, installs)
	}

	m.sweepIdleLocked()
}

// installLocked installs the batch within the effective bound, evicting
// least-recently-hit rules to make room.
func (m *Manager) installLocked(reqs []Request, keys []layers.FiveTuple) {
	lim := m.effLimit()
	if lim >= 0 {
		cur := m.dev.FlowRuleCount()
		if need := cur + len(keys) - lim; need > 0 {
			m.evictedLRU += uint64(m.evictOldestLocked(need, 0))
		}
		if room := lim - m.dev.FlowRuleCount(); room < len(keys) {
			if room < 0 {
				room = 0
			}
			m.rejectedCap += uint64(len(keys) - room)
			keys = keys[:room]
		}
	}
	if len(keys) == 0 {
		return
	}
	added, refreshed, rejected := m.dev.AddFlowRules(keys, m.maxTick)
	m.installed += uint64(added)
	m.refreshed += uint64(refreshed)
	m.rejectedCap += uint64(rejected)
	if added > 0 {
		// Attribute installs to verdicts in request order; truncation
		// above only ever cuts the tail.
		n := 0
		for i := range reqs {
			if reqs[i].Remove {
				continue
			}
			if n >= added+refreshed {
				break
			}
			m.byVerdict[reqs[i].Verdict]++
			n++
		}
	}
	if cur := m.dev.FlowRuleCount(); cur > m.peak {
		m.peak = cur
	}
}

// evictOldestLocked removes up to n rules, least-recently-hit first. A
// non-zero idleBefore restricts eviction to rules whose last hit is
// older than that tick (the idle sweep); 0 evicts unconditionally (the
// LRU path). Returns how many were evicted.
func (m *Manager) evictOldestLocked(n int, idleBefore uint64) int {
	if n <= 0 {
		return 0
	}
	infos := m.dev.FlowRules()
	if len(infos) == 0 {
		return 0
	}
	// Partial selection sort: n is small (the overflow amount) and the
	// table is bounded, so this stays cheap.
	if n > len(infos) {
		n = len(infos)
	}
	for i := 0; i < n; i++ {
		min := i
		for j := i + 1; j < len(infos); j++ {
			if infos[j].LastHit < infos[min].LastHit {
				min = j
			}
		}
		infos[i], infos[min] = infos[min], infos[i]
	}
	keys := m.keyScratch[:0]
	for i := 0; i < n; i++ {
		if idleBefore != 0 && infos[i].LastHit >= idleBefore {
			break
		}
		keys = append(keys, infos[i].Key)
	}
	m.keyScratch = keys[:0]
	if len(keys) == 0 {
		return 0
	}
	return m.dev.RemoveFlowRules(keys)
}

// sweepIdleLocked evicts rules with no hit for the idle horizon, at
// most once per horizon so steady-state submits stay O(batch).
func (m *Manager) sweepIdleLocked() {
	if m.idle <= 0 || m.maxTick < uint64(m.idle) {
		return
	}
	cutoff := m.maxTick - uint64(m.idle)
	if m.lastSweep != 0 && m.maxTick-m.lastSweep < uint64(m.idle) {
		return
	}
	m.lastSweep = m.maxTick
	m.evictedIdle += uint64(m.evictOldestLocked(m.dev.FlowRuleCount(), cutoff+1))
}

// SweepIdle forces an idle sweep at the given tick (end-of-run and test
// hook; the steady-state sweep rides on Submit).
func (m *Manager) SweepIdle(now uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now > m.maxTick {
		m.maxTick = now
	}
	if m.idle <= 0 || m.maxTick < uint64(m.idle) {
		return
	}
	m.lastSweep = m.maxTick
	m.evictedIdle += uint64(m.evictOldestLocked(m.dev.FlowRuleCount(), m.maxTick-uint64(m.idle)+1))
}

// Invalidate flushes every dynamic rule and raises the minimum accepted
// epoch. The control plane calls it before publishing a program swap:
// per-flow verdicts reached under the outgoing program may be wrong
// under the incoming one (a new subscription can claim a previously
// rejected flow), and verdicts still in flight from cores on the old
// program must not reinstall them.
func (m *Manager) Invalidate(minEpoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if minEpoch > m.minEpoch {
		m.minEpoch = minEpoch
	}
	m.invalid++
	m.flushed += uint64(m.dev.FlushFlowRules())
}

// Stats snapshots the manager's accounting. Safe for concurrent use.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ManagerStats{
		Installed:        m.installed,
		Refreshed:        m.refreshed,
		ByVerdict:        m.byVerdict,
		Removed:          m.removed,
		EvictedLRU:       m.evictedLRU,
		EvictedIdle:      m.evictedIdle,
		Flushed:          m.flushed,
		RejectedCapacity: m.rejectedCap,
		StaleDropped:     m.stale,
		Invalidations:    m.invalid,
		RulesLive:        m.dev.FlowRuleCount(),
		PeakRules:        m.peak,
	}
}
