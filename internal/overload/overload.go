// Package overload implements Retina's per-core overload control: a
// memory accountant with per-class byte budgets and low-watermark
// resource signals the pipeline consults before doing optional work.
//
// The design goal is graceful degradation instead of cliff-edge
// failure (cf. Sonata's query degradation under resource constraints):
// when a budget is hit the pipeline sheds the cheapest-to-lose state
// first — far-ahead out-of-order spans, pending packet buffers of
// not-yet-matched connections — and refuses further buffering rather
// than refusing packets. Every shed decision is counted through the
// telemetry drop taxonomy so the packet-conservation invariant
// (rx == delivered + Σdrops) holds under overload.
//
// Each core owns one Accountant; the owning core is the only writer,
// monitoring goroutines read the atomic gauges, so there is no locking.
package overload

import "sync/atomic"

// Class identifies one accounted buffer class.
type Class uint8

const (
	// ClassReassembly covers bytes parked in out-of-order reassembly
	// buffers (by reference — the bytes live in pool mbufs).
	ClassReassembly Class = iota
	// ClassPacketBuf covers packets buffered per connection while a
	// filter verdict is pending (packet-level subscriptions).
	ClassPacketBuf
	// ClassStreamBuf covers stream chunks copied pre-verdict for
	// byte-stream subscriptions.
	ClassStreamBuf

	// NumClasses is the number of accounted classes.
	NumClasses
)

// String names the class; the telemetry layer uses these as label
// values.
func (c Class) String() string {
	switch c {
	case ClassReassembly:
		return "reassembly"
	case ClassPacketBuf:
		return "pktbuf"
	case ClassStreamBuf:
		return "streambuf"
	}
	return "?"
}

// Classes lists all accounted classes.
func Classes() []Class {
	return []Class{ClassReassembly, ClassPacketBuf, ClassStreamBuf}
}

// Default per-core budgets. They are deliberately generous relative to
// per-connection bounds (a single connection may park at most
// MaxOutOfOrder segments) so only aggregate pressure — many connections
// buffering at once — trips them.
const (
	DefaultReassemblyBudget = 8 << 20  // 8 MiB of parked OOO bytes per core
	DefaultPacketBufBudget  = 8 << 20  // 8 MiB of pending packet buffers per core
	DefaultStreamBufBudget  = 16 << 20 // 16 MiB of pre-verdict stream copies per core

	// DefaultPoolLowWater: skip optional buffering when less than this
	// fraction of the mbuf pool remains free.
	DefaultPoolLowWater = 0.05
	// DefaultRingHighWater: skip optional buffering when the receive
	// ring is more than this fraction full (the core is falling behind).
	DefaultRingHighWater = 0.90
)

// Budget configures the accountant. For the byte budgets zero selects
// the default and a negative value disables the bound; for the
// watermarks zero selects the default and a negative value disables the
// signal.
type Budget struct {
	ReassemblyBytes int64
	PacketBufBytes  int64
	StreamBufBytes  int64
	PoolLowWater    float64
	RingHighWater   float64
}

// unlimited marks a disabled byte bound.
const unlimited = int64(1) << 62

// Accountant tracks bytes held per class against the configured
// budgets. The owning core is the single writer; Used/Limit are safe to
// read from monitoring goroutines.
type Accountant struct {
	limits [NumClasses]int64
	used   [NumClasses]atomic.Int64

	poolLowWater  float64
	ringHighWater float64
	pool          func() (free, total int)
	ring          func() (used, capacity int)
}

// NewAccountant builds an accountant from a budget, applying defaults
// for zero values and disabling bounds for negative ones.
func NewAccountant(b Budget) *Accountant {
	a := &Accountant{}
	norm := func(v, def int64) int64 {
		switch {
		case v < 0:
			return unlimited
		case v == 0:
			return def
		default:
			return v
		}
	}
	a.limits[ClassReassembly] = norm(b.ReassemblyBytes, DefaultReassemblyBudget)
	a.limits[ClassPacketBuf] = norm(b.PacketBufBytes, DefaultPacketBufBudget)
	a.limits[ClassStreamBuf] = norm(b.StreamBufBytes, DefaultStreamBufBudget)
	normF := func(v, def float64) float64 {
		switch {
		case v < 0:
			return 0 // disabled
		case v == 0:
			return def
		default:
			return v
		}
	}
	a.poolLowWater = normF(b.PoolLowWater, DefaultPoolLowWater)
	a.ringHighWater = normF(b.RingHighWater, DefaultRingHighWater)
	return a
}

// SetPoolSignal installs the mbuf-pool occupancy probe. Must be set
// before processing starts.
func (a *Accountant) SetPoolSignal(fn func() (free, total int)) { a.pool = fn }

// SetRingSignal installs the receive-ring occupancy probe. Must be set
// before processing starts.
func (a *Accountant) SetRingSignal(fn func() (used, capacity int)) { a.ring = fn }

// TryReserve reserves n bytes in class c if the budget allows,
// reporting success. Only the owning core calls it.
func (a *Accountant) TryReserve(c Class, n int) bool {
	if a == nil {
		return true
	}
	if a.used[c].Load()+int64(n) > a.limits[c] {
		return false
	}
	a.used[c].Add(int64(n))
	return true
}

// ForceReserve reserves n bytes in class c unconditionally. Connection
// migration uses it on the import side: the bytes were already
// reserved (and released) on the exporting core, so the state exists
// regardless — refusing would strand buffers with no reservation to
// release against. The class may transiently exceed its budget; the
// next TryReserve on this core sees the overshoot and sheds normally.
func (a *Accountant) ForceReserve(c Class, n int) {
	if a == nil {
		return
	}
	a.used[c].Add(int64(n))
}

// Release returns n bytes to class c. Releasing more than was reserved
// indicates an accounting bug; the gauge would go negative, which the
// conntrack-style invariant checks in tests catch.
func (a *Accountant) Release(c Class, n int) {
	if a == nil {
		return
	}
	a.used[c].Add(-int64(n))
}

// Used reports bytes currently reserved in class c. Safe to call from
// monitoring goroutines.
func (a *Accountant) Used(c Class) int64 {
	if a == nil {
		return 0
	}
	return a.used[c].Load()
}

// Limit reports class c's byte budget (a very large value when the
// bound is disabled).
func (a *Accountant) Limit(c Class) int64 {
	if a == nil {
		return unlimited
	}
	return a.limits[c]
}

// TotalUsed sums reserved bytes across all classes.
func (a *Accountant) TotalUsed() int64 {
	if a == nil {
		return 0
	}
	var t int64
	for c := Class(0); c < NumClasses; c++ {
		t += a.used[c].Load()
	}
	return t
}

// LowResources reports whether the core should skip optional work
// (buffering, eager parsing): the mbuf pool is below its low watermark
// or the receive ring is above its high watermark. Either signal alone
// triggers; both are advisory (unset probes never trigger).
func (a *Accountant) LowResources() bool {
	if a == nil {
		return false
	}
	if a.pool != nil && a.poolLowWater > 0 {
		free, total := a.pool()
		if total > 0 && float64(free) < a.poolLowWater*float64(total) {
			return true
		}
	}
	if a.ring != nil && a.ringHighWater > 0 {
		used, capacity := a.ring()
		if capacity > 0 && float64(used) > a.ringHighWater*float64(capacity) {
			return true
		}
	}
	return false
}

// CheckInvariants verifies no class gauge has gone negative (a Release
// without a matching Reserve). Cheap enough for tests to call after
// every operation.
func (a *Accountant) CheckInvariants() error {
	for c := Class(0); c < NumClasses; c++ {
		if v := a.used[c].Load(); v < 0 {
			return errNegative{class: c, v: v}
		}
	}
	return nil
}

type errNegative struct {
	class Class
	v     int64
}

func (e errNegative) Error() string {
	return "overload: class " + e.class.String() + " gauge is negative (unbalanced release)"
}
