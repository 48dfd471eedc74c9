package core

import (
	"fmt"
	"sync/atomic"

	"retina/internal/aggregate"
	"retina/internal/filter"
	"retina/internal/proto"
	"retina/internal/telemetry"
)

// SubSpec is one live subscription as the datapath sees it: the user's
// callback bundle plus its independently compiled filter program. Specs
// are created by the control plane, are immutable once published (only
// the embedded counters mutate), and keep their identity across program
// swaps — per-connection state holds *SubSpec pointers, so a retained
// subscription keeps matching across epochs and a removed one can still
// deliver its final callbacks while draining.
type SubSpec struct {
	// ID is the stable subscription identity (never reused within a
	// runtime). Name is the operator-facing label.
	ID   int
	Name string
	// Filter is the subscription's filter source (diagnostics).
	Filter string
	// Sub is the callback bundle.
	Sub *Subscription
	// Prog is the subscription's compiled filter.
	Prog *filter.Program
	// NeedsConn caches Prog.NeedsConnTracking().
	NeedsConn bool

	// Draining is set when the subscription has been removed from the
	// live set: connections that already matched deliver their final
	// callbacks, new connections never attach.
	Draining atomic.Bool

	// Delivered counts callback invocations for this subscription across
	// all cores (the per-subscription match counter).
	Delivered telemetry.Counter
	// MatchedConns counts connections that fully matched this
	// subscription's filter.
	MatchedConns telemetry.Counter
	// LiveConns tracks connections currently holding a match for this
	// subscription — the drain-progress signal (a draining subscription
	// is fully retired once this reaches zero).
	LiveConns atomic.Int64

	// Agg is the subscription's compiled aggregation query, or nil. The
	// instance (and its merged window state) is carried from spec to spec
	// across epoch swaps by the control plane, so republishing programs
	// never resets accumulators.
	Agg *aggregate.Instance
}

// wantsParsing reports whether the subscription needs application-layer
// sessions parsed once its filter has matched.
func (sp *SubSpec) wantsParsing() bool {
	return sp.Sub.Level == LevelSession || len(sp.Sub.SessionProtos) > 0
}

// ProgramSet is the epoch-stamped unit of atomic program swap: the slot
// table of live subscriptions, the merged multi-subscription filter
// built from it, and the parser configuration the cores need to serve
// it. The control plane publishes a new immutable ProgramSet per
// reconfiguration; each core picks it up at a burst boundary and acks
// the epoch.
type ProgramSet struct {
	Epoch uint64
	// Slots is the slot-indexed live subscription table (nil = free).
	Slots []*SubSpec
	// Multi is the merged filter program over Slots.
	Multi *filter.MultiProgram
	// ParserNames is the union of every slot's connection protocols and
	// data-type protocols, in slot order (probe order follows registry
	// order, so it must stay deterministic and must match the historical
	// single-subscription order exactly). Cores rebuild their parser
	// registry when this changes across a swap.
	ParserNames []string
	// ExtraParsers carries user protocol-module factories (fixed for the
	// runtime's lifetime).
	ExtraParsers map[string]proto.Factory

	// fastSlots has bit i set when slot i can take the stateless fast
	// path (packet-level subscription with no session protocols).
	fastSlots uint64
	// aggPkt has bit i set when slot i carries a packet-stage
	// aggregation: the burst loop updates its sketches directly from the
	// filter result, below conntrack (the Sonata push-down).
	aggPkt uint64
	// pktSlots has bit i set when slot i is a packet-level subscription;
	// hasStream reports whether any slot subscribes at stream level
	// (gates for the per-packet dispatch loops).
	pktSlots  uint64
	hasStream bool
}

// NewProgramSet validates the slots and builds the merged program.
func NewProgramSet(epoch uint64, slots []*SubSpec, extraParsers map[string]proto.Factory) (*ProgramSet, error) {
	fslots := make([]*filter.SubProgram, len(slots))
	ps := &ProgramSet{Epoch: epoch, Slots: slots, ExtraParsers: extraParsers}
	seen := map[string]bool{}
	for i, sp := range slots {
		if sp == nil {
			continue
		}
		if sp.Sub == nil || sp.Prog == nil {
			return nil, fmt.Errorf("core: subscription %d (%s) missing callback or program", sp.ID, sp.Name)
		}
		if err := sp.Sub.Validate(); err != nil {
			return nil, err
		}
		fslots[i] = &filter.SubProgram{ID: sp.ID, Name: sp.Name, Prog: sp.Prog}
		for _, n := range sp.Prog.ConnProtocols() {
			if !seen[n] {
				seen[n] = true
				ps.ParserNames = append(ps.ParserNames, n)
			}
		}
		for _, n := range sp.Sub.SessionProtos {
			if !seen[n] {
				seen[n] = true
				ps.ParserNames = append(ps.ParserNames, n)
			}
		}
		switch sp.Sub.Level {
		case LevelPacket:
			ps.pktSlots |= 1 << uint(i)
			if len(sp.Sub.SessionProtos) == 0 {
				ps.fastSlots |= 1 << uint(i)
			}
		case LevelStream:
			ps.hasStream = true
		}
		if sp.Agg != nil && sp.Agg.Q.Stage == aggregate.StagePacket {
			ps.aggPkt |= 1 << uint(i)
		}
	}
	multi, err := filter.NewMultiProgram(epoch, fslots)
	if err != nil {
		return nil, err
	}
	ps.Multi = multi
	return ps, nil
}

// Live returns the number of occupied slots.
func (ps *ProgramSet) Live() int { return ps.Multi.Live() }

// sameParsers reports whether two sets need identical parser registries.
func sameParsers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
