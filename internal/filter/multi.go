package filter

import (
	"fmt"

	"retina/internal/layers"
)

// MaxSubscriptions bounds the live subscription slots of one
// MultiProgram: slot matches are reported through a uint64 bitmask.
const MaxSubscriptions = 64

// SubProgram is one subscription's independently compiled filter inside
// a MultiProgram slot. ID is the subscription's stable identity (never
// reused for the lifetime of a runtime); the slot index is transient and
// may be recycled after the subscription is removed and drained.
type SubProgram struct {
	ID   int
	Name string
	Prog *Program
}

// MultiResult is the outcome of evaluating every slot's packet filter on
// one packet: a per-slot match bitmask plus the slot-indexed Results.
// The packet/connection/session stages run once per packet and use the
// mask to dispatch to every matching subscription.
type MultiResult struct {
	// Mask has bit i set when slot i's packet filter matched.
	Mask uint64
	// Res is slot-indexed; Res[i] is meaningful only when bit i of Mask
	// is set. The slice is the caller's PacketInto destination.
	Res []Result
}

// MultiProgram merges N independently compiled subscription programs
// into one multi-subscription filter (the control plane's unit of
// atomic swap). Each slot keeps its own trie and sub-filters — node IDs
// are meaningful only within a slot — and the merged hardware rule set
// is the minimized union of every slot's rules, so hardware coverage is
// always at least as broad as each subscription's own filter.
type MultiProgram struct {
	// Epoch is the control-plane epoch this program was built for; cores
	// ack it after picking the program up at a burst boundary.
	Epoch uint64
	// Slots holds the subscription programs; nil entries are free slots
	// (removed subscriptions whose index has not been reused yet).
	Slots []*SubProgram
	// Rules is the merged hardware rule set (nil when compiled without a
	// hardware capability).
	Rules []FlowRule
}

// NewMultiProgram merges slots into one program. Slots beyond
// MaxSubscriptions are rejected; nil entries are allowed and skipped.
func NewMultiProgram(epoch uint64, slots []*SubProgram) (*MultiProgram, error) {
	if len(slots) > MaxSubscriptions {
		return nil, fmt.Errorf("filter: %d subscription slots exceed the %d-slot bitmask", len(slots), MaxSubscriptions)
	}
	mp := &MultiProgram{Epoch: epoch, Slots: slots}
	var sets [][]FlowRule
	for _, s := range slots {
		if s == nil {
			continue
		}
		if s.Prog == nil {
			return nil, fmt.Errorf("filter: subscription %d (%s) has no compiled program", s.ID, s.Name)
		}
		if s.Prog.Rules != nil {
			sets = append(sets, s.Prog.Rules)
		}
	}
	if len(sets) > 0 {
		mp.Rules = MergeFlowRules(sets...)
	}
	return mp, nil
}

// PacketInto evaluates every slot's software packet filter against one
// decoded packet, reusing the caller's scratch. dst must be len(Slots)
// long and receives the slot-indexed results; Res[i].Sub carries the
// slot's subscription ID so downstream stages can attribute matches even
// after the slot index has been recycled. The burst datapath keeps one
// Result row per packet of the batch alive at once (a shared row would
// be overwritten by the next packet). Returns the match bitmask.
func (mp *MultiProgram) PacketInto(p *layers.Parsed, s *PacketScratch, dst []Result) uint64 {
	var mask uint64
	for i, slot := range mp.Slots {
		r := &dst[i]
		if slot == nil {
			*r = NoMatch
			continue
		}
		slot.Prog.packet.evalInto(p, s, r)
		// Branch-free: whether a slot matches varies packet by packet.
		var hit int
		if r.Match {
			hit = 1
		}
		r.Sub = slot.ID * hit
		mask |= uint64(hit) << uint(i)
	}
	return mask
}

// Live returns the number of occupied slots.
func (mp *MultiProgram) Live() int {
	n := 0
	for _, s := range mp.Slots {
		if s != nil {
			n++
		}
	}
	return n
}

// ConnProtocols returns the union of every slot's connection-layer
// protocols (the parsers the runtime must be able to probe).
func (mp *MultiProgram) ConnProtocols() []string {
	var names []string
	seen := map[string]bool{}
	for _, s := range mp.Slots {
		if s == nil {
			continue
		}
		for _, n := range s.Prog.ConnProtocols() {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return names
}

// MergeFlowRules unions several subscriptions' hardware rule sets and
// minimizes the result (duplicate and subsumed rules dropped, catch-all
// collapse). The merged set matches a packet iff at least one input set
// does, so merging never narrows hardware coverage.
func MergeFlowRules(sets ...[]FlowRule) []FlowRule {
	var all []FlowRule
	for _, s := range sets {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return nil
	}
	return minimizeRules(all)
}
