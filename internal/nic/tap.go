package nic

import (
	"fmt"

	"retina/internal/filter"
	"retina/internal/layers"
)

// Aggregation taps model the NIC's flow-counter stage: a Sonata-style
// push-down places a count/sum query directly at the wire, where the
// device already parses headers for rule matching. A tap sees every
// frame its rules admit — including frames a dynamic offload rule or
// the RSS sink would discard before any core runs — which is exactly
// the semantics of a hardware flow counter and the reason NIC-stage
// results can exceed what software stages observe for overloaded runs.
//
// Taps are only installed for filters the capability model can express
// exactly (filter.HWExact), so the tap's rule set IS the subscription
// predicate, not a widening of it.

// aggTap is one installed counter: rules compiled like static flow
// rules, and a callback fed (wire length, tick) per matching frame from
// the producer goroutine.
type aggTap struct {
	id    int
	rules []*compiledRule
	fn    func(wire int, tick uint64)
}

// tapTable is one immutable generation of installed taps; the producer
// reads it lock-free, mutations copy-on-write under ruleMu.
type tapTable struct {
	taps []*aggTap
}

var emptyTapTable = &tapTable{}

// tapsOf returns the current tap table, treating the never-stored nil
// pointer as empty.
func (n *NIC) tapsOf() *tapTable {
	if t := n.taps.Load(); t != nil {
		return t
	}
	return emptyTapTable
}

// AddAggTap installs an aggregation tap matching the given rule set
// (an OR of predicate conjunctions, as produced by
// filter.GenerateFlowRules). Returns a handle for RemoveAggTap. The
// callback runs on the producer goroutine, once per matching frame.
func (n *NIC) AddAggTap(rules []filter.FlowRule, fn func(wire int, tick uint64)) (int, error) {
	if fn == nil {
		return 0, fmt.Errorf("nic: nil tap callback")
	}
	compiled, err := n.compileRules(rules)
	if err != nil {
		return 0, err
	}
	n.ruleMu.Lock()
	defer n.ruleMu.Unlock()
	id := int(n.tapSeq.Add(1))
	old := n.tapsOf()
	next := &tapTable{taps: make([]*aggTap, 0, len(old.taps)+1)}
	next.taps = append(next.taps, old.taps...)
	next.taps = append(next.taps, &aggTap{id: id, rules: compiled, fn: fn})
	n.taps.Store(next)
	return id, nil
}

// RemoveAggTap uninstalls a tap by handle. Frames already in flight on
// the producer may still hit the tap once after return.
func (n *NIC) RemoveAggTap(id int) {
	n.ruleMu.Lock()
	defer n.ruleMu.Unlock()
	old := n.tapsOf()
	next := &tapTable{taps: make([]*aggTap, 0, len(old.taps))}
	for _, t := range old.taps {
		if t.id != id {
			next.taps = append(next.taps, t)
		}
	}
	n.taps.Store(next)
}

// runTaps feeds the parsed frame to every matching tap. Called by the
// producer right after the hardware parse, ahead of offload and static
// rule matching — a counter stage sits before the drop stages.
func (n *NIC) runTaps(tt *tapTable, p *layers.Parsed, wire int, tick uint64) {
	for _, t := range tt.taps {
		// An empty rule set is the catch-all: it counts every frame.
		if len(t.rules) == 0 || matchRules(t.rules, p) {
			t.fn(wire, tick)
		}
	}
}
