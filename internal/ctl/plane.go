// Package ctl is the control plane for live multi-subscription
// management: it owns the set of (filter, callback) subscriptions a
// running Retina instance serves, compiles each subscription's filter
// independently, merges them into one epoch-stamped program set, and
// hot-swaps that set across all cores via RCU — cores pick the new set
// up at a burst boundary and ack the epoch; the plane retires the old
// set (and its hardware rules) only after every core has acked, so no
// packet is ever evaluated against a half-updated configuration.
//
// Hardware rule reconcile is install-before-remove: the plane grows the
// NIC table to the union of the outgoing and incoming rule sets before
// publishing the new program, and shrinks it to exactly the new set
// only after the acks — hardware coverage never narrows while any core
// still runs the old program (see DESIGN.md §12).
package ctl

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"retina/internal/aggregate"
	"retina/internal/core"
	"retina/internal/filter"
	"retina/internal/nic"
	"retina/internal/proto"
)

// DefaultSwapTimeout bounds how long Add/Remove wait for every core to
// ack a published epoch before giving up on retiring the old program's
// hardware rules (the swap itself still completes; the union rule set —
// a superset of what is needed — simply stays installed).
const DefaultSwapTimeout = 2 * time.Second

// Options configures a Plane.
type Options struct {
	// Slots is the initial subscription table (nil entries allowed).
	// Specs are created with NewSpec.
	Slots []*core.SubSpec
	// Engine selects the filter execution engine for subscription
	// compiles.
	Engine filter.Engine
	// HW enables hardware rule generation for subscription filters (nil
	// = software filtering only).
	HW filter.Capability
	// Registry resolves filter-language identifiers (user protocol
	// modules); nil selects the default registry.
	Registry *filter.Registry
	// ExtraParsers carries user protocol-module parser factories.
	ExtraParsers map[string]proto.Factory
	// SwapTimeout overrides DefaultSwapTimeout (0 = default).
	SwapTimeout time.Duration
	// AggConnGrace is the conntrack inactivity timeout in ticks, used as
	// the window grace for connection-stage aggregations (a connection
	// record arrives at most this long after its last packet). Zero
	// selects the aggregate package default.
	AggConnGrace uint64
	// Logf receives operator-facing control-plane warnings (hardware
	// reconcile failures); nil selects log.Printf.
	Logf func(format string, args ...any)
}

// FlowOffload is the face of the dynamic flow-offload manager the plane
// coordinates program swaps with. Per-flow verdicts reached under the
// outgoing program may be wrong under the incoming one, so the plane
// invalidates the dynamic partition — flush every flow rule and raise
// the minimum accepted request epoch — before it touches the static
// rules or publishes the set. *offload.Manager implements it.
type FlowOffload interface {
	Invalidate(minEpoch uint64)
}

// SubInfo is one subscription's operator-facing state.
type SubInfo struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Filter   string `json:"filter"`
	Level    string `json:"level"`
	Draining bool   `json:"draining"`
	// Delivered counts callback invocations; MatchedConns connections
	// that fully matched; LiveConns connections currently holding a
	// match (drain progress: a draining subscription retires at zero).
	Delivered    uint64 `json:"delivered"`
	MatchedConns uint64 `json:"matched_conns"`
	LiveConns    int64  `json:"live_conns"`
	// Aggregate renders the subscription's compiled aggregation query
	// ("" when none), e.g. "topk(src_ip) k=5 window=1s stage=packet".
	Aggregate string `json:"aggregate,omitempty"`
}

// Plane manages the live subscription set for a fleet of cores. All
// mutating operations serialize on one mutex; reads of the current
// program set are lock-free for the cores (they load an atomic pointer
// published per epoch).
type Plane struct {
	mu     sync.Mutex
	cores  []*core.Core
	dev    *nic.NIC
	opts   Options
	nextID int
	epoch  uint64

	// slots is the live table (nil = free slot); draining holds removed
	// subscriptions still owing final callbacks.
	slots    []*core.SubSpec
	byName   map[string]*core.SubSpec
	draining []*core.SubSpec

	current *core.ProgramSet

	// started gates ack-waiting: before the cores consume (Runtime.Run),
	// publishes apply without waiting — cores pick the set up at their
	// first burst.
	started atomic.Bool
	swaps   atomic.Uint64
	timeout time.Duration

	// offload, when set, is invalidated before every publish (per-flow
	// verdicts do not survive a program change).
	offload FlowOffload

	// reconcileErrs counts hardware reconcile failures (grow or shrink);
	// lastReconcileErr (under mu) keeps the most recent one for the
	// admin status API. Failures are logged once per swap transition.
	reconcileErrs    atomic.Uint64
	lastReconcileErr string
	// loggedErrEpoch is the last epoch a reconcile warning was logged
	// for: when both the grow and the shrink of one transition fail
	// (same oversized set), the operator still sees one line.
	loggedErrEpoch uint64

	// migMu serializes bucket migrations (MoveBucket) separately from mu
	// so program-set swaps genuinely race moves — the fenced destination
	// core keeps acking epochs from its migration wait loop.
	migMu         sync.Mutex
	movesTotal    atomic.Uint64
	connsMigrated atomic.Uint64
	lastMoveErr   atomic.Pointer[string]
}

// NewSpec compiles one subscription's filter, and its optional
// aggregation clause, into a SubSpec the plane can slot. The query is
// compiled against the subscription's filter and level, which decides
// its push-down stage (aggregate.Compile). The ID is assigned at Add
// time.
func NewSpec(name, filterSrc string, sub *core.Subscription, agg *aggregate.Spec, opts Options) (*core.SubSpec, error) {
	if sub == nil {
		return nil, fmt.Errorf("ctl: subscription %q has no callbacks", name)
	}
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	prog, err := filter.Compile(filterSrc, filter.Options{
		Engine:   opts.Engine,
		HW:       opts.HW,
		Registry: opts.Registry,
	})
	if err != nil {
		return nil, fmt.Errorf("ctl: compiling filter for %q: %w", name, err)
	}
	spec := &core.SubSpec{
		Name:      name,
		Filter:    filterSrc,
		Sub:       sub,
		Prog:      prog,
		NeedsConn: prog.NeedsConnTracking(),
	}
	if agg == nil {
		return spec, nil
	}
	env := aggregate.Env{
		Source:          sourceOf(sub.Level),
		PacketDecidable: !spec.NeedsConn,
		ConnGraceTicks:  opts.AggConnGrace,
	}
	if opts.HW != nil {
		env.NICExact = filter.HWExact(spec.Prog.Trie, opts.HW)
	}
	inst, err := aggregate.Compile(name, agg, env)
	if err != nil {
		return nil, err
	}
	spec.Agg = inst
	return spec, nil
}

// sourceOf maps a subscription level to the aggregation event source.
func sourceOf(l core.Level) aggregate.Source {
	switch l {
	case core.LevelPacket:
		return aggregate.SourcePacket
	case core.LevelConnection:
		return aggregate.SourceConn
	case core.LevelSession:
		return aggregate.SourceSession
	}
	return aggregate.SourceStream
}

// New builds a plane and its epoch-0 program set from the initial slots.
// Cores are attached afterwards (they need the initial set to be
// constructed): build the plane, create each core with Set:
// plane.Current(), then AttachCores.
func New(opts Options) (*Plane, error) {
	p := &Plane{
		opts:    opts,
		byName:  map[string]*core.SubSpec{},
		timeout: opts.SwapTimeout,
	}
	if p.timeout <= 0 {
		p.timeout = DefaultSwapTimeout
	}
	p.slots = append(p.slots, opts.Slots...)
	for _, sp := range p.slots {
		if sp == nil {
			continue
		}
		if p.byName[sp.Name] != nil {
			return nil, fmt.Errorf("ctl: duplicate subscription name %q", sp.Name)
		}
		sp.ID = p.nextID
		p.nextID++
		p.byName[sp.Name] = sp
	}
	ps, err := core.NewProgramSet(0, append([]*core.SubSpec(nil), p.slots...), opts.ExtraParsers)
	if err != nil {
		return nil, err
	}
	p.current = ps
	return p, nil
}

// AttachCores hands the plane the cores (and optionally the device) it
// publishes to. Must be called once, before any Add/Remove. The device
// is used for waking idle cores on every publish; its rule table is
// reconciled only when the plane was built with a hardware capability
// (Options.HW).
func (p *Plane) AttachCores(cores []*core.Core, dev *nic.NIC) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cores = cores
	p.dev = dev
}

// reconcileHW reports whether hardware rule reconcile applies.
func (p *Plane) reconcileHW() bool { return p.dev != nil && p.opts.HW != nil }

// Start marks the cores as consuming: from now on publishes wait for
// epoch acks. Called by the runtime when its core goroutines spawn.
func (p *Plane) Start() { p.started.Store(true) }

// Stop marks the cores as no longer consuming (end of run): publishes
// stop waiting for acks. Safe to call multiple times.
func (p *Plane) Stop() { p.started.Store(false) }

// Current returns the live program set (the set cores converge to).
func (p *Plane) Current() *core.ProgramSet {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.current
}

// Epoch returns the most recently published epoch.
func (p *Plane) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// Swaps returns how many program swaps the plane has published.
func (p *Plane) Swaps() uint64 { return p.swaps.Load() }

// Add compiles the subscription's filter and publishes a program set
// that includes it. New connections begin matching the subscription as
// soon as their core picks up the epoch; connections already past their
// identification point when the subscription attaches are best-effort
// (decidable only from packet-terminal marks or an identified service).
// agg, when non-nil, is an aggregation clause compiled against the
// subscription (see NewSpec).
func (p *Plane) Add(name, filterSrc string, sub *core.Subscription, agg *aggregate.Spec) (SubInfo, error) {
	spec, err := NewSpec(name, filterSrc, sub, agg, p.opts)
	if err != nil {
		return SubInfo{}, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.byName[name] != nil {
		return SubInfo{}, fmt.Errorf("ctl: subscription %q already exists", name)
	}
	spec.ID = p.nextID
	p.nextID++

	slots := append([]*core.SubSpec(nil), p.slots...)
	slot := -1
	for i, s := range slots {
		if s == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		slots = append(slots, spec)
	} else {
		slots[slot] = spec
	}
	ps, err := core.NewProgramSet(p.epoch+1, slots, p.opts.ExtraParsers)
	if err != nil {
		return SubInfo{}, err
	}
	// publish can only fail on an ack timeout, after the set is already
	// pushed to the cores — commit the bookkeeping either way (the cores
	// converge to the published set) and surface the timeout.
	pubErr := p.publish(ps)
	p.slots = slots
	p.byName[name] = spec
	return p.infoLocked(spec), pubErr
}

// Remove drains a subscription: its slot is freed in the next program
// set — new connections never match it again — while connections that
// already matched keep their per-connection drain entry and deliver
// their final callback at termination. The SubSpec (and its counters)
// remain observable through List until every core has moved past it and
// its live-connection count reaches zero.
func (p *Plane) Remove(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	spec := p.byName[name]
	if spec == nil {
		return fmt.Errorf("ctl: no subscription %q", name)
	}
	slots := append([]*core.SubSpec(nil), p.slots...)
	for i, s := range slots {
		if s == spec {
			slots[i] = nil
		}
	}
	ps, err := core.NewProgramSet(p.epoch+1, slots, p.opts.ExtraParsers)
	if err != nil {
		return err
	}
	spec.Draining.Store(true)
	// As in Add: once published the cores converge to the new set, so
	// the removal is committed even when the ack wait times out.
	pubErr := p.publish(ps)
	p.slots = slots
	delete(p.byName, name)
	p.draining = append(p.draining, spec)
	p.pruneDrainingLocked()
	return pubErr
}

// Spec returns the live (or still-draining) SubSpec with the given name,
// nil if unknown. The runtime uses it to wire per-subscription metrics.
func (p *Plane) Spec(name string) *core.SubSpec {
	p.mu.Lock()
	defer p.mu.Unlock()
	if sp := p.byName[name]; sp != nil {
		return sp
	}
	for _, sp := range p.draining {
		if sp.Name == name {
			return sp
		}
	}
	return nil
}

// List reports every live subscription plus removed ones still owing
// final callbacks (draining), in stable ID order.
func (p *Plane) List() []SubInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pruneDrainingLocked()
	out := []SubInfo{}
	for _, sp := range p.slots {
		if sp != nil {
			out = append(out, p.infoLocked(sp))
		}
	}
	for _, sp := range p.draining {
		out = append(out, p.infoLocked(sp))
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (p *Plane) infoLocked(sp *core.SubSpec) SubInfo {
	info := SubInfo{
		ID:           sp.ID,
		Name:         sp.Name,
		Filter:       sp.Filter,
		Level:        sp.Sub.Level.String(),
		Draining:     sp.Draining.Load(),
		Delivered:    sp.Delivered.Value(),
		MatchedConns: sp.MatchedConns.Value(),
		LiveConns:    sp.LiveConns.Load(),
	}
	if sp.Agg != nil {
		info.Aggregate = sp.Agg.Q.String()
	}
	return info
}

// pruneDrainingLocked retires drained subscriptions: removed, no
// connection still holds a match, and every core past the removal epoch.
func (p *Plane) pruneDrainingLocked() {
	kept := p.draining[:0]
	for _, sp := range p.draining {
		if sp.LiveConns.Load() > 0 || !p.ackedLocked(p.epoch) {
			kept = append(kept, sp)
		}
	}
	p.draining = kept
}

func (p *Plane) ackedLocked(epoch uint64) bool {
	for _, c := range p.cores {
		if c.AckedEpoch() < epoch {
			return false
		}
	}
	return true
}

// publish pushes a new program set through the full swap protocol:
// grow hardware coverage to the union, publish to every core, wait for
// epoch acks (when the cores are consuming), then shrink hardware to
// exactly the new set. Called with p.mu held.
func (p *Plane) publish(ps *core.ProgramSet) error {
	// (0) Invalidate the dynamic flow-offload partition before anything
	// else: per-flow drop rules encode verdicts against the outgoing
	// program (a new subscription may claim a previously rejected flow),
	// and raising the accepted epoch first guarantees verdicts still in
	// flight from cores on the old program cannot reinstall them.
	if p.offload != nil {
		p.offload.Invalidate(ps.Epoch)
	}

	// (1) Hardware grow: install-before-remove. A grow failure falls
	// back to pass-everything inside the NIC — software filters enforce
	// correctness — and is not fatal to the swap, but it is not silent
	// either: the operator sees a counter, the last error, and one log
	// line per transition.
	if p.reconcileHW() {
		if err := p.dev.ReconcileGrow(p.currentRulesLocked(), ps.Multi.Rules); err != nil {
			p.noteReconcileErrLocked("grow", ps.Epoch, err)
		}
	}

	// (2) RCU publish: one atomic store per core, then wake idle cores
	// so they reach a burst boundary and ack.
	for _, c := range p.cores {
		c.SetProgramSet(ps)
	}
	if p.dev != nil {
		p.dev.PokeAll()
	}
	p.epoch = ps.Epoch
	p.current = ps
	p.swaps.Add(1)

	// (3) Wait for every core to ack before retiring the old program's
	// rules. Before Start (or after Stop) cores are not consuming — no
	// packet is in flight against the old program, so the swap is
	// trivially complete and the cores pick the set up at their first
	// burst.
	acked := true
	if p.started.Load() {
		acked = p.waitEpoch(ps.Epoch)
	}

	// (4) Hardware shrink to exactly the new set — only once no core can
	// still be serving the old program. On an ack timeout the union
	// rules (a safe superset) stay installed until the next reconcile; a
	// shrink failure leaves the device in pass-everything — software
	// filtering keeps the datapath correct — so neither narrows coverage.
	if p.reconcileHW() && acked {
		if err := p.dev.ReconcileShrink(ps.Multi.Rules); err != nil {
			p.noteReconcileErrLocked("shrink", ps.Epoch, err)
		}
	}
	if !acked {
		return fmt.Errorf("ctl: epoch %d not acked by all cores within %v", ps.Epoch, p.timeout)
	}
	return nil
}

// noteReconcileErrLocked records a hardware reconcile failure: bump the
// counter, remember the error for the admin status API, and log one
// line for this swap transition. Called with p.mu held.
func (p *Plane) noteReconcileErrLocked(op string, epoch uint64, err error) {
	p.reconcileErrs.Add(1)
	p.lastReconcileErr = fmt.Sprintf("epoch %d %s: %v", epoch, op, err)
	if p.loggedErrEpoch == epoch {
		return
	}
	p.loggedErrEpoch = epoch
	logf := p.opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	logf("ctl: hardware reconcile %s failed at epoch %d (device falls back to pass-everything; software filters keep the datapath correct): %v", op, epoch, err)
}

// SetOffload attaches the dynamic flow-offload manager the plane must
// invalidate before each program swap. Call before Start.
func (p *Plane) SetOffload(fo FlowOffload) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.offload = fo
}

// ReconcileErrors reports how many hardware reconcile operations (grow
// or shrink) have failed across all swaps. Lock-free.
func (p *Plane) ReconcileErrors() uint64 { return p.reconcileErrs.Load() }

// LastReconcileError returns the most recent reconcile failure ("" when
// none has occurred) for the admin status API.
func (p *Plane) LastReconcileError() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastReconcileErr
}

// currentRulesLocked returns the outgoing program's hardware rules.
func (p *Plane) currentRulesLocked() []filter.FlowRule {
	if p.current == nil {
		return nil
	}
	return p.current.Multi.Rules
}

// waitEpoch polls the cores' acked epochs until all reach epoch or the
// timeout lapses, poking the rings so idle cores wake up to ack.
func (p *Plane) waitEpoch(epoch uint64) bool {
	deadline := time.Now().Add(p.timeout)
	for {
		if p.ackedLocked(epoch) {
			return true
		}
		if time.Now().After(deadline) {
			return p.ackedLocked(epoch)
		}
		if p.dev != nil {
			p.dev.PokeAll()
		}
		time.Sleep(50 * time.Microsecond)
	}
}
