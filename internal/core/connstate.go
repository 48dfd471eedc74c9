package core

import (
	"retina/internal/conntrack"
	"retina/internal/filter"
	"retina/internal/overload"
	"retina/internal/proto"
	"retina/internal/reassembly"
	"retina/internal/telemetry"
)

// Connection state lifecycle (DESIGN.md §18). Every tracked connection
// owns one connState for as long as it is in the table. States come from
// per-core chunks and are recycled, so a connection costs no heap
// allocation in steady state:
//
//   - newState pops the core's free list, carving a new chunk when it is
//     empty. Chunks grow geometrically from a small first chunk, so a
//     run with a dozen connections does not pay for hundreds of states.
//   - finishConn clears conn.UserData and queues the state on the core's
//     release list. Clearing UserData is what keeps stale references
//     out: a shed-queue entry whose Conn slot was not reused still
//     carries the old connection ID, and must now resolve to no state
//     rather than to a state another connection owns.
//   - recycleStates, run at the end of ProcessBurst, AdvanceTime and
//     Flush, resets the queued states and pushes them on the free list.
//     It waits for the burst boundary because the tail of the packet
//     that removed the connection still reads the state.
//
// A migrated connection's state travels with it and is freed by
// whichever core finishes it; free lists hold pointers, so a state may
// end on another core's list than the chunk it came from.

// Slab chunk sizes, in states: the first chunk is small, each next one
// doubles, up to stateChunkMax.
const (
	stateChunkMin = 2
	stateChunkMax = 1024
)

// nodeSet is a small set of filter node IDs. A connection almost always
// matches one or two trie branches, so two IDs live inline and only the
// rest spill to the heap. Copying a nodeSet hands its contents to the
// copy; the original must not be used afterwards.
type nodeSet struct {
	n      int
	inline [2]int
	spill  []int
}

func (ns *nodeSet) len() int { return ns.n }

func (ns *nodeSet) at(i int) int {
	if i < len(ns.inline) {
		return ns.inline[i]
	}
	return ns.spill[i-len(ns.inline)]
}

// add inserts v unless it is already present.
func (ns *nodeSet) add(v int) {
	for i := 0; i < ns.n; i++ {
		if ns.at(i) == v {
			return
		}
	}
	if ns.n < len(ns.inline) {
		ns.inline[ns.n] = v
	} else {
		ns.spill = append(ns.spill, v)
	}
	ns.n++
}

func (ns *nodeSet) reset() {
	ns.n = 0
	ns.spill = ns.spill[:0]
}

// phase is a subscription entry's place in its per-connection state
// machine (DESIGN.md §18). Entries only move forward: dormant → pending
// → matched → draining → done, skipping any step.
type phase uint8

const (
	// phaseDormant: no packet of the connection has matched the
	// subscription's packet filter yet (the zero value).
	phaseDormant phase = iota
	// phasePending: engaged, the filter verdict is still open.
	phasePending
	// phaseMatched: the subscription's whole filter matched.
	phaseMatched
	// phaseDraining: matched, then the subscription was removed; the
	// entry stays only to deliver the final connection record.
	phaseDraining
	// phaseDone: rejected, released or finished; the entry takes no
	// further part.
	phaseDone
)

// subState is one subscription's per-connection processing state.
type subState struct {
	// spec identifies the subscription (pointer identity; stable across
	// program swaps). nil marks a free slot.
	spec  *SubSpec
	phase phase

	// frontier is the union of packet-filter frontier nodes matched by
	// the connection's packets for this subscription: every trie branch
	// still viable. The connection filter must try all of them — a
	// single mark commits to one branch and silently drops patterns
	// matched on another. The entry leaves phaseDormant when it first
	// holds a node.
	frontier nodeSet
	// connMarks are the connection-filter nodes that matched once the
	// service was identified; the session filter must likewise try all.
	connMarks nodeSet
	connMark  int

	// Packet-level subscriptions: frames buffered while the verdict is
	// pending, flushed on match. pktBufBytes is their size as charged to
	// the overload accountant.
	pktBuf      []pktBufEntry
	pktBufBytes int

	// Byte-stream subscriptions: chunks copied while the verdict is
	// pending, flushed on match. streamBufBytes is their charged size.
	streamBuf      []StreamChunk
	streamBufBytes int
}

// engage unions a packet-filter result's frontier nodes into the entry's
// viable-branch set. It reports whether that moved a dormant entry to
// pending.
func (s *subState) engage(res filter.Result) bool {
	res.FrontierNodes(func(n int) { s.frontier.add(n) })
	if s.phase == phaseDormant && s.frontier.len() > 0 {
		s.phase = phasePending
		return true
	}
	return false
}

// inScope reports whether the entry still takes the connection's data:
// its verdict is pending or it matched.
func (s *subState) inScope() bool { return s.phase == phasePending || s.phase == phaseMatched }

// holdsLive reports whether the entry holds one of its spec's LiveConns.
func (s *subState) holdsLive() bool { return s.phase == phaseMatched || s.phase == phaseDraining }

// connState is the per-connection processing state (the Trackable of
// Appendix A): stream machinery shared by all subscriptions plus one
// subState per program-set slot. subs is aligned with the current
// ProgramSet's slots (index i ↔ slot i) whenever epoch is current;
// draining connection-record entries are appended past the slot count.
type connState struct {
	epoch uint64
	subs  []subState
	// sub0 backs subs for single-slot program sets; larger sets use the
	// heap.
	sub0 [1]subState

	// reasm points at reasmStore while the connection reassembles, and
	// is nil otherwise.
	reasm      *reassembly.Lite
	reasmStore reassembly.Lite

	// candidates is the set of protocols still being probed: bit i
	// stands for probeReg's protocol i. probeReg is the registry the
	// bits index, kept because a program-set pickup may swap the core's
	// registry mid-probe. active is the parser built on ProbeMatch.
	probeReg   *proto.Registry
	candidates uint64
	active     proto.Parser
	probeBytes int

	// identified records that the probe named the service; tombstone
	// marks a connection every subscription has rejected (kept as a
	// zero-cost entry the normal timeouts collect).
	identified bool
	tombstone  bool

	// offloaded marks that the connection's terminal verdict has been
	// published to the flow-offload manager (one-shot per connection;
	// expiry queues the matching removal).
	offloaded bool

	// inPending marks live membership in the core's shed queue.
	inPending bool

	finOrig bool
	finResp bool

	// trace is the connection's sampled lifecycle span (nil when the
	// connection was not sampled or tracing is off).
	trace *telemetry.ConnTrace

	// next links the state into the core's free or release list.
	next *connState
}

// initSubs sizes subs for ps, one dormant entry per slot, on the inline
// slot when it fits. Callers that still need the old subs must copy
// them out of sub0 first.
func (cs *connState) initSubs(ps *ProgramSet) {
	n := len(ps.Slots)
	if n <= len(cs.sub0) {
		cs.sub0 = [len(cs.sub0)]subState{}
		cs.subs = cs.sub0[:n]
	} else {
		cs.subs = make([]subState, n)
	}
	for i, spec := range ps.Slots {
		cs.subs[i].spec = spec
	}
	cs.epoch = ps.Epoch
}

// held returns the bytes the connection holds in one overload class:
// the sum of its entries' packet or stream buffers, or the reassembler's
// parked payload. The entries' counts are the only copy.
func (cs *connState) held(class overload.Class) int {
	n := 0
	switch class {
	case overload.ClassReassembly:
		if cs.reasm != nil {
			n = cs.reasm.BufferedBytes()
		}
	case overload.ClassPacketBuf:
		for i := range cs.subs {
			n += cs.subs[i].pktBufBytes
		}
	case overload.ClassStreamBuf:
		for i := range cs.subs {
			n += cs.subs[i].streamBufBytes
		}
	}
	return n
}

// syncMem sets the connection's ExtraMem to the bytes it holds across
// every class. Every path that changes one of them calls it, so the
// table's memory figure never drifts.
func (cs *connState) syncMem(conn *conntrack.Conn) {
	n := 0
	for _, class := range overload.Classes() {
		n += cs.held(class)
	}
	conn.ExtraMem = n
}

// anyStreamLive reports whether any byte-stream subscription still wants
// the connection's reconstructed bytes.
func (cs *connState) anyStreamLive() bool {
	for i := range cs.subs {
		s := &cs.subs[i]
		if s.inScope() && s.spec.Sub.Level == LevelStream {
			return true
		}
	}
	return false
}

// allDone reports whether every present subscription entry is done with
// the connection (dormant entries block, since a later packet may still
// engage them; so do draining record entries).
func (cs *connState) allDone() bool {
	any := false
	for i := range cs.subs {
		s := &cs.subs[i]
		if s.spec == nil {
			continue
		}
		any = true
		if s.phase != phaseDone {
			return false
		}
	}
	return any
}

// newState returns a zeroed state from the core's free list, carving a
// new chunk when the list is empty.
func (c *Core) newState() *connState {
	if c.freeStates == nil {
		n := stateChunkMin
		if c.stateChunk > 0 {
			n = min(2*c.stateChunk, stateChunkMax)
		}
		c.stateChunk = n
		chunk := make([]connState, n)
		for i := n - 1; i >= 0; i-- {
			chunk[i].next = c.freeStates
			c.freeStates = &chunk[i]
		}
	}
	cs := c.freeStates
	c.freeStates = cs.next
	cs.next = nil
	return cs
}

// retireState detaches a finished connection's state and queues it for
// recycling at the next burst boundary. Only the first call for a
// connection queues it; conn.UserData is cleared so nothing resolves
// the state through the connection again.
func (c *Core) retireState(conn *conntrack.Conn, cs *connState) {
	if held, _ := conn.UserData.(*connState); held != cs {
		return
	}
	conn.UserData = nil
	cs.next = c.releasedStates
	c.releasedStates = cs
}

// recycleStates resets every state retired since the last call and
// returns it to the free list. Callers run it only where no packet is
// mid-flight: the end of a burst, AdvanceTime and Flush.
func (c *Core) recycleStates() {
	for cs := c.releasedStates; cs != nil; {
		next := cs.next
		*cs = connState{next: c.freeStates}
		c.freeStates = cs
		cs = next
	}
	c.releasedStates = nil
}

// state returns the connection's subscription state, creating it if the
// connection was made before initConn ran (defensive) and reconciling it
// to the current program-set epoch.
func (c *Core) state(conn *conntrack.Conn) *connState {
	cs, ok := conn.UserData.(*connState)
	if !ok {
		cs = c.newState()
		cs.initSubs(c.ps)
		conn.UserData = cs
	}
	if cs.epoch != c.ps.Epoch {
		c.reconcileConn(conn, cs)
	}
	return cs
}
