package core

import (
	"math/bits"

	"retina/internal/aggregate"
	"retina/internal/conntrack"
	"retina/internal/filter"
	"retina/internal/layers"
	"retina/internal/offload"
	"retina/internal/proto"
	"retina/internal/reassembly"
)

// The subscription state machine (paper Figure 4, DESIGN.md §18): each
// connection holds one entry per subscription, and every verdict —
// engage, match, reject, drain, finish — moves an entry's phase here.
// The connection's own State is the union of its entries' needs.

// probeBudget bounds how many stream bytes may be spent identifying a
// protocol before the connection is declared unidentifiable.
const probeBudget = 8 << 10

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
		switch {
		case slot >= 0:
			subs[slot] = *s
		case s.phase == phaseMatched && s.spec.Sub.Level == LevelConnection,
			s.phase == phaseDraining:
			// Subscription removed. Matched connection-level entries
			// drain: they owe a final record at termination.
			s.phase = phaseDraining
			subs = append(subs, *s)
		default:
			continue
		}
		s.spec = nil // carried over
	}
	cs.subs = subs
	// Everything else of a removed subscription is released now — new
	// data never reaches it. Releasing only once cs.subs holds every
	// carried entry keeps the connection's byte counts, which sum over
	// cs.subs, whole in between.
	for oi := range old {
		if s := &old[oi]; s.spec != nil {
			c.dropSubEntry(conn, cs, s)
		}
	}
	live := 0
	for i := range subs {
		if subs[i].spec != nil {
			live++
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
		if s.phase == phasePending || (s.phase == phaseMatched && s.spec.wantsParsing()) {
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
	if s.holdsLive() {
		s.spec.LiveConns.Add(-1)
	}
	s.phase = phaseDone
}

// activateSub resolves a formerly dormant subscription whose packet
// filter just matched its first packet of the connection. The verdict is
// decided as far as the connection's progress allows: an identified
// service is evaluated immediately; a connection whose probe is still
// running includes the subscription at identification; and a connection
// whose identification window has passed (probe exhausted, or stream
// history already released) rejects the subscription — it attached too
// late to be decidable, exactly the drain-mirror semantics of Add.
func (c *Core) activateSub(conn *conntrack.Conn, cs *connState, s *subState) {
	if cs.identified {
		cr := c.evalConnSub(conn, s)
		if !cr.Match {
			c.rejectSub(conn, cs, s)
			return
		}
		s.connMark = cr.Node
		if cr.Terminal {
			c.markSubMatched(s)
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
		cs.subs[i].engage(mr.Res[i])
	}
	if c.tracer != nil {
		cs.trace = c.tracer.Start(c.ID, conn.ID, conn.Tuple.String(), c.now)
	}

	needParse := c.parReg.Len() > 0

	// A packet-terminal mark means a subscription's whole filter is
	// already satisfied for this connection.
	for i := range cs.subs {
		s := &cs.subs[i]
		if s.phase != phasePending {
			continue
		}
		cr := c.evalConnSub(conn, s)
		if cr.Match && cr.Terminal {
			s.connMark = cr.Node
			c.markSubMatched(s)
			c.onSubFullMatch(conn, cs, s)
		}
	}

	// Keep probing when some engaged subscription's verdict is pending,
	// or a matched one needs sessions (session level) or explicit
	// protocol identification (SessionProtos); otherwise payload
	// processing is bypassed entirely (§6.1's TCP connection records
	// configuration).
	wantProbe := c.needsStreamWork(cs)
	if wantProbe && needParse {
		conn.State = conntrack.StateProbe
		cs.probeReg = c.parReg
		cs.candidates = ^uint64(0) >> (64 - c.parReg.Len())
	} else if wantProbe {
		// Nothing can identify the protocol; without identification the
		// connection filter can never pass a non-terminal mark.
		// A tombstone (every entry rejected) needs no reassembler.
		c.rejectPending(conn, cs)
		if cs.tombstone {
			return
		}
		conn.State = conntrack.StateTrack
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
		if s := &cs.subs[i]; s.phase == phasePending {
			c.rejectSub(conn, cs, s)
		}
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
		if s.phase == phaseMatched {
			// Filter already terminal; parsing continues only to feed the
			// data type.
			if s.spec.wantsParsing() {
				anyParse = true
			}
			continue
		}
		if s.phase != phasePending {
			continue // a dormant entry resolves if a packet ever engages it
		}
		cr := c.evalConnSub(conn, s)
		if !cr.Match {
			c.rejectSub(conn, cs, s)
			continue
		}
		s.connMark = cr.Node
		if cr.Terminal {
			c.markSubMatched(s)
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
			if !s.inScope() {
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
		switch s.phase {
		case phaseDraining:
			vote(conntrack.StateTrack) // owes a final record; hold the conn
			continue
		case phaseDormant, phaseDone:
			continue // neither holds nor releases the connection
		}
		lvl := s.spec.Sub.Level
		if ok[i] {
			if s.phase == phasePending {
				c.markSubMatched(s)
				c.onSubFullMatch(conn, cs, s)
			}
			if lvl == LevelSession {
				c.deliverSessionTo(s.spec, conn, sess)
			}
			// Post-match state: the parser's default, except that a
			// subscription still needing packets, records or bytes keeps
			// tracking instead of deleting (Figure 4a vs 4b).
			next := cs.active.SessionMatchState()
			if lvl != LevelSession && next == conntrack.StateDelete {
				next = conntrack.StateTrack
			}
			vote(next)
			continue
		}
		next := cs.active.SessionNoMatchState()
		if next == conntrack.StateDelete {
			if s.phase == phasePending {
				// The verdict was pending on this session filter.
				c.rejectSub(conn, cs, s)
				continue
			}
			next = conntrack.StateTrack // a matched entry still holds the connection
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
		if !s.holdsLive() {
			continue
		}
		anyMatched = true
		if s.phase == phaseDraining || s.spec.Sub.Level != LevelSession ||
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
// connection: the per-subscription match counter and the live-connection
// hold used for drain progress.
func (c *Core) markSubMatched(s *subState) {
	s.phase = phaseMatched
	s.spec.MatchedConns.Inc()
	s.spec.LiveConns.Add(1)
}

// rejectSub marks one subscription's filter as failed for the
// connection and releases that subscription's speculative buffers. When
// every present subscription has rejected, the whole connection becomes
// a tombstone.
func (c *Core) rejectSub(conn *conntrack.Conn, cs *connState, s *subState) {
	if s.phase == phaseDone {
		return
	}
	s.phase = phaseDone
	c.discardSubPktBuf(conn, cs, s, &c.ctr.pendingDiscard)
	c.releaseSubStreamBytes(conn, cs, s)
	s.streamBuf = nil
	if cs.allDone() {
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

// maybeTerminate removes gracefully finished connections. orig is the
// packet's direction from GetOrCreate.
func (c *Core) maybeTerminate(conn *conntrack.Conn, cs *connState, orig bool, flags uint8) {
	if flags&layers.TCPFin != 0 {
		if orig {
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
		if !s.holdsLive() {
			continue
		}
		if s.spec.Sub.Level == LevelConnection {
			rec := c.connRecs.next()
			*rec = ConnRecord{
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
		s.phase = phaseDone // prevents double delivery
	}
	cs.tombstone = true
	c.releaseStreamState(conn, cs)
	c.retireState(conn, cs)
}
