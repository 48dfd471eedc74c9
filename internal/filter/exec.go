package filter

import (
	"fmt"

	"retina/internal/layers"
)

// Result is the outcome of the packet or connection sub-filter.
// A terminal match means the entire pattern is satisfied; a non-terminal
// match means predicates at later stages remain, and Node carries the
// deepest matched trie node so downstream filters resume from it without
// re-traversing the trie (the paper's packet "tag").
type Result struct {
	Match    bool
	Terminal bool
	Node     int

	// Sub identifies the subscription the result belongs to when the
	// program is one slot of a MultiProgram (0 for standalone programs).
	// Node and Frontier values are only meaningful relative to that
	// subscription's own trie.
	Sub int

	// Frontier lists every matched frontier node when the packet
	// satisfied more than one disjoint trie branch (nil when Node is the
	// only one). The connection filter must consider all of them: a
	// packet matching both `tcp.port = 8080 and tls` and `ipv4.ttl > 5
	// and http` stays viable for either service, and committing to a
	// single branch silently drops the other pattern.
	Frontier []int
}

// Equal reports full equality including the frontier (used by the
// engine-differential tests; == no longer applies with a slice field).
func (r Result) Equal(o Result) bool {
	if r.Match != o.Match || r.Terminal != o.Terminal || r.Node != o.Node ||
		r.Sub != o.Sub || len(r.Frontier) != len(o.Frontier) {
		return false
	}
	for i := range r.Frontier {
		if r.Frontier[i] != o.Frontier[i] {
			return false
		}
	}
	return true
}

// FrontierNodes invokes fn for each matched frontier node (Node alone
// when Frontier is nil).
func (r Result) FrontierNodes(fn func(int)) {
	if !r.Match {
		return
	}
	if r.Frontier == nil {
		fn(r.Node)
		return
	}
	for _, n := range r.Frontier {
		fn(n)
	}
}

// NoMatch is the zero Result.
var NoMatch = Result{}

// ConnFilterFunc is the connection filter: given the identified service
// and the packet filter's terminal node, it decides whether the
// connection can still satisfy some pattern.
type ConnFilterFunc func(view ConnView, pktNode int) Result

// SessionFilterFunc is the application-layer session filter: given a
// fully parsed session and the connection filter's node, it renders the
// final verdict for the pattern.
type SessionFilterFunc func(s Session, connNode int) bool

// CompilePredicateMatcher builds a standalone matcher for one
// packet-layer predicate. The simulated NIC uses it to evaluate
// installed flow rules against ingress frames; it is the same typed test
// the compiled packet program runs.
func CompilePredicateMatcher(reg *Registry, pred Predicate) (func(p *layers.Parsed) bool, error) {
	t, err := compileTest(reg, pred)
	if err != nil {
		return nil, err
	}
	return t.match, nil
}

// pktAcc accumulates the matched frontier during one packet-filter
// evaluation: every deepest matched node across all trie branches, plus
// the first terminal among them.
type pktAcc struct {
	nodes    []int
	terminal int // first terminal node matched; -1 if none
}

// PacketScratch is a reusable frontier accumulator for packet-filter
// evaluation. The accumulator is threaded through the engines by
// pointer, which defeats escape analysis — a fresh one would
// heap-allocate on every packet. Hot paths own one scratch per core and
// evaluate through Program.PacketWith or MultiProgram.PacketInto. Not
// safe for concurrent use; the zero value is ready.
type PacketScratch struct {
	buf [8]int
	acc pktAcc
}

func (s *PacketScratch) reset() {
	s.acc.nodes = s.buf[:0]
	s.acc.terminal = -1
}

// frontierResult converts an accumulated frontier into a Result.
func frontierResult(acc *pktAcc) Result {
	var r Result
	acc.resultInto(&r)
	return r
}

// resultInto writes the accumulated frontier into r. The deepest-first
// DFS order is stable for a given trie, so both engines (and the emitted
// Go source) produce identical Frontier slices.
func (acc *pktAcc) resultInto(r *Result) {
	if len(acc.nodes) == 0 {
		*r = NoMatch
		return
	}
	*r = Result{Match: true, Node: acc.nodes[0]}
	if acc.terminal >= 0 {
		r.Terminal = true
		r.Node = acc.terminal
	}
	if len(acc.nodes) > 1 {
		// Copy out of the scratch buffer only in the (rare) multi-branch
		// case; single-branch matches stay allocation-free.
		r.Frontier = append([]int(nil), acc.nodes...)
	}
}

// connBranch is one connection-layer node reachable from a packet-filter
// mark: the packet node itself or any of its packet-layer ancestors may
// carry connection-layer children (a mark at `tcp.port >= 100` must still
// consider the bare `http` pattern hanging off the `tcp` ancestor; the
// paper's Figure 3 truncates these expansions for readability).
type connBranch struct {
	proto    string
	node     int
	terminal bool
}

// CompileConnFilter generates the connection filter: a dense dispatch
// over the packet filter's possible marks, each evaluating the unary
// service predicates reachable from that mark. Like the packet filter,
// it reports every matched connection branch via Result.Frontier — the
// same service can hang off the mark and off one of its ancestors (e.g.
// `tcp.port >= N and tls.sni ~ S or tls.version = V`), and each carries
// distinct session predicates that the session filter must all consider.
func CompileConnFilter(reg *Registry, t *Trie) (ConnFilterFunc, error) {
	cases := make(map[int]func(ConnView) Result, len(t.Nodes))
	for _, n := range t.Nodes {
		if n.Layer != LayerPacket || !isPacketMark(n) {
			continue
		}
		if n.Terminal {
			// Whole pattern already satisfied at the packet layer:
			// stateful subscriptions treat it as an immediate match.
			id := n.ID
			cases[id] = func(ConnView) Result {
				return Result{Match: true, Terminal: true, Node: id}
			}
			continue
		}
		branches := collectConnBranches(n)
		if len(branches) == 0 {
			continue
		}
		bs := branches
		cases[n.ID] = func(v ConnView) Result {
			svc := v.ServiceName()
			var buf [4]int
			acc := pktAcc{nodes: buf[:0], terminal: -1}
			for _, b := range bs {
				if svc == b.proto {
					acc.nodes = append(acc.nodes, b.node)
					if b.terminal && acc.terminal < 0 {
						acc.terminal = b.node
					}
				}
			}
			return frontierResult(&acc)
		}
	}
	return func(v ConnView, pktNode int) Result {
		if fn, ok := cases[pktNode]; ok {
			return fn(v)
		}
		return NoMatch
	}, nil
}

// isPacketMark reports whether the packet filter can return node n.
func isPacketMark(n *Node) bool {
	if n.Terminal {
		return true
	}
	for _, c := range n.Children {
		if c.Layer != LayerPacket {
			return true
		}
	}
	return false
}

func collectConnBranches(n *Node) []connBranch {
	var out []connBranch
	seen := map[int]bool{}
	for a := n; a != nil && a.Layer == LayerPacket; a = a.Parent {
		for _, c := range a.Children {
			if c.Layer == LayerConnection && !seen[c.ID] {
				seen[c.ID] = true
				out = append(out, connBranch{proto: c.Pred.Proto, node: c.ID, terminal: c.Terminal})
			}
		}
	}
	return out
}

// compileSessionPred builds a matcher for one session-layer predicate,
// evaluated through the Session interface implemented by protocol
// modules.
func compileSessionPred(reg *Registry, pred Predicate) (func(s Session) bool, error) {
	_, f, err := reg.Field(pred.Proto, pred.Field)
	if err != nil {
		return nil, err
	}
	field := pred.Field
	op, val := pred.Op, pred.Val
	switch f.Kind {
	case KindString:
		return func(s Session) bool {
			v, ok := s.StringField(field)
			return ok && compareString(v, op, val)
		}, nil
	case KindInt:
		return func(s Session) bool {
			v, ok := s.IntField(field)
			return ok && compareInt(v, op, val)
		}, nil
	}
	return nil, fmt.Errorf("filter: session field %s.%s has unsupported kind %s", pred.Proto, pred.Field, f.Kind)
}

// CompileSessionFilter generates the session filter: a dispatch over the
// connection filter's possible result nodes. Terminal connection nodes
// map to an unconditional true (Figure 3's `3 => return true` arms);
// non-terminal nodes evaluate their session-predicate subtrees, where a
// session matches if any root-to-leaf predicate path holds.
func CompileSessionFilter(reg *Registry, t *Trie) (SessionFilterFunc, error) {
	cases := make(map[int]func(Session) bool, len(t.Nodes))
	for _, n := range t.Nodes {
		switch {
		case n.Terminal:
			// Covers packet-terminal and connection-terminal marks.
			cases[n.ID] = func(Session) bool { return true }
		case n.Layer == LayerConnection && n.HasSessionDesc:
			fn, err := compileSessionSubtree(reg, n)
			if err != nil {
				return nil, err
			}
			cases[n.ID] = fn
		}
	}
	return func(s Session, connNode int) bool {
		if fn, ok := cases[connNode]; ok {
			return fn(s)
		}
		return false
	}, nil
}

func compileSessionSubtree(reg *Registry, n *Node) (func(Session) bool, error) {
	var paths []func(Session) bool
	for _, c := range n.Children {
		if c.Layer != LayerSession {
			continue
		}
		p, err := compileSessionPath(reg, c)
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("filter: connection node %d has no session predicates", n.ID)
	}
	return func(s Session) bool {
		for _, p := range paths {
			if p(s) {
				return true
			}
		}
		return false
	}, nil
}

func compileSessionPath(reg *Registry, n *Node) (func(Session) bool, error) {
	match, err := compileSessionPred(reg, n.Pred)
	if err != nil {
		return nil, err
	}
	var kids []func(Session) bool
	for _, c := range n.Children {
		k, err := compileSessionPath(reg, c)
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	if len(kids) == 0 {
		return match, nil
	}
	return func(s Session) bool {
		if !match(s) {
			return false
		}
		for _, k := range kids {
			if k(s) {
				return true
			}
		}
		return false
	}, nil
}
