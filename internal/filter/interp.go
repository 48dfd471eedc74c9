package filter

import (
	"regexp"
	"sync"

	"retina/internal/layers"
)

// Interpreter evaluates the predicate trie generically at run time: every
// packet pays registry lookups, operator dispatch, and regex-cache
// consultation. It is the baseline that the compiled engine is measured
// against in Appendix B / Figure 12 — functionally identical, but the
// filter logic is interpreted rather than baked into closures.
type Interpreter struct {
	reg  *Registry
	trie *Trie

	mu    sync.Mutex
	reCch map[string]*regexp.Regexp
}

// NewInterpreter builds an interpreter over a trie.
func NewInterpreter(reg *Registry, t *Trie) *Interpreter {
	return &Interpreter{reg: reg, trie: t, reCch: make(map[string]*regexp.Regexp)}
}

// regex returns a cached compiled regex, compiling on first use — the
// behavior of an engine that discovers patterns at run time.
func (in *Interpreter) regex(pattern string) *regexp.Regexp {
	in.mu.Lock()
	defer in.mu.Unlock()
	if re, ok := in.reCch[pattern]; ok {
		return re
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		re = nil
	}
	in.reCch[pattern] = re
	return re
}

func (in *Interpreter) evalPacketPred(pred Predicate, p *layers.Parsed) bool {
	def, ok := in.reg.Proto(pred.Proto)
	if !ok || !def.Present.Match(p) {
		return false
	}
	if pred.Unary() {
		return true
	}
	f, ok := def.Fields[pred.Field]
	if !ok {
		return false
	}
	switch {
	case f.Kind == KindInt && f.Int != nil:
		a, b, n := f.Int(p)
		return n > 0 && compareInt(a, pred.Op, pred.Val) || n > 1 && compareInt(b, pred.Op, pred.Val)
	case f.Kind == KindIP && f.Addr != nil:
		a, b, n := f.Addr(p)
		return n > 0 && compareIP(a, pred.Op, pred.Val) || n > 1 && compareIP(b, pred.Op, pred.Val)
	}
	return false
}

// packetInto is the interpreting packet filter: it writes the verdict
// for p into r, like the compiled packet program.
func (in *Interpreter) packetInto(p *layers.Parsed, s *PacketScratch, r *Result) {
	s.reset()
	in.walkPacket(in.trie.Root, p, &s.acc)
	s.acc.resultInto(r)
}

// walkPacket explores every matching branch (not just the first) and
// reports whether this subtree contributed a frontier node; see
// walkNode for the frontier semantics the engines share.
func (in *Interpreter) walkPacket(n *Node, p *layers.Parsed, acc *pktAcc) bool {
	if !in.evalPacketPred(n.Pred, p) {
		return false
	}
	matched := false
	hasNonPacketChild := false
	for _, c := range n.Children {
		if c.Layer != LayerPacket {
			hasNonPacketChild = true
			continue
		}
		if in.walkPacket(c, p, acc) {
			matched = true
		}
	}
	if matched {
		return true
	}
	if n.Terminal {
		acc.nodes = append(acc.nodes, n.ID)
		if acc.terminal < 0 {
			acc.terminal = n.ID
		}
		return true
	}
	if hasNonPacketChild {
		acc.nodes = append(acc.nodes, n.ID)
		return true
	}
	return false
}

// ConnFilter returns an interpreting ConnFilterFunc. Every matching
// connection branch reachable from the mark (on the node itself or a
// packet-layer ancestor) joins the result frontier, mirroring
// CompileConnFilter.
func (in *Interpreter) ConnFilter() ConnFilterFunc {
	return func(v ConnView, pktNode int) Result {
		n := in.trie.Node(pktNode)
		if n == nil {
			return NoMatch
		}
		if n.Terminal {
			return Result{Match: true, Terminal: true, Node: n.ID}
		}
		svc := v.ServiceName()
		var buf [4]int
		acc := pktAcc{nodes: buf[:0], terminal: -1}
		for a := n; a != nil && a.Layer == LayerPacket; a = a.Parent {
			for _, c := range a.Children {
				if c.Layer == LayerConnection && c.Pred.Proto == svc {
					acc.nodes = append(acc.nodes, c.ID)
					if c.Terminal && acc.terminal < 0 {
						acc.terminal = c.ID
					}
				}
			}
		}
		return frontierResult(&acc)
	}
}

// SessionFilter returns an interpreting SessionFilterFunc.
func (in *Interpreter) SessionFilter() SessionFilterFunc {
	return func(s Session, connNode int) bool {
		n := in.trie.Node(connNode)
		if n == nil {
			return false
		}
		if n.Terminal {
			return true
		}
		for _, c := range n.Children {
			if c.Layer == LayerSession && in.walkSession(c, s) {
				return true
			}
		}
		return false
	}
}

func (in *Interpreter) walkSession(n *Node, s Session) bool {
	if !in.evalSessionPred(n.Pred, s) {
		return false
	}
	if len(n.Children) == 0 {
		return true
	}
	for _, c := range n.Children {
		if in.walkSession(c, s) {
			return true
		}
	}
	return false
}

func (in *Interpreter) evalSessionPred(pred Predicate, s Session) bool {
	_, f, err := in.reg.Field(pred.Proto, pred.Field)
	if err != nil {
		return false
	}
	switch f.Kind {
	case KindString:
		v, ok := s.StringField(pred.Field)
		if !ok {
			return false
		}
		if pred.Op == OpMatches {
			re := in.regex(pred.Val.Str)
			return re != nil && re.MatchString(v)
		}
		return compareString(v, pred.Op, pred.Val)
	case KindInt:
		v, ok := s.IntField(pred.Field)
		return ok && compareInt(v, pred.Op, pred.Val)
	}
	return false
}
