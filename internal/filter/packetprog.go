package filter

import (
	"fmt"
	"net/netip"
	"slices"

	"retina/internal/layers"
)

// packetProg is one trie's software packet filter (§4.1), compiled once
// into flat arrays of typed tests — the Go counterpart of the nested
// `if let` chain the paper generates (Figure 3). A unary protocol
// predicate is a direct check of the decoded frame/L3/L4 slot, a field
// predicate reads its field through the registry's typed accessor and
// compares integers or addresses natively, and the verdict is written
// straight into the caller's Result. Nothing builds a Value or calls a
// closure per trie node.
//
// The slot checks are decided before the packet arrives: a packet's
// layer key (whether any layer decoded, its L3 and its L4) fixes every
// frame, L3 and L4 test, so the program is specialized at compile time
// to each class of keys its tests tell apart. A specialization keeps
// only the field tests (and any stack-slot test) that can still fail;
// when none is left its verdict is a constant.
type packetProg struct {
	// variant points at the variant for each layer key:
	// [frame decoded][L3][L4].
	variant [2][16][16]*pktVariant
	// variants holds one variant per class of layer keys.
	variants []pktVariant
	// interp, when set, evaluates every packet instead: the program
	// then stands for the interpreted engine, and the table is empty.
	interp *Interpreter
}

// pktVariant is the program specialized to one layer key: a forest of
// trie nodes in DFS preorder, each holding the index one past its own
// subtree.
type pktVariant struct {
	ins []pktTest
	// fixed marks a variant with no test left to run: res is the
	// verdict for every packet of the key.
	fixed bool
	res   Result
}

// pktTest is one packet-layer trie node: its predicate in typed form and
// its place in the trie.
type pktTest struct {
	kind testKind
	op   Op
	role frontierRole
	// present is the predicate's protocol test; checkPresent says it
	// still has to run (a field predicate checks it before reading the
	// field, and a specialization clears it once the key decides it).
	present      LayerTest
	checkPresent bool

	node int32 // trie node ID
	end  int32 // index one past this node's packet-layer subtree

	// Integer field: lo is the compared value (the range's low bound for
	// OpIn), hi the range's high bound.
	intField func(p *layers.Parsed) (a, b uint64, n int)
	lo, hi   uint64
	// Address field: ip for = and !=, pfx for in.
	addrField func(p *layers.Parsed) (a, b netip.Addr, n int)
	ip        netip.Addr
	pfx       netip.Prefix
}

type testKind uint8

const (
	testPresent testKind = iota // unary protocol predicate
	testInt                     // integer field comparison
	testAddr                    // address field comparison
)

// frontierRole says whether a matched node whose packet-layer children
// all failed joins the frontier: as the end of a pattern, as a mark the
// connection filter resumes from, or not at all.
type frontierRole uint8

const (
	roleNone frontierRole = iota
	roleTerminal
	roleMark
)

// compileTest builds the typed test for one packet-layer predicate. All
// registry lookups and kind checks happen here, once, at filter build
// time.
func compileTest(reg *Registry, pred Predicate) (pktTest, error) {
	def, ok := reg.Proto(pred.Proto)
	if !ok {
		return pktTest{}, fmt.Errorf("filter: unknown protocol %q", pred.Proto)
	}
	if def.Present.Slot == SlotNone {
		return pktTest{}, fmt.Errorf("filter: protocol %q is not packet-matchable", pred.Proto)
	}
	t := pktTest{kind: testPresent, op: pred.Op, present: def.Present, checkPresent: true}
	if pred.Unary() {
		return t, nil
	}
	_, f, err := reg.Field(pred.Proto, pred.Field)
	if err != nil {
		return pktTest{}, err
	}
	switch {
	case f.Kind == KindInt && f.Int != nil:
		t.kind, t.intField = testInt, f.Int
		t.lo, t.hi = pred.Val.Int, pred.Val.Int
		if pred.Op == OpIn {
			t.lo, t.hi = pred.Val.Lo, pred.Val.Hi
		}
	case f.Kind == KindIP && f.Addr != nil:
		t.kind, t.addrField = testAddr, f.Addr
		t.ip, t.pfx = pred.Val.IP, pred.Val.Pfx
	default:
		return pktTest{}, fmt.Errorf("filter: field %s.%s has no %s packet accessor", pred.Proto, pred.Field, f.Kind)
	}
	return t, nil
}

// match evaluates the test's predicate against a decoded packet.
func (t *pktTest) match(p *layers.Parsed) bool {
	if t.checkPresent && !t.present.Match(p) {
		return false
	}
	switch t.kind {
	case testInt:
		a, b, n := t.intField(p)
		return n > 0 && t.cmpInt(a) || n > 1 && t.cmpInt(b)
	case testAddr:
		a, b, n := t.addrField(p)
		return n > 0 && t.cmpAddr(a) || n > 1 && t.cmpAddr(b)
	}
	return true
}

func (t *pktTest) cmpInt(v uint64) bool {
	switch t.op {
	case OpEq:
		return v == t.lo
	case OpNe:
		return v != t.lo
	case OpLt:
		return v < t.lo
	case OpLe:
		return v <= t.lo
	case OpGt:
		return v > t.lo
	case OpGe:
		return v >= t.lo
	case OpIn:
		return v >= t.lo && v <= t.hi
	}
	return false
}

func (t *pktTest) cmpAddr(a netip.Addr) bool {
	switch t.op {
	case OpEq:
		return a == t.ip
	case OpNe:
		return a != t.ip
	case OpIn:
		return t.pfx.Contains(a)
	}
	return false
}

// compilePacketProg flattens the trie's packet-layer nodes and
// specializes the result to every class of layer keys.
func compilePacketProg(reg *Registry, t *Trie) (*packetProg, error) {
	var base []pktTest
	var emit func(n *Node) error
	emit = func(n *Node) error {
		test, err := compileTest(reg, n.Pred)
		if err != nil {
			return err
		}
		test.node = int32(n.ID)
		if n.Terminal {
			test.role = roleTerminal
		}
		i := len(base)
		base = append(base, test)
		for _, c := range n.Children {
			if c.Layer != LayerPacket {
				if !n.Terminal {
					base[i].role = roleMark
				}
				continue
			}
			if err := emit(c); err != nil {
				return err
			}
		}
		base[i].end = int32(len(base))
		return nil
	}
	if err := emit(t.Root); err != nil {
		return nil, err
	}

	// Layer values the program's tests treat alike share a class, and
	// each class combination is specialized once.
	l3, n3 := layerClasses(base, SlotL3)
	l4, n4 := layerClasses(base, SlotL4)
	pp := &packetProg{}
	for frame := range 2 {
		for c3 := range n3 {
			for c4 := range n4 {
				key := layers.Parsed{NLayers: frame, L3: classRep(&l3, c3), L4: classRep(&l4, c4)}
				pp.variants = append(pp.variants, specialize(base, &key))
			}
		}
	}
	for frame := range 2 {
		for v3 := range 16 {
			for v4 := range 16 {
				pp.variant[frame][v3][v4] = &pp.variants[(frame*n3+int(l3[v3]))*n4+int(l4[v4])]
			}
		}
	}
	return pp, nil
}

// layerClasses partitions the 16 layer-type values of one slot by how
// the program's tests on that slot treat them: values that every such
// test accepts or rejects alike get one class, numbered from 0 in order
// of first appearance. It returns each value's class and the class
// count.
func layerClasses(base []pktTest, slot LayerSlot) (class [16]uint8, n int) {
	var masks []uint16
	for _, t := range base {
		if t.present.Slot == slot && !slices.Contains(masks, t.present.Types) {
			masks = append(masks, t.present.Types)
		}
	}
	var sigs []string
	for v := range 16 {
		sig := make([]byte, len(masks))
		for j, m := range masks {
			if m&(1<<v) != 0 {
				sig[j] = 1
			}
		}
		i := slices.Index(sigs, string(sig))
		if i < 0 {
			i = len(sigs)
			sigs = append(sigs, string(sig))
		}
		class[v] = uint8(i)
	}
	return class, len(sigs)
}

// classRep returns the first layer type in class c.
func classRep(class *[16]uint8, c int) layers.LayerType {
	return layers.LayerType(slices.Index(class[:], uint8(c)))
}

// specialize reduces the base program to the packets of one layer key
// (key carries only NLayers, L3 and L4). Frame, L3 and L4 checks are
// decided: a failing one removes its subtree, a passing one is dropped
// from its test. A node left with nothing to test that can never join
// the frontier is spliced out (its children take its place, in order),
// and one left with no children is dropped: neither changes which nodes
// the walk appends, or in what order.
func specialize(base []pktTest, key *layers.Parsed) pktVariant {
	var ins []pktTest
	var emit func(i int)
	emit = func(i int) {
		t := base[i]
		if t.present.Slot != SlotStack {
			if !t.present.Match(key) {
				return
			}
			t.checkPresent = false
		}
		if t.kind == testPresent && !t.checkPresent && t.role == roleNone {
			for c := i + 1; c < int(base[i].end); c = int(base[c].end) {
				emit(c)
			}
			return
		}
		j := len(ins)
		ins = append(ins, t)
		for c := i + 1; c < int(base[i].end); c = int(base[c].end) {
			emit(c)
		}
		if t.role == roleNone && len(ins) == j+1 {
			ins = ins[:j]
			return
		}
		ins[j].end = int32(len(ins))
	}
	emit(0)

	v := pktVariant{ins: ins, fixed: true}
	for i := range ins {
		if ins[i].kind != testPresent || ins[i].checkPresent {
			v.fixed = false
		}
	}
	if v.fixed {
		// Every remaining test passes on any packet of the key, so one
		// walk now gives the verdict.
		var s PacketScratch
		s.reset()
		v.walk(nil, &s.acc)
		s.acc.resultInto(&v.res)
		v.ins = nil
	}
	return v
}

// evalInto runs the program and writes the verdict into r.
func (pp *packetProg) evalInto(p *layers.Parsed, s *PacketScratch, r *Result) {
	if pp.interp != nil {
		pp.interp.packetInto(p, s, r)
		return
	}
	frame := 0
	if p.NLayers > 0 {
		frame = 1
	}
	v := pp.variant[frame][p.L3&15][p.L4&15]
	switch {
	case v.fixed:
		*r = v.res
		if v.res.Frontier != nil {
			// Each verdict owns its frontier, as when it is walked.
			r.Frontier = append([]int(nil), v.res.Frontier...)
		}
	case len(v.ins) == 1:
		// A lone test needs no frontier accumulation.
		t := &v.ins[0]
		if t.match(p) {
			*r = Result{Match: true, Terminal: t.role == roleTerminal, Node: int(t.node)}
		} else {
			*r = NoMatch
		}
	default:
		s.reset()
		v.walk(p, &s.acc)
		s.acc.resultInto(r)
	}
}

// walk evaluates every top-level subtree of the variant.
func (v *pktVariant) walk(p *layers.Parsed, acc *pktAcc) {
	for c := 0; c < len(v.ins); c = int(v.ins[c].end) {
		walkNode(v.ins, c, p, acc)
	}
}

// walkNode explores every matching branch below test i (not just the
// first) and reports whether the subtree contributed a frontier node. A
// node whose packet-layer children matched does not join the frontier
// itself: the connection filter's ancestor walk recovers its
// connection-layer children from the deeper mark.
func walkNode(ins []pktTest, i int, p *layers.Parsed, acc *pktAcc) bool {
	t := &ins[i]
	if !t.match(p) {
		return false
	}
	matched := false
	for c := i + 1; c < int(t.end); c = int(ins[c].end) {
		if walkNode(ins, c, p, acc) {
			matched = true
		}
	}
	if matched {
		return true
	}
	switch t.role {
	case roleTerminal:
		acc.nodes = append(acc.nodes, int(t.node))
		if acc.terminal < 0 {
			acc.terminal = int(t.node)
		}
		return true
	case roleMark:
		acc.nodes = append(acc.nodes, int(t.node))
		return true
	}
	return false
}
