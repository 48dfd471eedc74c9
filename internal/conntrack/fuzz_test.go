package conntrack

import (
	"fmt"
	"testing"

	"retina/internal/layers"
)

// fuzzTuple derives one of a small set of five-tuples so op sequences
// hit the same connections repeatedly (create/touch/remove interleaving
// is where accounting bugs live, not in tuple diversity). sel&0x08
// selects a self-symmetric tuple (src and dst endpoint identical) to
// exercise the orientation-free direction handling.
func fuzzTuple(sel byte) layers.FiveTuple {
	if sel&0x08 != 0 {
		f := ft("10.0.0.9", "10.0.0.9", 777, 777)
		if sel&0x20 != 0 {
			f.Proto = layers.IPProtoUDP
		}
		return f
	}
	f := ft("10.0.0.1", "10.0.0.2", 1000+uint16(sel%8), 443)
	if sel&0x10 != 0 {
		f = f.Reverse()
	}
	if sel&0x20 != 0 {
		f.Proto = layers.IPProtoUDP
	}
	return f
}

// fuzzEvent is one observable table event (creation, expiry, pressure
// eviction, admission refusal), recorded per backend so the lockstep
// driver can require identical event streams.
type fuzzEvent struct {
	kind   byte // 'c' create, 'x' expire, 'e' pressure-evict, 'f' refusal
	id     uint64
	reason ExpireReason
}

// connStateDiff compares every direction/counter/state field two
// backends must agree on, returning "" when identical.
func connStateDiff(a, b *Conn) string {
	if a.ID != b.ID || a.Tuple != b.Tuple || a.ckey != b.ckey {
		return fmt.Sprintf("identity: %d/%v vs %d/%v", a.ID, a.Tuple, b.ID, b.Tuple)
	}
	if a.origCanonical != b.origCanonical || a.symmetric != b.symmetric {
		return fmt.Sprintf("orientation: %v/%v vs %v/%v", a.origCanonical, a.symmetric, b.origCanonical, b.symmetric)
	}
	if a.FirstTick != b.FirstTick || a.LastTick != b.LastTick {
		return fmt.Sprintf("ticks: %d/%d vs %d/%d", a.FirstTick, a.LastTick, b.FirstTick, b.LastTick)
	}
	if a.Established != b.Established || a.SynSeen != b.SynSeen || a.FinSeen != b.FinSeen || a.RstSeen != b.RstSeen {
		return fmt.Sprintf("flags: %v%v%v%v vs %v%v%v%v",
			a.Established, a.SynSeen, a.FinSeen, a.RstSeen, b.Established, b.SynSeen, b.FinSeen, b.RstSeen)
	}
	if a.PktsOrig != b.PktsOrig || a.PktsResp != b.PktsResp ||
		a.BytesOrig != b.BytesOrig || a.BytesResp != b.BytesResp ||
		a.PayloadOrig != b.PayloadOrig || a.PayloadResp != b.PayloadResp {
		return fmt.Sprintf("counters: %d/%d/%d/%d/%d/%d vs %d/%d/%d/%d/%d/%d",
			a.PktsOrig, a.PktsResp, a.BytesOrig, a.BytesResp, a.PayloadOrig, a.PayloadResp,
			b.PktsOrig, b.PktsResp, b.BytesOrig, b.BytesResp, b.PayloadOrig, b.PayloadResp)
	}
	if a.OOOOrig != b.OOOOrig || a.OOOResp != b.OOOResp ||
		a.expSeq != b.expSeq || a.expSeqInit != b.expSeqInit {
		return fmt.Sprintf("seq: ooo %d/%d exp %v/%v vs ooo %d/%d exp %v/%v",
			a.OOOOrig, a.OOOResp, a.expSeq, a.expSeqInit, b.OOOOrig, b.OOOResp, b.expSeq, b.expSeqInit)
	}
	if a.ExtraMem != b.ExtraMem {
		return fmt.Sprintf("extramem: %d vs %d", a.ExtraMem, b.ExtraMem)
	}
	return ""
}

// lockstepPair drives a flat-backend table and the map oracle through
// identical operations and fails the moment any observable diverges:
// returned conns, per-connection state, event streams (creations,
// expirations with reason, pressure evictions, refusals), cumulative
// stats, occupancy, memory accounting, and both tables' invariants.
type lockstepPair struct {
	t            *testing.T
	flat, oracle *Table
	evF, evM     []fuzzEvent
	tick         uint64

	// live holds matched conn pairs with the ID captured at creation:
	// the flat backend recycles Conn storage, so after removal a *Conn
	// must never be dereferenced — pairs are pruned by recorded ID the
	// moment a removal event is observed.
	live []struct {
		fc, mc *Conn
		id     uint64
		tuple  layers.FiveTuple
	}
}

func newLockstepPair(t *testing.T, cfg Config) *lockstepPair {
	cfgF, cfgM := cfg, cfg
	cfgF.Backend = BackendFlat
	cfgM.Backend = BackendMap
	p := &lockstepPair{t: t, flat: NewTable(cfgF), oracle: NewTable(cfgM)}
	p.flat.SetEvictHandler(func(c *Conn, r ExpireReason) {
		p.evF = append(p.evF, fuzzEvent{'e', c.ID, r})
	})
	p.oracle.SetEvictHandler(func(c *Conn, r ExpireReason) {
		p.evM = append(p.evM, fuzzEvent{'e', c.ID, r})
	})
	return p
}

// prune drops live pairs whose connection no longer exists, determined
// by the event logs since the last prune (never by dereferencing).
func (p *lockstepPair) prune(from int) {
	removed := map[uint64]bool{}
	for _, ev := range p.evF[from:] {
		if ev.kind == 'x' || ev.kind == 'e' || ev.kind == 'r' {
			removed[ev.id] = true
		}
	}
	if len(removed) == 0 {
		return
	}
	kept := p.live[:0]
	for _, pr := range p.live {
		if !removed[pr.id] {
			kept = append(kept, pr)
		}
	}
	p.live = kept
}

func (p *lockstepPair) verify(opIdx int) {
	t := p.t
	if len(p.evF) != len(p.evM) {
		t.Fatalf("op %d: flat saw %d events, oracle %d (%v vs %v)", opIdx, len(p.evF), len(p.evM), p.evF, p.evM)
	}
	for i := range p.evF {
		if p.evF[i] != p.evM[i] {
			t.Fatalf("op %d: event %d diverged: flat %+v oracle %+v", opIdx, i, p.evF[i], p.evM[i])
		}
	}
	if p.flat.Len() != p.oracle.Len() {
		t.Fatalf("op %d: flat Len %d != oracle %d", opIdx, p.flat.Len(), p.oracle.Len())
	}
	if p.flat.FullDrops() != p.oracle.FullDrops() {
		t.Fatalf("op %d: full drops %d vs %d", opIdx, p.flat.FullDrops(), p.oracle.FullDrops())
	}
	cF, eF := p.flat.Stats()
	cM, eM := p.oracle.Stats()
	if cF != cM || eF != eM {
		t.Fatalf("op %d: stats diverged: created %d/%d expired %v/%v", opIdx, cF, cM, eF, eM)
	}
	if p.flat.MemoryBytes() != p.oracle.MemoryBytes() {
		t.Fatalf("op %d: memory %d vs %d", opIdx, p.flat.MemoryBytes(), p.oracle.MemoryBytes())
	}
	for _, pr := range p.live {
		if d := connStateDiff(pr.fc, pr.mc); d != "" {
			t.Fatalf("op %d: conn %d state diverged: %s", opIdx, pr.id, d)
		}
	}
	if err := p.flat.CheckInvariants(); err != nil {
		t.Fatalf("op %d: flat invariants: %v", opIdx, err)
	}
	if err := p.oracle.CheckInvariants(); err != nil {
		t.Fatalf("op %d: oracle invariants: %v", opIdx, err)
	}
}

func (p *lockstepPair) create(arg byte, opIdx int) {
	t := p.t
	mark := len(p.evF)
	tuple := fuzzTuple(arg)
	fc, origF, crF, okF := p.flat.GetOrCreate(&tuple, p.tick)
	mc, origM, crM, okM := p.oracle.GetOrCreate(&tuple, p.tick)
	if origF != origM || crF != crM || okF != okM {
		t.Fatalf("op %d: GetOrCreate diverged: flat (%v,%v,%v) oracle (%v,%v,%v)",
			opIdx, origF, crF, okF, origM, crM, okM)
	}
	p.prune(mark) // pressure eviction may have removed a pair
	if okF {
		if fc.ID != mc.ID {
			t.Fatalf("op %d: GetOrCreate IDs diverged: %d vs %d", opIdx, fc.ID, mc.ID)
		}
		if want := origRule(fc, tuple); origF != want {
			t.Fatalf("op %d: GetOrCreate direction %v, orientation rule says %v", opIdx, origF, want)
		}
		if crF {
			p.live = append(p.live, struct {
				fc, mc *Conn
				id     uint64
				tuple  layers.FiveTuple
			}{fc, mc, fc.ID, tuple})
		}
	}
}

// touch resolves a live connection from one of its two directions on
// both backends, requires the same connection and direction from each,
// and records the packet with that direction.
func (p *lockstepPair) touch(arg byte, opIdx int) {
	if len(p.live) == 0 {
		return
	}
	t := p.t
	pr := p.live[int(arg)%len(p.live)]
	flags := arg & (layers.TCPSyn | layers.TCPAck | layers.TCPFin | layers.TCPRst)
	dir := pr.tuple
	if arg&0x40 != 0 {
		dir = pr.tuple.Reverse()
	}
	fc, origF, crF, _ := p.flat.GetOrCreate(&dir, p.tick)
	mc, origM, crM, _ := p.oracle.GetOrCreate(&dir, p.tick)
	if crF || crM || fc != pr.fc || mc != pr.mc {
		t.Fatalf("op %d: live conn %d not found from %v (created %v/%v)", opIdx, pr.id, dir, crF, crM)
	}
	if want := origRule(fc, dir); origF != origM || origF != want {
		t.Fatalf("op %d: direction flat %v oracle %v, orientation rule %v", opIdx, origF, origM, want)
	}
	p.flat.TouchSeq(pr.fc, origF, p.tick, 60+int(arg), int(arg), flags, uint32(arg)*17, arg&1 == 0)
	p.oracle.TouchSeq(pr.mc, origM, p.tick, 60+int(arg), int(arg), flags, uint32(arg)*17, arg&1 == 0)
	pr.fc.ExtraMem += int(arg % 5)
	pr.mc.ExtraMem += int(arg % 5)
}

func (p *lockstepPair) advance(arg byte) {
	p.tick += uint64(arg) * 5
	mark := len(p.evF)
	p.flat.Advance(p.tick, func(c *Conn, r ExpireReason) {
		p.evF = append(p.evF, fuzzEvent{'x', c.ID, r})
	})
	p.oracle.Advance(p.tick, func(c *Conn, r ExpireReason) {
		p.evM = append(p.evM, fuzzEvent{'x', c.ID, r})
	})
	p.prune(mark)
}

func (p *lockstepPair) remove(arg byte) {
	if len(p.live) == 0 {
		return
	}
	i := int(arg) % len(p.live)
	pr := p.live[i]
	reason := ExpireReason(arg % 4)
	p.flat.Remove(pr.fc, reason)
	p.oracle.Remove(pr.mc, reason)
	p.evF = append(p.evF, fuzzEvent{'r', pr.id, reason})
	p.evM = append(p.evM, fuzzEvent{'r', pr.id, reason})
	p.live = append(p.live[:i], p.live[i+1:]...)
}

// runLockstep interprets a byte-encoded op sequence against both
// backends. The encoding (op byte mod 4 + one argument byte) predates
// the lockstep driver, so the accumulated corpus remains valid.
func runLockstep(t *testing.T, data []byte, cfg Config) {
	p := newLockstepPair(t, cfg)
	for i := 0; i < len(data); i++ {
		op := data[i] % 4
		arg := byte(0)
		if i+1 < len(data) {
			i++
			arg = data[i]
		}
		switch op {
		case 0:
			p.create(arg, i)
		case 1:
			p.touch(arg, i)
		case 2:
			p.advance(arg)
		case 3:
			p.remove(arg)
		}
		p.verify(i)
	}
	// Drain everything: after expiring all connections nothing leaks.
	p.advance(255)
	p.flat.Advance(p.tick+10_000_000, nil)
	p.oracle.Advance(p.tick+10_000_000, nil)
	if err := p.flat.CheckInvariants(); err != nil {
		t.Fatalf("flat after drain: %v", err)
	}
	if err := p.oracle.CheckInvariants(); err != nil {
		t.Fatalf("oracle after drain: %v", err)
	}
	if p.flat.Len() != 0 || p.oracle.Len() != 0 {
		t.Fatalf("drain left %d/%d connections", p.flat.Len(), p.oracle.Len())
	}
}

// FuzzTableOps drives the flat table and the map oracle in lockstep
// through an arbitrary byte-encoded sequence of
// create/touch/advance/remove operations, requiring identical events,
// stats, and per-connection state after every single operation, and
// checking both tables' accounting invariants throughout. Each input
// runs twice: with MaxConns refusal semantics and with pressure
// eviction.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x42, 0x10, 0x02, 0x7f, 0x03, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0xff, 0x02, 0xff, 0x02, 0xff})
	f.Add([]byte{0x00, 0x05, 0x01, 0x05, 0x06, 0x03, 0x05, 0x00, 0x25})
	f.Add([]byte{0x00, 0x08, 0x01, 0x00, 0x01, 0x48, 0x02, 0x01}) // symmetric tuple
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{
			EstablishTimeout:  50,
			InactivityTimeout: 200,
			WheelGranularity:  10,
			MaxConns:          6,
		}
		runLockstep(t, data, cfg)
		cfg.PressureEvict = true
		runLockstep(t, data, cfg)
	})
}

func TestCheckInvariantsAfterLifecycle(t *testing.T) {
	tbl := NewTable(DefaultConfig())
	fwd := ft("10.0.0.1", "10.0.0.2", 1234, 443)
	c, _, _, _ := tbl.GetOrCreate(&fwd, 0)
	tbl.Touch(c, true, 10, 100, 60, layers.TCPSyn)
	tbl.Touch(c, false, 20, 80, 40, layers.TCPSyn|layers.TCPAck)
	c.ExtraMem += 4096
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Double-remove must not corrupt accounting.
	tbl.Remove(c, ExpireTermination)
	tbl.Remove(c, ExpireTermination)
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	created, expired := tbl.Stats()
	if created != 1 || expired[ExpireTermination] != 1 {
		t.Fatalf("stats created=%d expired=%v", created, expired)
	}
}
