package core

import (
	"testing"

	"retina/internal/conntrack"
	"retina/internal/filter"
	"retina/internal/mbuf"
	"retina/internal/overload"
	"retina/internal/traffic"
)

// checkInvariants asserts the bookkeeping the cores keep per connection
// against what the connections actually hold:
//
//   - per overload class, the bytes buffered across every live
//     connection (packet and stream buffers summed from their contents,
//     reassembly as the reassembler reports it) equal the accountant's
//     figure, and each entry's own byte count equals its buffer;
//   - each spec's LiveConns equals its matched-or-draining entries
//     across all cores;
//   - every entry's phase agrees with its data: only dormant entries
//     lack a frontier, only pending ones hold buffers, and only
//     connection-level ones drain;
//   - each connection's per-class byte count equals what its entries'
//     buffers hold, and its ExtraMem equals everything it holds.
//
// specs lists every subscription the cores have served, retired ones
// included (their LiveConns must fall back to their entries too).
func checkInvariants(t testing.TB, specs []*SubSpec, cores ...*Core) {
	t.Helper()
	live := map[*SubSpec]int64{}
	for _, c := range cores {
		var held [overload.NumClasses]int64
		c.table.Each(func(conn *conntrack.Conn) {
			cs, ok := conn.UserData.(*connState)
			if !ok {
				return
			}
			var pkt, stream int
			for i := range cs.subs {
				s := &cs.subs[i]
				if s.spec == nil {
					continue
				}
				if s.holdsLive() {
					live[s.spec]++
				}
				dormant := s.phase == phaseDormant
				switch {
				case s.phase > phaseDone:
					t.Errorf("core %d conn %d: %s entry in unknown phase %d", c.ID, conn.ID, s.spec.Name, s.phase)
				case s.phase != phaseDone && dormant != (s.frontier.len() == 0):
					t.Errorf("core %d conn %d: %s entry in phase %d with %d frontier nodes",
						c.ID, conn.ID, s.spec.Name, s.phase, s.frontier.len())
				case s.phase != phasePending && len(s.pktBuf)+len(s.streamBuf) > 0:
					t.Errorf("core %d conn %d: %s entry in phase %d holds buffers", c.ID, conn.ID, s.spec.Name, s.phase)
				case s.phase == phaseDraining && s.spec.Sub.Level != LevelConnection:
					t.Errorf("core %d conn %d: %s entry drains at level %s", c.ID, conn.ID, s.spec.Name, s.spec.Sub.Level)
				}
				bufPkt, bufStream := 0, 0
				for _, e := range s.pktBuf {
					bufPkt += e.m.Len()
				}
				for _, ch := range s.streamBuf {
					bufStream += len(ch.Data)
				}
				if bufPkt != s.pktBufBytes || bufStream != s.streamBufBytes {
					t.Errorf("core %d conn %d: %s entry counts %d/%d packet/stream bytes, buffers hold %d/%d",
						c.ID, conn.ID, s.spec.Name, s.pktBufBytes, s.streamBufBytes, bufPkt, bufStream)
				}
				pkt += bufPkt
				stream += bufStream
			}
			if p, s := cs.held(overload.ClassPacketBuf), cs.held(overload.ClassStreamBuf); pkt != p || stream != s {
				t.Errorf("core %d conn %d: counts %d/%d packet/stream bytes, its entries' buffers %d/%d",
					c.ID, conn.ID, p, s, pkt, stream)
			}
			reasm := 0
			if cs.reasm != nil {
				reasm = cs.reasm.BufferedBytes()
			}
			if want := pkt + stream + reasm; conn.ExtraMem != want {
				t.Errorf("core %d conn %d: ExtraMem %d, holds %d", c.ID, conn.ID, conn.ExtraMem, want)
			}
			held[overload.ClassPacketBuf] += int64(pkt)
			held[overload.ClassStreamBuf] += int64(stream)
			held[overload.ClassReassembly] += int64(reasm)
		})
		for _, class := range overload.Classes() {
			if used := c.acct.Used(class); used != held[class] {
				t.Errorf("core %d: %s accountant holds %d bytes, connections %d", c.ID, class, used, held[class])
			}
		}
	}
	for _, sp := range specs {
		if got := sp.LiveConns.Load(); got != live[sp] {
			t.Errorf("spec %s: LiveConns %d, matched-or-draining entries %d", sp.Name, got, live[sp])
		}
	}
	for sp := range live {
		if !containsSpec(specs, sp) {
			t.Errorf("entry for spec %s the caller did not list", sp.Name)
		}
	}
}

func containsSpec(specs []*SubSpec, sp *SubSpec) bool {
	for _, s := range specs {
		if s == sp {
			return true
		}
	}
	return false
}

// TestCoreInvariantsUnderShedding runs campus traffic interleaved with an
// out-of-order flood through one core with tight buffer budgets, a
// bounded table, and mid-run program swaps that add a subscription,
// remove one outright, and drain a connection-level one, checking
// checkInvariants after every burst.
func TestCoreInvariantsUnderShedding(t *testing.T) {
	mk := func(name, filterSrc string, sub *Subscription) *SubSpec {
		prog, err := filter.Compile(filterSrc, filter.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return &SubSpec{Name: name, Filter: filterSrc, Sub: sub, Prog: prog, NeedsConn: prog.NeedsConnTracking()}
	}
	var delivered int
	pktSub := &Subscription{Level: LevelPacket, OnPacket: func(*Packet) { delivered++ }}
	connSub := &Subscription{Level: LevelConnection, OnConn: func(*ConnRecord) { delivered++ }}
	sessSub := &Subscription{Level: LevelSession, OnSession: func(*SessionEvent) { delivered++ }}
	streamSub := &Subscription{Level: LevelStream, OnStream: func(*StreamChunk) { delivered++ }}

	tlsPkts := mk("tls-packets", "tls", pktSub)
	httpStream := mk("http-stream", "http", streamSub)
	tcpConns := mk("tcp-conns", "tcp", connSub)
	sessions := mk("sessions", "tls or http", sessSub)
	comPkts := mk("com-packets", "tls.sni matches 'com'", pktSub)
	tlsStream := mk("net-stream", "tls.sni matches 'net'", streamSub)
	udpPkts := mk("udp-packets", "udp", pktSub)
	specs := []*SubSpec{tlsPkts, httpStream, tcpConns, sessions, comPkts, tlsStream, udpPkts}

	// Each swap takes effect at the given burst: add two subscriptions,
	// remove the stream one (its pending entries are released), drain
	// the connection-level one (its matched entries stay to deliver their
	// final records), then replace every remaining subscription, buffered
	// entries included, with a new one.
	swaps := []struct {
		at    int
		slots []*SubSpec
	}{
		{0, []*SubSpec{tlsPkts, httpStream, tcpConns, nil}},
		{150, []*SubSpec{tlsPkts, httpStream, tcpConns, sessions, comPkts}},
		{300, []*SubSpec{tlsPkts, nil, tcpConns, sessions, comPkts, tlsStream}},
		{450, []*SubSpec{tlsPkts, nil, nil, sessions, comPkts, tlsStream}},
		{600, []*SubSpec{nil, udpPkts}},
	}
	set := func(epoch int) *ProgramSet {
		ps, err := NewProgramSet(uint64(epoch), swaps[epoch].slots, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}

	ct := conntrack.DefaultConfig()
	ct.MaxConns, ct.PressureEvict = 250, true
	c, err := NewCore(0, Config{
		Set:       set(0),
		Conntrack: ct,
		Budget:    overload.Budget{PacketBufBytes: 24 << 10, StreamBufBytes: 300, ReassemblyBytes: 4 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}

	campus := traffic.NewCampusMix(traffic.CampusConfig{Seed: 7, Flows: 1500})
	flood := traffic.NewAdversarialWorkload(traffic.AdvOOOFlood, 11, 150, 20)
	cf, ctick, cok := campus.Next()
	ff, ftick, fok := flood.Next()
	pool := mbuf.NewPool(4096, mbuf.DefaultBufSize)
	burst := make([]*mbuf.Mbuf, 0, DefaultBurstSize)
	bursts, epoch := 0, 0
	for cok || fok {
		var frame []byte
		var tick uint64
		if cok && (!fok || ctick <= ftick) {
			frame, tick = cf, ctick
			cf, ctick, cok = campus.Next()
		} else {
			frame, tick = ff, ftick
			ff, ftick, fok = flood.Next()
		}
		m, err := pool.AllocData(frame)
		if err != nil {
			t.Fatal(err)
		}
		m.RxTick = tick
		if burst = append(burst, m); len(burst) < cap(burst) && (cok || fok) {
			continue
		}
		if epoch+1 < len(swaps) && bursts == swaps[epoch+1].at {
			epoch++
			c.SetProgramSet(set(epoch))
		}
		c.ProcessBurst(burst)
		burst = burst[:0]
		bursts++
		checkInvariants(t, specs, c)
		if t.Failed() {
			t.Fatalf("invariants broken after burst %d (epoch %d)", bursts, epoch)
		}
	}
	c.Flush()
	checkInvariants(t, specs, c)

	st := c.Stats()
	if st.EpochSwaps != uint64(len(swaps)-1) {
		t.Fatalf("%d epoch swaps, want %d", st.EpochSwaps, len(swaps)-1)
	}
	// The run must actually shed in every budgeted class it exercises.
	if st.PktBufBudget == 0 || st.ReasmBudgetDrops == 0 || st.StreamBufOverflow == 0 || st.EvictedPressure == 0 {
		t.Fatalf("run did not exercise shedding: %+v", st)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if n := pool.InUse(); n != 0 {
		t.Fatalf("%d mbufs still held after Flush", n)
	}
	t.Logf("%d bursts, %d swaps, %d pktbuf_budget, %d reasm_budget, %d stream overflow, %d evicted_pressure",
		bursts, st.EpochSwaps, st.PktBufBudget, st.ReasmBudgetDrops, st.StreamBufOverflow, st.EvictedPressure)
}
