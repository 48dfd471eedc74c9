package filter

import (
	"strings"
	"testing"

	"retina/internal/layers"
)

func multiProg(t *testing.T, epoch uint64, filters ...string) *MultiProgram {
	t.Helper()
	slots := make([]*SubProgram, len(filters))
	for i, src := range filters {
		if src == "" {
			continue // free slot
		}
		slots[i] = &SubProgram{ID: i + 100, Name: src, Prog: MustCompile(src, Options{})}
	}
	mp, err := NewMultiProgram(epoch, slots)
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

// evalMulti runs mp's packet filters over p into a fresh result row.
func evalMulti(mp *MultiProgram, p *layers.Parsed) MultiResult {
	var s PacketScratch
	res := make([]Result, len(mp.Slots))
	return MultiResult{Mask: mp.PacketInto(p, &s, res), Res: res}
}

func TestMultiProgramMaskAndSubIDs(t *testing.T) {
	mp := multiProg(t, 1, "tcp.dst_port = 443", "udp", "tcp")
	mr := evalMulti(mp, tcpPkt(t, 1234, 443))
	if mr.Mask != 0b101 {
		t.Fatalf("mask = %b, want 101", mr.Mask)
	}
	// Each matching slot's Result carries its subscription ID, and every
	// slot gets an independent verdict over its own trie.
	if mr.Res[0].Sub != 100 || mr.Res[2].Sub != 102 {
		t.Fatalf("sub IDs = %d, %d; want 100, 102", mr.Res[0].Sub, mr.Res[2].Sub)
	}
	if !mr.Res[0].Terminal || !mr.Res[2].Terminal {
		t.Fatalf("terminal flags = %v, %v", mr.Res[0].Terminal, mr.Res[2].Terminal)
	}
	if mr.Res[1].Match {
		t.Fatal("udp slot matched a tcp packet")
	}

	mr = evalMulti(mp, udpPkt(t, 53))
	if mr.Mask != 0b010 {
		t.Fatalf("mask = %b, want 010", mr.Mask)
	}
	if mr.Res[1].Sub != 101 {
		t.Fatalf("sub ID = %d, want 101", mr.Res[1].Sub)
	}
}

func TestMultiProgramNoMatch(t *testing.T) {
	mp := multiProg(t, 1, "tcp.dst_port = 443", "udp.dst_port = 53")
	mr := evalMulti(mp, tcpPkt(t, 1, 80))
	if mr.Mask != 0 {
		t.Fatalf("mask = %b, want 0", mr.Mask)
	}
}

func TestMultiProgramFreeSlots(t *testing.T) {
	mp := multiProg(t, 1, "", "tcp", "")
	if mp.Live() != 1 {
		t.Fatalf("Live() = %d, want 1", mp.Live())
	}
	mr := evalMulti(mp, tcpPkt(t, 1, 80))
	if mr.Mask != 0b010 {
		t.Fatalf("mask = %b, want 010", mr.Mask)
	}
	if mr.Res[0].Match || mr.Res[2].Match {
		t.Fatal("free slots produced matches")
	}
}

func TestMultiProgramSlotLimit(t *testing.T) {
	slots := make([]*SubProgram, MaxSubscriptions+1)
	if _, err := NewMultiProgram(1, slots); err == nil {
		t.Fatal("expected error for > MaxSubscriptions slots")
	}
	if _, err := NewMultiProgram(1, slots[:MaxSubscriptions]); err != nil {
		t.Fatalf("%d all-free slots should be fine: %v", MaxSubscriptions, err)
	}
}

func TestMultiProgramNilProgram(t *testing.T) {
	if _, err := NewMultiProgram(1, []*SubProgram{{ID: 1, Name: "x"}}); err == nil {
		t.Fatal("expected error for slot with nil program")
	}
}

// TestMultiProgramAgreesWithStandalone pins the core merge property: a
// slot's verdict over any packet is exactly the standalone program's
// verdict (plus the Sub attribution).
func TestMultiProgramAgreesWithStandalone(t *testing.T) {
	filters := []string{"tcp.port >= 100", "ipv4 and udp", "tls.sni ~ 'x'"}
	mp := multiProg(t, 7, filters...)
	var ps PacketScratch
	pkts := map[string]*layers.Parsed{
		"tcp443":  tcpPkt(t, 1234, 443),
		"tcp80":   tcpPkt(t, 99, 80),
		"udp53":   udpPkt(t, 53),
		"tcp6_80": tcp6Pkt(t, 80),
	}
	for i, src := range filters {
		standalone := MustCompile(src, Options{})
		for name, parsed := range pkts {
			want := standalone.PacketWith(parsed, &ps)
			mr := evalMulti(mp, parsed)
			got := mr.Res[i]
			if got.Match != want.Match || got.Terminal != want.Terminal || got.Node != want.Node {
				t.Fatalf("slot %d (%s) on %s: got %+v, want %+v", i, src, name, got, want)
			}
			if want.Match && got.Sub != i+100 {
				t.Fatalf("slot %d on %s: Sub = %d, want %d", i, name, got.Sub, i+100)
			}
			if ((mr.Mask>>uint(i))&1 == 1) != want.Match {
				t.Fatalf("slot %d on %s: mask bit %v, standalone match %v",
					i, name, (mr.Mask>>uint(i))&1 == 1, want.Match)
			}
		}
	}
}

func TestMergeFlowRulesUnion(t *testing.T) {
	cap := connectX5Like{}
	a := MustCompile("ipv4 and tcp.port = 443", Options{HW: cap})
	b := MustCompile("ipv4 and udp.port = 53", Options{HW: cap})
	merged := MergeFlowRules(a.Rules, b.Rules)
	if len(merged) != 2 {
		t.Fatalf("merged = %v, want 2 rules", merged)
	}
	joined := ""
	for _, r := range merged {
		joined += r.String() + "|"
	}
	if !strings.Contains(joined, "tcp.port = 443") || !strings.Contains(joined, "udp.port = 53") {
		t.Fatalf("merged rules missing inputs: %v", merged)
	}
}

func TestMergeFlowRulesSubsumption(t *testing.T) {
	cap := connectX5Like{}
	broad := MustCompile("ipv4 and tcp", Options{HW: cap})
	narrow := MustCompile("ipv4 and tcp.port = 443", Options{HW: cap})
	merged := MergeFlowRules(broad.Rules, narrow.Rules)
	if len(merged) != 1 || merged[0].String() != "ETH-IPV4-TCP -> RSS" {
		t.Fatalf("merged = %v, want broad rule only", merged)
	}
}

func TestMergeFlowRulesCatchAll(t *testing.T) {
	cap := connectX5Like{}
	a := MustCompile("ipv4 and tcp.port = 443", Options{HW: cap})
	b := MustCompile("eth", Options{HW: cap}) // catch-all
	merged := MergeFlowRules(a.Rules, b.Rules)
	if len(merged) != 1 || !merged[0].CatchAll() {
		t.Fatalf("merged = %v, want single catch-all", merged)
	}
	if MergeFlowRules() != nil {
		t.Fatal("empty merge should be nil")
	}
}
