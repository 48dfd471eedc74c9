package filter

import (
	"testing"

	"retina/internal/layers"
)

// A single-branch match allocates nothing, through Program.PacketWith
// and through MultiProgram.PacketInto, for a field of each kind (integer,
// address equality, address prefix), a unary protocol and a
// connection-stage mark; both engines.
func TestPacketFilterSingleBranchAllocFree(t *testing.T) {
	pkt := tcpPkt(t, 5555, 8080)
	pkt6 := tcp6Pkt(t, 443)
	for _, tc := range []struct {
		src string
		pkt *layers.Parsed
	}{
		{"tcp.port = 8080", pkt},
		{"tcp.dst_port in 8000..9000", pkt},
		{"ipv4.src_addr = 10.1.1.1", pkt},
		{"ipv4.addr in 10.2.0.0/16", pkt},
		{"ipv6.addr = 2001:db8::1", pkt6},
		{"ipv6.dst_addr in 3::/16", pkt6},
		{"ipv6", pkt6},
		{"tls", pkt},
		{"", pkt},
	} {
		for _, eng := range []Engine{EngineCompiled, EngineInterpreted} {
			prog := MustCompile(tc.src, Options{Engine: eng})
			mp, err := NewMultiProgram(1, []*SubProgram{{ID: 7, Prog: prog}})
			if err != nil {
				t.Fatal(err)
			}
			var s PacketScratch
			row := make([]Result, 1)
			r := prog.PacketWith(tc.pkt, &s)
			if !r.Match || r.Frontier != nil {
				t.Fatalf("%q engine %d: result %+v, want a single-branch match", tc.src, eng, r)
			}
			if mask := mp.PacketInto(tc.pkt, &s, row); mask != 1 || row[0].Sub != 7 || row[0].Node != r.Node {
				t.Fatalf("%q engine %d: PacketInto mask %b row %+v, standalone %+v", tc.src, eng, mask, row[0], r)
			}
			if n := testing.AllocsPerRun(100, func() { r = prog.PacketWith(tc.pkt, &s) }); n != 0 {
				t.Errorf("%q engine %d: PacketWith allocates %v per packet", tc.src, eng, n)
			}
			if n := testing.AllocsPerRun(100, func() { mp.PacketInto(tc.pkt, &s, row) }); n != 0 {
				t.Errorf("%q engine %d: PacketInto allocates %v per packet", tc.src, eng, n)
			}
		}
	}
}

// The program is specialized once per class of layer values its tests
// tell apart: for "tls" the L3 classes are ipv4, ipv6 and the rest, the
// L4 classes tcp and the rest, each with and without a decoded frame.
func TestPacketProgOneVariantPerLayerClass(t *testing.T) {
	prog := MustCompile("tls", Options{})
	if n := len(prog.packet.variants); n != 2*3*2 {
		t.Fatalf("%d variants, want 12", n)
	}
}
