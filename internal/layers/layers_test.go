package layers

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	srcMAC = [6]byte{0x02, 0, 0, 0, 0, 1}
	dstMAC = [6]byte{0x02, 0, 0, 0, 0, 2}
)

func tcpSpec() *PacketSpec {
	return &PacketSpec{
		SrcMAC: srcMAC, DstMAC: dstMAC,
		SrcIP4: ParseAddr4("10.0.0.1"), DstIP4: ParseAddr4("192.168.1.2"),
		Proto: IPProtoTCP, SrcPort: 34567, DstPort: 443,
		Seq: 1000, Ack: 2000, TCPFlags: TCPSyn | TCPAck,
		Payload: []byte("hello tls"),
	}
}

func TestDecodeTCPRoundTrip(t *testing.T) {
	var b Builder
	pkt := b.Build(tcpSpec())

	var p Parsed
	if err := p.DecodeLayers(pkt); err != nil {
		t.Fatal(err)
	}
	if p.L3 != LayerTypeIPv4 || p.L4 != LayerTypeTCP {
		t.Fatalf("L3=%v L4=%v", p.L3, p.L4)
	}
	if p.Eth.EtherType != EtherTypeIPv4 {
		t.Fatalf("EtherType = %#x", p.Eth.EtherType)
	}
	if p.IP4.SrcIP != ParseAddr4("10.0.0.1") || p.IP4.DstIP != ParseAddr4("192.168.1.2") {
		t.Fatalf("IP addrs = %v %v", p.IP4.SrcIP, p.IP4.DstIP)
	}
	if p.IP4.TTL != 64 || p.IP4.Protocol != IPProtoTCP {
		t.Fatalf("TTL=%d Proto=%d", p.IP4.TTL, p.IP4.Protocol)
	}
	if p.TCP.SrcPort != 34567 || p.TCP.DstPort != 443 {
		t.Fatalf("ports %d %d", p.TCP.SrcPort, p.TCP.DstPort)
	}
	if p.TCP.Seq != 1000 || p.TCP.Ack != 2000 {
		t.Fatalf("seq/ack %d %d", p.TCP.Seq, p.TCP.Ack)
	}
	if !p.TCP.SYN() || !p.TCP.ACK() || p.TCP.FIN() {
		t.Fatalf("flags %#x", p.TCP.Flags)
	}
	if string(p.Payload()) != "hello tls" {
		t.Fatalf("payload %q", p.Payload())
	}
}

func TestDecodeUDP(t *testing.T) {
	var b Builder
	spec := &PacketSpec{
		SrcMAC: srcMAC, DstMAC: dstMAC,
		SrcIP4: ParseAddr4("1.2.3.4"), DstIP4: ParseAddr4("5.6.7.8"),
		Proto: IPProtoUDP, SrcPort: 5353, DstPort: 53,
		Payload: []byte("dns query"),
	}
	pkt := b.Build(spec)
	var p Parsed
	if err := p.DecodeLayers(pkt); err != nil {
		t.Fatal(err)
	}
	if p.L4 != LayerTypeUDP {
		t.Fatalf("L4 = %v", p.L4)
	}
	if p.UDP.SrcPort != 5353 || p.UDP.DstPort != 53 {
		t.Fatalf("ports %d %d", p.UDP.SrcPort, p.UDP.DstPort)
	}
	if string(p.Payload()) != "dns query" {
		t.Fatalf("payload %q", p.Payload())
	}
	if int(p.UDP.Length) != UDPHeaderLen+9 {
		t.Fatalf("UDP length %d", p.UDP.Length)
	}
}

func TestDecodeIPv6(t *testing.T) {
	var b Builder
	spec := &PacketSpec{
		SrcMAC: srcMAC, DstMAC: dstMAC, IsIPv6: true,
		SrcIP6: ParseAddr16("2001:db8::1"), DstIP6: ParseAddr16("2001:db8::2"),
		Proto: IPProtoTCP, SrcPort: 4444, DstPort: 22,
		Payload: []byte("SSH-2.0"),
	}
	pkt := b.Build(spec)
	var p Parsed
	if err := p.DecodeLayers(pkt); err != nil {
		t.Fatal(err)
	}
	if p.L3 != LayerTypeIPv6 || p.L4 != LayerTypeTCP {
		t.Fatalf("L3=%v L4=%v", p.L3, p.L4)
	}
	if p.IP6.SrcIP != ParseAddr16("2001:db8::1") {
		t.Fatalf("src %v", p.IP6.SrcIP)
	}
	if p.TCP.DstPort != 22 {
		t.Fatalf("dst port %d", p.TCP.DstPort)
	}
}

func TestDecodeVLAN(t *testing.T) {
	var b Builder
	spec := tcpSpec()
	spec.VLANID = 42
	pkt := b.Build(spec)
	var p Parsed
	if err := p.DecodeLayers(pkt); err != nil {
		t.Fatal(err)
	}
	if !p.Has(LayerTypeVLAN) {
		t.Fatal("VLAN layer missing")
	}
	if p.VLAN.ID != 42 {
		t.Fatalf("VLAN ID = %d", p.VLAN.ID)
	}
	if p.L4 != LayerTypeTCP || p.TCP.DstPort != 443 {
		t.Fatal("inner layers not decoded through VLAN tag")
	}
}

func TestDecodeTruncated(t *testing.T) {
	var p Parsed
	if err := p.DecodeLayers([]byte{1, 2, 3}); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// Truncated inner layer: decode stops, no error, no L4.
	var b Builder
	pkt := b.Build(tcpSpec())
	short := pkt[:EthernetHeaderLen+IPv4MinHeaderLen+4]
	// Fix IPv4 total length so only the TCP header is truncated.
	if err := p.DecodeLayers(short); err != nil {
		t.Fatalf("truncated inner: %v", err)
	}
	if p.L4 != LayerTypeNone {
		t.Fatalf("L4 = %v, want none", p.L4)
	}
}

func TestDecodeNonIP(t *testing.T) {
	frame := make([]byte, 60)
	copy(frame[0:6], dstMAC[:])
	copy(frame[6:12], srcMAC[:])
	frame[12], frame[13] = 0x08, 0x06 // ARP
	var p Parsed
	if err := p.DecodeLayers(frame); err != nil {
		t.Fatal(err)
	}
	if p.L3 != LayerTypeNone || p.NLayers != 1 {
		t.Fatalf("L3=%v NLayers=%d", p.L3, p.NLayers)
	}
}

func TestIPv4HeaderChecksumValid(t *testing.T) {
	var b Builder
	pkt := b.Build(tcpSpec())
	ip := pkt[EthernetHeaderLen : EthernetHeaderLen+IPv4MinHeaderLen]
	if got := Checksum(ip, 0); got != 0 {
		t.Fatalf("header checksum verify = %#x, want 0", got)
	}
}

func TestFiveTupleFrom(t *testing.T) {
	var b Builder
	pkt := b.Build(tcpSpec())
	var p Parsed
	if err := p.DecodeLayers(pkt); err != nil {
		t.Fatal(err)
	}
	ft, ok := FiveTupleFrom(&p)
	if !ok {
		t.Fatal("FiveTupleFrom failed")
	}
	if ft.SrcPort != 34567 || ft.DstPort != 443 || ft.Proto != IPProtoTCP {
		t.Fatalf("five-tuple %+v", ft)
	}
}

func TestFiveTupleSymmetry(t *testing.T) {
	ft := FiveTuple{SrcPort: 1234, DstPort: 443, Proto: IPProtoTCP}
	copy(ft.SrcIP[:4], []byte{10, 0, 0, 1})
	copy(ft.DstIP[:4], []byte{10, 0, 0, 2})
	rev := ft.Reverse()
	if ft.SymHash() != rev.SymHash() {
		t.Fatal("SymHash not symmetric")
	}
	c1, _ := ft.Canonical()
	c2, _ := rev.Canonical()
	if c1 != c2 {
		t.Fatal("Canonical differs by direction")
	}
}

// endpointLessBytes is the byte-at-a-time reference order: the first
// differing address byte decides, then the ports.
func endpointLessBytes(ft FiveTuple) bool {
	for i := 0; i < 16; i++ {
		if ft.SrcIP[i] != ft.DstIP[i] {
			return ft.SrcIP[i] < ft.DstIP[i]
		}
	}
	return ft.SrcPort <= ft.DstPort
}

// Property: Canonical and IsCanonical follow the byte-wise endpoint
// order (address bytes, then ports) on random IPv4 and IPv6 tuples,
// including equal addresses, addresses differing in a single byte and
// equal ports. Connection orientation and RSS buckets depend on it.
func TestEndpointOrderIsByteOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200000; i++ {
		var ft FiveTuple
		ft.IsIPv6 = rng.Intn(2) == 0
		n := 4
		if ft.IsIPv6 {
			n = 16
		}
		for k := 0; k < n; k++ {
			ft.SrcIP[k] = byte(rng.Intn(256))
		}
		switch rng.Intn(3) {
		case 0: // independent addresses
			for k := 0; k < n; k++ {
				ft.DstIP[k] = byte(rng.Intn(256))
			}
		case 1: // equal addresses: the ports decide
			ft.DstIP = ft.SrcIP
		default: // one differing byte, anywhere in either word
			ft.DstIP = ft.SrcIP
			ft.DstIP[rng.Intn(n)] = byte(rng.Intn(256))
		}
		ft.SrcPort = uint16(rng.Intn(4))
		ft.DstPort = uint16(rng.Intn(4))
		if rng.Intn(2) == 0 {
			ft.SrcPort, ft.DstPort = uint16(rng.Intn(65536)), uint16(rng.Intn(65536))
		}
		want := endpointLessBytes(ft)
		if got := ft.IsCanonical(); got != want {
			t.Fatalf("%+v: IsCanonical %v, byte order %v", ft, got, want)
		}
		if c, ok := ft.Canonical(); ok != want || (ok && c != ft) || (!ok && c != ft.Reverse()) {
			t.Fatalf("%+v: Canonical disagrees with the byte order (%v)", ft, want)
		}
	}
}

// Property: symmetric hash is direction-independent for arbitrary tuples.
func TestQuickSymHashSymmetric(t *testing.T) {
	f := func(sip, dip [16]byte, sp, dp uint16, proto uint8) bool {
		ft := FiveTuple{SrcIP: sip, DstIP: dip, SrcPort: sp, DstPort: dp, Proto: proto}
		return ft.SymHash() == ft.Reverse().SymHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: any TCP spec round-trips through build+decode.
func TestQuickBuildDecodeRoundTrip(t *testing.T) {
	var b Builder
	f := func(sip, dip [4]byte, sp, dp uint16, seq, ack uint32, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		spec := &PacketSpec{
			SrcMAC: srcMAC, DstMAC: dstMAC,
			SrcIP4: sip, DstIP4: dip,
			Proto: IPProtoTCP, SrcPort: sp, DstPort: dp,
			Seq: seq, Ack: ack, TCPFlags: TCPAck, Payload: payload,
		}
		pkt := b.Build(spec)
		var p Parsed
		if err := p.DecodeLayers(pkt); err != nil {
			return false
		}
		return p.IP4.SrcIP == sip && p.IP4.DstIP == dip &&
			p.TCP.SrcPort == sp && p.TCP.DstPort == dp &&
			p.TCP.Seq == seq && p.TCP.Ack == ack &&
			bytes.Equal(p.Payload(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of 0001 f203 f4f5 f6f7 = 0x220d (ones
	// complement of 0xddf2).
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data, 0); got != 0x220d {
		t.Fatalf("Checksum = %#x, want 0x220d", got)
	}
}

func TestLayerTypeString(t *testing.T) {
	cases := map[LayerType]string{
		LayerTypeEthernet: "eth", LayerTypeIPv4: "ipv4", LayerTypeIPv6: "ipv6",
		LayerTypeTCP: "tcp", LayerTypeUDP: "udp", LayerTypeNone: "none",
	}
	for lt, want := range cases {
		if lt.String() != want {
			t.Errorf("%d.String() = %q, want %q", lt, lt.String(), want)
		}
	}
}

func BenchmarkDecodeLayers(b *testing.B) {
	var bld Builder
	pkt := bld.Build(tcpSpec())
	var p Parsed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.DecodeLayers(pkt); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(pkt)))
}

func BenchmarkSymHash(b *testing.B) {
	ft := FiveTuple{SrcPort: 1234, DstPort: 443, Proto: IPProtoTCP}
	copy(ft.SrcIP[:4], []byte{10, 0, 0, 1})
	copy(ft.DstIP[:4], []byte{10, 0, 0, 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ft.SymHash()
	}
}
