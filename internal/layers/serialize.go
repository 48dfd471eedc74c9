package layers

import (
	"encoding/binary"
	"net/netip"
)

// Builder assembles packets for the traffic generator and tests. It is
// not on the receive hot path, so it favors clarity over allocation
// avoidance; the generator reuses one Builder and its scratch buffer.
type Builder struct {
	buf []byte
}

// PacketSpec describes a packet to build. Either v4 (SrcIP4/DstIP4 set)
// or v6 addresses are used depending on IsIPv6.
type PacketSpec struct {
	SrcMAC, DstMAC [6]byte
	VLANID         uint16 // 0 = untagged

	IsIPv6         bool
	SrcIP4, DstIP4 [4]byte
	SrcIP6, DstIP6 [16]byte
	TTL            uint8 // also IPv6 hop limit; 0 defaults to 64
	TOS            uint8

	Proto   uint8 // IPProtoTCP, IPProtoUDP, IPProtoICMP
	SrcPort uint16
	DstPort uint16

	// TCP fields (ignored for UDP/ICMP).
	Seq      uint32
	Ack      uint32
	TCPFlags uint8
	Window   uint16

	Payload []byte
}

// Build serializes spec into a fresh byte slice.
func (b *Builder) Build(spec *PacketSpec) []byte {
	ipPayloadLen := len(spec.Payload)
	switch spec.Proto {
	case IPProtoTCP:
		ipPayloadLen += TCPMinHeaderLen
	case IPProtoUDP:
		ipPayloadLen += UDPHeaderLen
	case IPProtoICMP, IPProtoICMPv6:
		ipPayloadLen += 4
	}
	ipLen := ipPayloadLen
	if spec.IsIPv6 {
		ipLen += IPv6HeaderLen
	} else {
		ipLen += IPv4MinHeaderLen
	}
	total := EthernetHeaderLen + ipLen
	if spec.VLANID != 0 {
		total += VLANHeaderLen
	}

	if cap(b.buf) < total {
		b.buf = make([]byte, total, total*2)
	}
	b.buf = b.buf[:total]
	pkt := b.buf
	for i := range pkt {
		pkt[i] = 0
	}

	// Ethernet.
	copy(pkt[0:6], spec.DstMAC[:])
	copy(pkt[6:12], spec.SrcMAC[:])
	off := 12
	if spec.VLANID != 0 {
		binary.BigEndian.PutUint16(pkt[off:], EtherTypeVLAN)
		off += 2
		binary.BigEndian.PutUint16(pkt[off:], spec.VLANID&0x0FFF)
		off += 2
	}
	if spec.IsIPv6 {
		binary.BigEndian.PutUint16(pkt[off:], EtherTypeIPv6)
	} else {
		binary.BigEndian.PutUint16(pkt[off:], EtherTypeIPv4)
	}
	off += 2

	ttl := spec.TTL
	if ttl == 0 {
		ttl = 64
	}

	// IP header.
	ipStart := off
	if spec.IsIPv6 {
		pkt[off] = 6 << 4
		binary.BigEndian.PutUint16(pkt[off+4:], uint16(ipPayloadLen))
		pkt[off+6] = spec.Proto
		pkt[off+7] = ttl
		copy(pkt[off+8:off+24], spec.SrcIP6[:])
		copy(pkt[off+24:off+40], spec.DstIP6[:])
		off += IPv6HeaderLen
	} else {
		pkt[off] = 4<<4 | 5 // version 4, IHL 5
		pkt[off+1] = spec.TOS
		binary.BigEndian.PutUint16(pkt[off+2:], uint16(IPv4MinHeaderLen+ipPayloadLen))
		pkt[off+8] = ttl
		pkt[off+9] = spec.Proto
		copy(pkt[off+12:off+16], spec.SrcIP4[:])
		copy(pkt[off+16:off+20], spec.DstIP4[:])
		cs := Checksum(pkt[off:off+IPv4MinHeaderLen], 0)
		binary.BigEndian.PutUint16(pkt[off+10:], cs)
		off += IPv4MinHeaderLen
	}
	_ = ipStart

	// Transport header.
	switch spec.Proto {
	case IPProtoTCP:
		binary.BigEndian.PutUint16(pkt[off:], spec.SrcPort)
		binary.BigEndian.PutUint16(pkt[off+2:], spec.DstPort)
		binary.BigEndian.PutUint32(pkt[off+4:], spec.Seq)
		binary.BigEndian.PutUint32(pkt[off+8:], spec.Ack)
		pkt[off+12] = 5 << 4 // data offset 5 words
		pkt[off+13] = spec.TCPFlags
		win := spec.Window
		if win == 0 {
			win = 65535
		}
		binary.BigEndian.PutUint16(pkt[off+14:], win)
		off += TCPMinHeaderLen
	case IPProtoUDP:
		binary.BigEndian.PutUint16(pkt[off:], spec.SrcPort)
		binary.BigEndian.PutUint16(pkt[off+2:], spec.DstPort)
		binary.BigEndian.PutUint16(pkt[off+4:], uint16(UDPHeaderLen+len(spec.Payload)))
		off += UDPHeaderLen
	case IPProtoICMP, IPProtoICMPv6:
		pkt[off] = 8 // echo request
		off += 4
	}

	copy(pkt[off:], spec.Payload)
	out := make([]byte, total)
	copy(out, pkt)
	return out
}

// ParseAddr4 converts a dotted-quad string to a 4-byte array, panicking
// on malformed input. For tests and static generator configuration.
func ParseAddr4(s string) [4]byte {
	a := netip.MustParseAddr(s)
	if !a.Is4() {
		panic("layers: not an IPv4 address: " + s)
	}
	return a.As4()
}

// ParseAddr16 converts an IPv6 address string to a 16-byte array,
// panicking on malformed input.
func ParseAddr16(s string) [16]byte {
	a := netip.MustParseAddr(s)
	return a.As16()
}
