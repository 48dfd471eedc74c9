package layers

import (
	"encoding/binary"
	"fmt"
	"net"
)

// Parsed holds the decoded view of one packet. Reusing a single Parsed
// across packets avoids all per-packet allocation (the
// DecodingLayerParser idiom): every decode overwrites the same structs.
type Parsed struct {
	Eth  Ethernet
	VLAN VLAN
	IP4  IPv4
	IP6  IPv6
	TCP  TCP
	UDP  UDP
	ICMP ICMP

	// Decoded lists the layer types recognized, outermost first.
	Decoded [6]LayerType
	NLayers int

	// L3 and L4 record which network/transport layer is present
	// (LayerTypeNone if absent) so callers avoid scanning Decoded.
	L3 LayerType
	L4 LayerType

	payload []byte
}

// Reset clears per-packet state. DecodeLayers calls it implicitly.
func (p *Parsed) Reset() {
	p.NLayers = 0
	p.L3 = LayerTypeNone
	p.L4 = LayerTypeNone
	p.payload = nil
}

func (p *Parsed) addLayer(t LayerType) {
	if p.NLayers < len(p.Decoded) {
		p.Decoded[p.NLayers] = t
		p.NLayers++
	}
}

// Has reports whether layer t was decoded.
func (p *Parsed) Has(t LayerType) bool {
	for i := 0; i < p.NLayers; i++ {
		if p.Decoded[i] == t {
			return true
		}
	}
	return false
}

// Payload returns the innermost (transport) payload, or nil.
func (p *Parsed) Payload() []byte { return p.payload }

// DecodeLayers decodes an Ethernet frame into p, following VLAN, IPv4 or
// IPv6, then TCP, UDP or ICMP. It stops silently at the first layer it
// cannot follow — matching the semantics of the generated packet filter in
// the paper's Figure 3, where an unparsable inner layer simply fails the
// corresponding `if let`. A truncated *outer* header returns ErrTruncated.
func (p *Parsed) DecodeLayers(data []byte) error {
	p.Reset()
	if err := p.Eth.DecodeFromBytes(data); err != nil {
		return err
	}
	p.addLayer(LayerTypeEthernet)
	et := p.Eth.EtherType
	next := p.Eth.Payload()

	if et == EtherTypeVLAN {
		if err := p.VLAN.DecodeFromBytes(next); err != nil {
			return err
		}
		p.addLayer(LayerTypeVLAN)
		et = p.VLAN.EtherType
		next = p.VLAN.Payload()
	}

	var proto uint8
	switch et {
	case EtherTypeIPv4:
		if err := p.IP4.DecodeFromBytes(next); err != nil {
			return nil // inner parse failure: not an error, just no L3
		}
		p.addLayer(LayerTypeIPv4)
		p.L3 = LayerTypeIPv4
		proto = p.IP4.Protocol
		next = p.IP4.Payload()
		if p.IP4.FragOff != 0 {
			return nil // non-first fragment: no L4 headers present
		}
	case EtherTypeIPv6:
		if err := p.IP6.DecodeFromBytes(next); err != nil {
			return nil
		}
		p.addLayer(LayerTypeIPv6)
		p.L3 = LayerTypeIPv6
		proto = p.IP6.NextHeader
		next = p.IP6.Payload()
	default:
		return nil
	}

	switch proto {
	case IPProtoTCP:
		if err := p.TCP.DecodeFromBytes(next); err != nil {
			return nil
		}
		p.addLayer(LayerTypeTCP)
		p.L4 = LayerTypeTCP
		p.payload = p.TCP.Payload()
	case IPProtoUDP:
		if err := p.UDP.DecodeFromBytes(next); err != nil {
			return nil
		}
		p.addLayer(LayerTypeUDP)
		p.L4 = LayerTypeUDP
		p.payload = p.UDP.Payload()
	case IPProtoICMP:
		if err := p.ICMP.DecodeFromBytes(next); err != nil {
			return nil
		}
		p.addLayer(LayerTypeICMPv4)
		p.L4 = LayerTypeICMPv4
		p.payload = p.ICMP.Payload()
	case IPProtoICMPv6:
		if err := p.ICMP.DecodeFromBytes(next); err != nil {
			return nil
		}
		p.addLayer(LayerTypeICMPv6)
		p.L4 = LayerTypeICMPv6
		p.payload = p.ICMP.Payload()
	}
	return nil
}

// FiveTuple identifies a connection. IPv4 addresses occupy the first four
// bytes of the address arrays with the rest zero, mirroring how the
// connection table treats both families uniformly.
type FiveTuple struct {
	SrcIP   [16]byte
	DstIP   [16]byte
	SrcPort uint16
	DstPort uint16
	Proto   uint8
	IsIPv6  bool
	// pad rounds the tuple to 40 bytes and is always zero. Go copies a
	// 38-byte tuple as overlapping unaligned moves, which made
	// FiveTupleFrom, Canonical and IsCanonical together about 30% slower
	// on campus tuples (Go 1.24, amd64).
	pad [2]byte
}

// FiveTupleFrom extracts the five-tuple from a parsed packet.
// ok is false when the packet has no L3+L4 pair the tracker can key on.
func FiveTupleFrom(p *Parsed) (ft FiveTuple, ok bool) {
	switch p.L3 {
	case LayerTypeIPv4:
		copy(ft.SrcIP[:4], p.IP4.SrcIP[:])
		copy(ft.DstIP[:4], p.IP4.DstIP[:])
		ft.Proto = p.IP4.Protocol
	case LayerTypeIPv6:
		ft.SrcIP = p.IP6.SrcIP
		ft.DstIP = p.IP6.DstIP
		ft.Proto = p.IP6.NextHeader
		ft.IsIPv6 = true
	default:
		return ft, false
	}
	switch p.L4 {
	case LayerTypeTCP:
		ft.SrcPort = p.TCP.SrcPort
		ft.DstPort = p.TCP.DstPort
	case LayerTypeUDP:
		ft.SrcPort = p.UDP.SrcPort
		ft.DstPort = p.UDP.DstPort
	default:
		return ft, false
	}
	return ft, true
}

// String renders the tuple as "proto src:port > dst:port" for logs and
// connection traces.
func (ft FiveTuple) String() string {
	src := net.IP(ft.SrcIP[:4])
	dst := net.IP(ft.DstIP[:4])
	if ft.IsIPv6 {
		src = net.IP(ft.SrcIP[:])
		dst = net.IP(ft.DstIP[:])
	}
	return fmt.Sprintf("%d %s:%d > %s:%d", ft.Proto, src, ft.SrcPort, dst, ft.DstPort)
}

// Reverse returns the five-tuple of the opposite direction.
func (ft FiveTuple) Reverse() FiveTuple {
	r := ft
	r.SrcIP, r.DstIP = ft.DstIP, ft.SrcIP
	r.SrcPort, r.DstPort = ft.DstPort, ft.SrcPort
	return r
}

// Canonical returns a direction-independent form of the five-tuple (the
// lexicographically smaller endpoint first) and whether the original was
// already in canonical order. Both directions of a connection map to the
// same canonical tuple, which the per-core connection table keys on.
func (ft FiveTuple) Canonical() (FiveTuple, bool) {
	if ft.endpointLess() {
		return ft, true
	}
	return ft.Reverse(), false
}

// IsCanonical reports whether the five-tuple is already in canonical
// order, i.e. Canonical() would return it unchanged. The connection
// table records this orientation bit at creation so later packets are
// classified by direction without comparing whole tuples (which
// misclassifies self-symmetric tuples: both directions compare equal).
func (ft FiveTuple) IsCanonical() bool { return ft.endpointLess() }

// endpointLess orders the endpoints by address bytes, then port. The
// byte loop stays: comparing two big-endian words measured slower on
// campus tuples, whose endpoints mostly differ in the first byte.
func (ft FiveTuple) endpointLess() bool {
	for i := 0; i < 16; i++ {
		if ft.SrcIP[i] != ft.DstIP[i] {
			return ft.SrcIP[i] < ft.DstIP[i]
		}
	}
	return ft.SrcPort <= ft.DstPort
}

// SymHash computes a symmetric (direction-independent) hash of the
// five-tuple using an FNV-1a over the canonicalized fields. Both
// directions of a connection hash identically, the property symmetric RSS
// provides in hardware.
func (ft FiveTuple) SymHash() uint32 {
	c, _ := ft.Canonical()
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= prime32
	}
	for _, b := range c.SrcIP {
		mix(b)
	}
	for _, b := range c.DstIP {
		mix(b)
	}
	mix(byte(c.SrcPort >> 8))
	mix(byte(c.SrcPort))
	mix(byte(c.DstPort >> 8))
	mix(byte(c.DstPort))
	mix(c.Proto)
	return h
}

// Checksum computes the Internet checksum over data with an initial sum,
// used for IPv4 header and TCP/UDP pseudo-header checksums.
func Checksum(data []byte, initial uint32) uint16 {
	sum := initial
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	for sum > 0xFFFF {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}
