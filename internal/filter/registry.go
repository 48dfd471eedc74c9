package filter

import (
	"fmt"
	"net/netip"

	"retina/internal/layers"
)

// Layer identifies which processing stage evaluates a predicate.
// Packet predicates run in the (hardware and software) packet filters,
// connection predicates run after protocol identification, and session
// predicates run once an application-layer session is fully parsed.
type Layer uint8

const (
	LayerPacket Layer = iota
	LayerConnection
	LayerSession
)

// String names the layer.
func (l Layer) String() string {
	switch l {
	case LayerPacket:
		return "packet"
	case LayerConnection:
		return "connection"
	case LayerSession:
		return "session"
	}
	return "?"
}

// ConnView is the filter's view of a tracked connection, used by the
// connection filter to evaluate unary application-protocol predicates
// ("tls", "http"). Implemented by the connection tracker.
type ConnView interface {
	// ServiceName returns the identified application protocol ("tls",
	// "http", ...) or "" if identification is still in progress.
	ServiceName() string
}

// Session is the filter's view of a parsed application-layer session,
// used by the session filter. Implemented by protocol modules.
type Session interface {
	// ProtoName returns the session's protocol ("tls", "http", ...).
	ProtoName() string
	// StringField returns a named string field ("sni", "user_agent").
	StringField(name string) (string, bool)
	// IntField returns a named integer field ("version", "status_code").
	IntField(name string) (uint64, bool)
}

// FieldDef describes one filterable protocol field. A packet-layer
// field carries exactly one typed accessor, matching its Kind: Int for
// KindInt, Addr for KindIP. Each returns up to two candidate values
// (two for direction-agnostic fields like "port" and "addr", which match
// if either direction satisfies the predicate) and how many it set. The
// compiled packet program, the interpreter and the NIC's rule matchers
// all read fields through these accessors.
type FieldDef struct {
	Name  string
	Kind  Kind  // value type the field yields
	Layer Layer // stage at which the field becomes available

	Int  func(p *layers.Parsed) (a, b uint64, n int)
	Addr func(p *layers.Parsed) (a, b netip.Addr, n int)
}

// LayerSlot names where in a decoded packet a LayerTest looks.
type LayerSlot uint8

const (
	// SlotNone marks a protocol that is not packet-matchable
	// (connection-layer protocols).
	SlotNone LayerSlot = iota
	// SlotFrame matches any frame with at least one decoded layer.
	SlotFrame
	// SlotL3 and SlotL4 test the network and transport layer.
	SlotL3
	SlotL4
	// SlotStack tests every decoded layer (encapsulations such as VLAN
	// that are neither L3 nor L4).
	SlotStack
)

// LayerTest is a unary packet-layer protocol predicate in data form:
// the protocol is present when the layer in Slot is one of Types, a
// bitmask over layers.LayerType (bit t set accepts type t). Being data
// rather than a function lets the compiled packet program test it
// inline.
type LayerTest struct {
	Slot  LayerSlot
	Types uint16
}

// layerBits builds a LayerTest type mask.
func layerBits(ts ...layers.LayerType) uint16 {
	var m uint16
	for _, t := range ts {
		m |= 1 << t
	}
	return m
}

// Match reports whether the decoded packet carries the protocol.
func (t LayerTest) Match(p *layers.Parsed) bool {
	switch t.Slot {
	case SlotFrame:
		return p.NLayers > 0
	case SlotL3:
		return t.Types&(1<<p.L3) != 0
	case SlotL4:
		return t.Types&(1<<p.L4) != 0
	case SlotStack:
		for _, l := range p.Decoded[:p.NLayers] {
			if t.Types&(1<<l) != 0 {
				return true
			}
		}
	}
	return false
}

// ProtoDef is a protocol module's filtering metadata: where the protocol
// sits (packet header vs connection-identified), how it is encapsulated,
// and which fields it exposes. This is the extensibility point the paper
// describes in §3.3 — identifiers are not hard-coded into the framework
// but exposed by registered modules.
type ProtoDef struct {
	Name    string
	Layer   Layer     // LayerPacket or LayerConnection
	Parents []string  // protocols this one may be encapsulated in
	Present LayerTest // unary packet-layer match (SlotNone if not packet-matchable)
	Fields  map[string]*FieldDef
}

// Registry maps protocol names to their modules.
type Registry struct {
	protos map[string]*ProtoDef
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{protos: make(map[string]*ProtoDef)}
}

// Register adds a protocol module. Registering a duplicate name or a
// parent that does not exist is an error.
func (r *Registry) Register(p *ProtoDef) error {
	if _, dup := r.protos[p.Name]; dup {
		return fmt.Errorf("filter: protocol %q already registered", p.Name)
	}
	for _, parent := range p.Parents {
		if _, ok := r.protos[parent]; !ok {
			return fmt.Errorf("filter: protocol %q declares unknown parent %q", p.Name, parent)
		}
	}
	r.protos[p.Name] = p
	return nil
}

// Proto looks up a protocol module by name.
func (r *Registry) Proto(name string) (*ProtoDef, bool) {
	p, ok := r.protos[name]
	return p, ok
}

// Field resolves proto.field, returning an error naming the closest
// problem (unknown protocol vs unknown field).
func (r *Registry) Field(proto, field string) (*ProtoDef, *FieldDef, error) {
	p, ok := r.protos[proto]
	if !ok {
		return nil, nil, fmt.Errorf("filter: unknown protocol %q", proto)
	}
	f, ok := p.Fields[field]
	if !ok {
		return nil, nil, fmt.Errorf("filter: protocol %q has no field %q", proto, field)
	}
	return p, f, nil
}

// Validate type-checks a predicate against the registry: the protocol
// and field must exist and the operator/value combination must be
// meaningful for the field's kind.
func (r *Registry) Validate(pred Predicate) error {
	p, ok := r.protos[pred.Proto]
	if !ok {
		return fmt.Errorf("filter: unknown protocol %q", pred.Proto)
	}
	if pred.Unary() {
		return nil
	}
	f, ok := p.Fields[pred.Field]
	if !ok {
		return fmt.Errorf("filter: protocol %q has no field %q", pred.Proto, pred.Field)
	}
	switch f.Kind {
	case KindInt:
		switch pred.Op {
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			if pred.Val.Kind != KindInt {
				return fmt.Errorf("filter: %s: int field compared to %s", pred, pred.Val.Kind)
			}
		case OpIn:
			if pred.Val.Kind != KindIntRange {
				return fmt.Errorf("filter: %s: 'in' on int field requires an int range", pred)
			}
		default:
			return fmt.Errorf("filter: %s: operator %s not valid for int field", pred, pred.Op)
		}
	case KindString:
		switch pred.Op {
		case OpEq, OpNe:
			if pred.Val.Kind != KindString {
				return fmt.Errorf("filter: %s: string field compared to %s", pred, pred.Val.Kind)
			}
		case OpMatches:
			if pred.Val.Re == nil {
				return fmt.Errorf("filter: %s: 'matches' pattern not compiled", pred)
			}
		default:
			return fmt.Errorf("filter: %s: operator %s not valid for string field", pred, pred.Op)
		}
	case KindIP:
		switch pred.Op {
		case OpEq, OpNe:
			if pred.Val.Kind != KindIP {
				return fmt.Errorf("filter: %s: address field compared to %s", pred, pred.Val.Kind)
			}
		case OpIn:
			if pred.Val.Kind != KindIPPrefix {
				return fmt.Errorf("filter: %s: 'in' on address field requires a prefix", pred)
			}
		default:
			return fmt.Errorf("filter: %s: operator %s not valid for address field", pred, pred.Op)
		}
	}
	return nil
}

// FieldLayer returns the stage at which pred can be evaluated.
func (r *Registry) FieldLayer(pred Predicate) (Layer, error) {
	p, ok := r.protos[pred.Proto]
	if !ok {
		return 0, fmt.Errorf("filter: unknown protocol %q", pred.Proto)
	}
	if pred.Unary() {
		return p.Layer, nil
	}
	f, ok := p.Fields[pred.Field]
	if !ok {
		return 0, fmt.Errorf("filter: protocol %q has no field %q", pred.Proto, pred.Field)
	}
	return f.Layer, nil
}

// DefaultRegistry builds the registry with the protocol modules Retina
// ships: eth, ipv4, ipv6, tcp, udp, icmp (packet layer) and tls, http,
// ssh, dns (connection layer with session fields).
func DefaultRegistry() *Registry {
	r := NewRegistry()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	intField := func(name string, get func(p *layers.Parsed) (uint64, uint64, int)) *FieldDef {
		return &FieldDef{Name: name, Kind: KindInt, Layer: LayerPacket, Int: get}
	}
	addrField := func(name string, get func(p *layers.Parsed) (netip.Addr, netip.Addr, int)) *FieldDef {
		return &FieldDef{Name: name, Kind: KindIP, Layer: LayerPacket, Addr: get}
	}

	must(r.Register(&ProtoDef{
		Name:    "eth",
		Layer:   LayerPacket,
		Present: LayerTest{Slot: SlotFrame},
		Fields: map[string]*FieldDef{
			"ethertype": intField("ethertype", func(p *layers.Parsed) (uint64, uint64, int) {
				return uint64(p.Eth.EtherType), 0, 1
			}),
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "vlan",
		Layer:   LayerPacket,
		Parents: []string{"eth"},
		Present: LayerTest{Slot: SlotStack, Types: layerBits(layers.LayerTypeVLAN)},
		Fields: map[string]*FieldDef{
			"id": intField("id", func(p *layers.Parsed) (uint64, uint64, int) {
				if !p.Has(layers.LayerTypeVLAN) {
					return 0, 0, 0
				}
				return uint64(p.VLAN.ID), 0, 1
			}),
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "ipv4",
		Layer:   LayerPacket,
		Parents: []string{"eth"},
		Present: LayerTest{Slot: SlotL3, Types: layerBits(layers.LayerTypeIPv4)},
		Fields: map[string]*FieldDef{
			"addr": addrField("addr", func(p *layers.Parsed) (netip.Addr, netip.Addr, int) {
				return netip.AddrFrom4(p.IP4.SrcIP), netip.AddrFrom4(p.IP4.DstIP), 2
			}),
			"src_addr": addrField("src_addr", func(p *layers.Parsed) (netip.Addr, netip.Addr, int) {
				return netip.AddrFrom4(p.IP4.SrcIP), netip.Addr{}, 1
			}),
			"dst_addr": addrField("dst_addr", func(p *layers.Parsed) (netip.Addr, netip.Addr, int) {
				return netip.AddrFrom4(p.IP4.DstIP), netip.Addr{}, 1
			}),
			"ttl": intField("ttl", func(p *layers.Parsed) (uint64, uint64, int) {
				return uint64(p.IP4.TTL), 0, 1
			}),
			"tos": intField("tos", func(p *layers.Parsed) (uint64, uint64, int) {
				return uint64(p.IP4.TOS), 0, 1
			}),
			"length": intField("length", func(p *layers.Parsed) (uint64, uint64, int) {
				return uint64(p.IP4.Length), 0, 1
			}),
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "ipv6",
		Layer:   LayerPacket,
		Parents: []string{"eth"},
		Present: LayerTest{Slot: SlotL3, Types: layerBits(layers.LayerTypeIPv6)},
		Fields: map[string]*FieldDef{
			"addr": addrField("addr", func(p *layers.Parsed) (netip.Addr, netip.Addr, int) {
				return netip.AddrFrom16(p.IP6.SrcIP), netip.AddrFrom16(p.IP6.DstIP), 2
			}),
			"src_addr": addrField("src_addr", func(p *layers.Parsed) (netip.Addr, netip.Addr, int) {
				return netip.AddrFrom16(p.IP6.SrcIP), netip.Addr{}, 1
			}),
			"dst_addr": addrField("dst_addr", func(p *layers.Parsed) (netip.Addr, netip.Addr, int) {
				return netip.AddrFrom16(p.IP6.DstIP), netip.Addr{}, 1
			}),
			"hop_limit": intField("hop_limit", func(p *layers.Parsed) (uint64, uint64, int) {
				return uint64(p.IP6.HopLimit), 0, 1
			}),
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "tcp",
		Layer:   LayerPacket,
		Parents: []string{"ipv4", "ipv6"},
		Present: LayerTest{Slot: SlotL4, Types: layerBits(layers.LayerTypeTCP)},
		Fields: map[string]*FieldDef{
			"port": intField("port", func(p *layers.Parsed) (uint64, uint64, int) {
				return uint64(p.TCP.SrcPort), uint64(p.TCP.DstPort), 2
			}),
			"src_port": intField("src_port", func(p *layers.Parsed) (uint64, uint64, int) {
				return uint64(p.TCP.SrcPort), 0, 1
			}),
			"dst_port": intField("dst_port", func(p *layers.Parsed) (uint64, uint64, int) {
				return uint64(p.TCP.DstPort), 0, 1
			}),
			"flags": intField("flags", func(p *layers.Parsed) (uint64, uint64, int) {
				return uint64(p.TCP.Flags), 0, 1
			}),
			"window": intField("window", func(p *layers.Parsed) (uint64, uint64, int) {
				return uint64(p.TCP.Window), 0, 1
			}),
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "udp",
		Layer:   LayerPacket,
		Parents: []string{"ipv4", "ipv6"},
		Present: LayerTest{Slot: SlotL4, Types: layerBits(layers.LayerTypeUDP)},
		Fields: map[string]*FieldDef{
			"port": intField("port", func(p *layers.Parsed) (uint64, uint64, int) {
				return uint64(p.UDP.SrcPort), uint64(p.UDP.DstPort), 2
			}),
			"src_port": intField("src_port", func(p *layers.Parsed) (uint64, uint64, int) {
				return uint64(p.UDP.SrcPort), 0, 1
			}),
			"dst_port": intField("dst_port", func(p *layers.Parsed) (uint64, uint64, int) {
				return uint64(p.UDP.DstPort), 0, 1
			}),
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "icmp",
		Layer:   LayerPacket,
		Parents: []string{"ipv4", "ipv6"},
		Present: LayerTest{Slot: SlotL4, Types: layerBits(layers.LayerTypeICMPv4, layers.LayerTypeICMPv6)},
		Fields: map[string]*FieldDef{
			"type": intField("type", func(p *layers.Parsed) (uint64, uint64, int) {
				if p.L4 != layers.LayerTypeICMPv4 && p.L4 != layers.LayerTypeICMPv6 {
					return 0, 0, 0
				}
				return uint64(p.ICMP.Type), 0, 1
			}),
		},
	}))

	sessionStr := func(name string) *FieldDef {
		return &FieldDef{Name: name, Kind: KindString, Layer: LayerSession}
	}
	sessionInt := func(name string) *FieldDef {
		return &FieldDef{Name: name, Kind: KindInt, Layer: LayerSession}
	}

	must(r.Register(&ProtoDef{
		Name:    "tls",
		Layer:   LayerConnection,
		Parents: []string{"tcp"},
		Fields: map[string]*FieldDef{
			"sni":           sessionStr("sni"),
			"cipher":        sessionStr("cipher"),
			"version":       sessionInt("version"),
			"client_random": sessionStr("client_random"),
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "http",
		Layer:   LayerConnection,
		Parents: []string{"tcp"},
		Fields: map[string]*FieldDef{
			"user_agent":  sessionStr("user_agent"),
			"host":        sessionStr("host"),
			"method":      sessionStr("method"),
			"uri":         sessionStr("uri"),
			"status_code": sessionInt("status_code"),
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "ssh",
		Layer:   LayerConnection,
		Parents: []string{"tcp"},
		Fields: map[string]*FieldDef{
			"client_version": sessionStr("client_version"),
			"server_version": sessionStr("server_version"),
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "smtp",
		Layer:   LayerConnection,
		Parents: []string{"tcp"},
		Fields: map[string]*FieldDef{
			"helo":      sessionStr("helo"),
			"mail_from": sessionStr("mail_from"),
			"rcpt_to":   sessionStr("rcpt_to"),
			"subject":   sessionStr("subject"),
			"size":      sessionInt("size"),
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "quic",
		Layer:   LayerConnection,
		Parents: []string{"udp"},
		Fields: map[string]*FieldDef{
			"sni":     sessionStr("sni"),
			"version": sessionInt("version"),
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "dns",
		Layer:   LayerConnection,
		Parents: []string{"udp"},
		Fields: map[string]*FieldDef{
			"query_name": sessionStr("query_name"),
			"query_type": sessionInt("query_type"),
		},
	}))

	return r
}
