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

// PacketAccessor extracts up to two candidate values for a field from a
// decoded packet (two for direction-agnostic fields like "port" and
// "addr", which match if either direction satisfies the predicate).
// It returns the number of values written.
type PacketAccessor func(p *layers.Parsed, out *[2]Value) int

// FieldDef describes one filterable protocol field.
type FieldDef struct {
	Name   string
	Kind   Kind           // value type the field yields
	Layer  Layer          // stage at which the field becomes available
	Access PacketAccessor // non-nil only for packet-layer fields
}

// ProtoDef is a protocol module's filtering metadata: where the protocol
// sits (packet header vs connection-identified), how it is encapsulated,
// and which fields it exposes. This is the extensibility point the paper
// describes in §3.3 — identifiers are not hard-coded into the framework
// but exposed by registered modules.
type ProtoDef struct {
	Name    string
	Layer   Layer                       // LayerPacket or LayerConnection
	Parents []string                    // protocols this one may be encapsulated in
	Match   func(p *layers.Parsed) bool // unary packet-layer match
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

func ip4Value(b [4]byte) Value {
	return Value{Kind: KindIP, IP: netip.AddrFrom4(b)}
}

func ip16Value(b [16]byte) Value {
	return Value{Kind: KindIP, IP: netip.AddrFrom16(b)}
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

	must(r.Register(&ProtoDef{
		Name:  "eth",
		Layer: LayerPacket,
		Match: func(p *layers.Parsed) bool { return p.NLayers > 0 },
		Fields: map[string]*FieldDef{
			"ethertype": {Name: "ethertype", Kind: KindInt, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = Value{Kind: KindInt, Int: uint64(p.Eth.EtherType)}
					return 1
				}},
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "vlan",
		Layer:   LayerPacket,
		Parents: []string{"eth"},
		Match:   func(p *layers.Parsed) bool { return p.Has(layers.LayerTypeVLAN) },
		Fields: map[string]*FieldDef{
			"id": {Name: "id", Kind: KindInt, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					if !p.Has(layers.LayerTypeVLAN) {
						return 0
					}
					out[0] = Value{Kind: KindInt, Int: uint64(p.VLAN.ID)}
					return 1
				}},
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "ipv4",
		Layer:   LayerPacket,
		Parents: []string{"eth"},
		Match:   func(p *layers.Parsed) bool { return p.L3 == layers.LayerTypeIPv4 },
		Fields: map[string]*FieldDef{
			"addr": {Name: "addr", Kind: KindIP, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = ip4Value(p.IP4.SrcIP)
					out[1] = ip4Value(p.IP4.DstIP)
					return 2
				}},
			"src_addr": {Name: "src_addr", Kind: KindIP, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = ip4Value(p.IP4.SrcIP)
					return 1
				}},
			"dst_addr": {Name: "dst_addr", Kind: KindIP, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = ip4Value(p.IP4.DstIP)
					return 1
				}},
			"ttl": {Name: "ttl", Kind: KindInt, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = Value{Kind: KindInt, Int: uint64(p.IP4.TTL)}
					return 1
				}},
			"tos": {Name: "tos", Kind: KindInt, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = Value{Kind: KindInt, Int: uint64(p.IP4.TOS)}
					return 1
				}},
			"length": {Name: "length", Kind: KindInt, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = Value{Kind: KindInt, Int: uint64(p.IP4.Length)}
					return 1
				}},
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "ipv6",
		Layer:   LayerPacket,
		Parents: []string{"eth"},
		Match:   func(p *layers.Parsed) bool { return p.L3 == layers.LayerTypeIPv6 },
		Fields: map[string]*FieldDef{
			"addr": {Name: "addr", Kind: KindIP, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = ip16Value(p.IP6.SrcIP)
					out[1] = ip16Value(p.IP6.DstIP)
					return 2
				}},
			"src_addr": {Name: "src_addr", Kind: KindIP, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = ip16Value(p.IP6.SrcIP)
					return 1
				}},
			"dst_addr": {Name: "dst_addr", Kind: KindIP, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = ip16Value(p.IP6.DstIP)
					return 1
				}},
			"hop_limit": {Name: "hop_limit", Kind: KindInt, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = Value{Kind: KindInt, Int: uint64(p.IP6.HopLimit)}
					return 1
				}},
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "tcp",
		Layer:   LayerPacket,
		Parents: []string{"ipv4", "ipv6"},
		Match:   func(p *layers.Parsed) bool { return p.L4 == layers.LayerTypeTCP },
		Fields: map[string]*FieldDef{
			"port": {Name: "port", Kind: KindInt, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = Value{Kind: KindInt, Int: uint64(p.TCP.SrcPort)}
					out[1] = Value{Kind: KindInt, Int: uint64(p.TCP.DstPort)}
					return 2
				}},
			"src_port": {Name: "src_port", Kind: KindInt, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = Value{Kind: KindInt, Int: uint64(p.TCP.SrcPort)}
					return 1
				}},
			"dst_port": {Name: "dst_port", Kind: KindInt, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = Value{Kind: KindInt, Int: uint64(p.TCP.DstPort)}
					return 1
				}},
			"flags": {Name: "flags", Kind: KindInt, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = Value{Kind: KindInt, Int: uint64(p.TCP.Flags)}
					return 1
				}},
			"window": {Name: "window", Kind: KindInt, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = Value{Kind: KindInt, Int: uint64(p.TCP.Window)}
					return 1
				}},
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "udp",
		Layer:   LayerPacket,
		Parents: []string{"ipv4", "ipv6"},
		Match:   func(p *layers.Parsed) bool { return p.L4 == layers.LayerTypeUDP },
		Fields: map[string]*FieldDef{
			"port": {Name: "port", Kind: KindInt, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = Value{Kind: KindInt, Int: uint64(p.UDP.SrcPort)}
					out[1] = Value{Kind: KindInt, Int: uint64(p.UDP.DstPort)}
					return 2
				}},
			"src_port": {Name: "src_port", Kind: KindInt, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = Value{Kind: KindInt, Int: uint64(p.UDP.SrcPort)}
					return 1
				}},
			"dst_port": {Name: "dst_port", Kind: KindInt, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					out[0] = Value{Kind: KindInt, Int: uint64(p.UDP.DstPort)}
					return 1
				}},
		},
	}))

	must(r.Register(&ProtoDef{
		Name:    "icmp",
		Layer:   LayerPacket,
		Parents: []string{"ipv4", "ipv6"},
		Match: func(p *layers.Parsed) bool {
			return p.L4 == layers.LayerTypeICMPv4 || p.L4 == layers.LayerTypeICMPv6
		},
		Fields: map[string]*FieldDef{
			"type": {Name: "type", Kind: KindInt, Layer: LayerPacket,
				Access: func(p *layers.Parsed, out *[2]Value) int {
					if p.L4 != layers.LayerTypeICMPv4 && p.L4 != layers.LayerTypeICMPv6 {
						return 0
					}
					out[0] = Value{Kind: KindInt, Int: uint64(p.ICMP.Type)}
					return 1
				}},
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
