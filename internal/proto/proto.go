// Package proto implements Retina's application-layer protocol modules
// (paper Appendix A): per-connection parsers that probe reassembled
// byte-streams for a protocol, parse its sessions, and expose fields the
// session filter can match on.
//
// Parsers are stateful per-connection objects created from registered
// factories once a connection's protocol is identified; identification
// itself runs on one shared, stateless prober per protocol. They
// consume in-order payload bytes as delivered by the light-weight
// reassembler and emit Sessions — parsed application-layer units (a TLS
// handshake, an HTTP transaction, ...) — which implement filter.Session.
package proto

import (
	"fmt"

	"retina/internal/conntrack"
)

// ProbeResult is the outcome of protocol identification on a stream
// prefix (ConnParsable::probe).
type ProbeResult uint8

const (
	// ProbeUnsure means not enough data yet; keep probing.
	ProbeUnsure ProbeResult = iota
	// ProbeMatch means the stream is this protocol.
	ProbeMatch
	// ProbeReject means the stream is definitely not this protocol.
	ProbeReject
)

// ParseResult is the outcome of feeding bytes to a parser
// (ConnParsable::parse).
type ParseResult uint8

const (
	// ParseContinue means the parser wants more data.
	ParseContinue ParseResult = iota
	// ParseDone means the parser has finished all parsing it will do
	// for this connection (sessions may be pending in DrainSessions).
	ParseDone
	// ParseError means the stream violated the protocol; the connection
	// leaves the Parse state.
	ParseError
)

// Session is one parsed application-layer unit. Data implements
// filter.Session and is also what packet callbacks receive.
type Session struct {
	ID    uint64
	Proto string
	Data  Data
}

// Data is the parsed representation behind a session. It satisfies
// filter.Session so generated session filters can evaluate predicates on
// it without knowing concrete types.
type Data interface {
	ProtoName() string
	StringField(name string) (string, bool)
	IntField(name string) (uint64, bool)
}

// Parser is a per-connection protocol parser (the ConnParsable trait).
// Implementations receive in-order stream bytes per direction.
//
// Probe must be a pure function of its arguments: it may not read or
// write parser state. A Registry probes every connection with one
// shared instance per protocol and builds the connection's own parser
// (from the factory) only once Probe returns ProbeMatch, so an
// unidentified or rejected connection costs no parser allocation.
type Parser interface {
	// Name returns the protocol name as used in filters ("tls").
	Name() string
	// Probe inspects an in-order payload prefix and reports whether the
	// stream speaks this protocol. orig marks originator→responder data.
	// It must depend on data and orig alone (see above).
	Probe(data []byte, orig bool) ProbeResult
	// Parse consumes in-order payload bytes. data is only valid for the
	// call; a parser that needs bytes later must copy them.
	Parse(data []byte, orig bool) ParseResult
	// DrainSessions removes and returns completed, undelivered sessions.
	DrainSessions() []*Session
	// SessionMatchState is the connection's default state after a
	// session matched the filter and was delivered (Figure 4: TLS
	// deletes mid-connection, HTTP keeps tracking).
	SessionMatchState() conntrack.State
	// SessionNoMatchState is the default state after a session failed
	// the filter.
	SessionNoMatchState() conntrack.State
}

// Factory creates a fresh parser for a new connection.
type Factory func() Parser

// maxProtocols bounds a registry's size: connections track their
// remaining probe candidates as a bitmask over registry indices.
const maxProtocols = 64

// Registry maps protocol names to parser factories — the "Parser
// Registry" box of Figure 2. The runtime populates one per subscription
// with only the protocols its filter can match, so probing work is
// proportional to the subscription, not the protocol ecosystem.
// Protocols are indexed 0..Len()-1 in registration order.
type Registry struct {
	names     []string
	factories []Factory
	// probers holds one instance per protocol, built at registration and
	// shared by every connection for Probe only (Probe is pure).
	probers []Parser
}

// NewRegistry returns an empty parser registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a parser factory under its protocol name.
func (r *Registry) Register(name string, f Factory) error {
	for _, n := range r.names {
		if n == name {
			return fmt.Errorf("proto: parser %q already registered", name)
		}
	}
	if len(r.names) == maxProtocols {
		return fmt.Errorf("proto: registry holds at most %d protocols", maxProtocols)
	}
	r.names = append(r.names, name)
	r.factories = append(r.factories, f)
	r.probers = append(r.probers, f())
	return nil
}

// Len reports the number of registered protocols.
func (r *Registry) Len() int { return len(r.names) }

// Names lists registered protocols in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.names...) }

// Prober returns protocol i's shared instance. Only its Name and Probe
// may be called: it serves every connection at once.
func (r *Registry) Prober(i int) Parser { return r.probers[i] }

// New instantiates protocol i's parser for one connection.
func (r *Registry) New(i int) Parser { return r.factories[i]() }

// DefaultFactories returns factories for all built-in protocols.
func DefaultFactories() map[string]Factory {
	return map[string]Factory{
		"tls":  func() Parser { return NewTLSParser() },
		"http": func() Parser { return NewHTTPParser() },
		"ssh":  func() Parser { return NewSSHParser() },
		"dns":  func() Parser { return NewDNSParser() },
		"smtp": func() Parser { return NewSMTPParser() },
		"quic": func() Parser { return NewQUICParser() },
	}
}

// BuildRegistry creates a registry containing the named built-in
// protocols (unknown names are an error).
func BuildRegistry(names []string) (*Registry, error) {
	return BuildRegistryWith(names, nil)
}

// BuildRegistryWith is BuildRegistry with additional factories layered
// over the built-ins — the hook user-defined protocol modules register
// through (Appendix A). Extra factories shadow built-ins of the same
// name.
func BuildRegistryWith(names []string, extra map[string]Factory) (*Registry, error) {
	all := DefaultFactories()
	for n, f := range extra {
		all[n] = f
	}
	r := NewRegistry()
	for _, n := range names {
		f, ok := all[n]
		if !ok {
			return nil, fmt.Errorf("proto: no parser for protocol %q", n)
		}
		if err := r.Register(n, f); err != nil {
			return nil, err
		}
	}
	return r, nil
}
