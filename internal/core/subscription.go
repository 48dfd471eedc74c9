// Package core implements Retina's runtime data pipeline (paper §5): the
// per-core processing loop that applies the decomposed filter stages,
// tracks connections, lazily reassembles streams, parses application
// sessions, and executes user callbacks.
//
// One Core serves one receive queue. Cores share nothing: each owns its
// connection table, parser instances, and stage counters, exactly as the
// paper's per-core design prescribes. Callbacks run inline on the owning
// core; a subscription used across cores must make its own state safe.
package core

import (
	"retina/internal/conntrack"
	"retina/internal/layers"
	"retina/internal/proto"
)

// Level is the subscription's data abstraction level (§3.2.2).
type Level uint8

const (
	// LevelPacket delivers raw frames in arrival order.
	LevelPacket Level = iota
	// LevelConnection delivers per-connection records at termination.
	LevelConnection
	// LevelSession delivers parsed application-layer sessions.
	LevelSession
	// LevelStream delivers fully reconstructed byte-streams as ordered
	// chunks — the example of an additional subscribable type the paper
	// gives in §3.3. Stream bytes are buffered only until the filter's
	// verdict; out-of-scope connections never have their bytes copied.
	LevelStream
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelPacket:
		return "packet"
	case LevelConnection:
		return "connection"
	case LevelSession:
		return "session"
	case LevelStream:
		return "stream"
	}
	return "?"
}

// Packet is the raw-packet subscription datum.
//
// Both the *Packet and its Data are valid ONLY for the duration of the
// callback. Data aliases the mbuf's pooled buffer: the buffer is freed
// when the callback returns and may be recycled for a new packet
// immediately after, at which point a retained slice silently changes
// contents. The struct itself is a per-core scratch that is overwritten
// by the next delivery. Callbacks that need the datum past their return
// must copy the struct by value and the bytes explicitly
// (append([]byte(nil), p.Data...)); the async dispatcher does exactly
// this.
type Packet struct {
	Data   []byte
	Tick   uint64
	CoreID int
}

// ConnRecord is the connection-record subscription datum, delivered when
// a matched connection terminates, expires, or is flushed at shutdown.
// A record is never written after delivery and may be kept for as long
// as a callback likes; like SessionEvents, records come from per-core
// batches, so a kept record keeps the rest of its batch alive.
type ConnRecord struct {
	Tuple   layers.FiveTuple
	Service string

	FirstTick uint64
	LastTick  uint64

	PktsOrig, PktsResp       uint64
	BytesOrig, BytesResp     uint64
	PayloadOrig, PayloadResp uint64
	OOOOrig, OOOResp         uint64

	Established bool
	SynSeen     bool
	FinSeen     bool
	RstSeen     bool

	// Why tells how the record left the table.
	Why    conntrack.ExpireReason
	CoreID int
}

// DurationTicks is the connection's active duration in virtual ticks.
func (r *ConnRecord) DurationTicks() uint64 { return r.LastTick - r.FirstTick }

// SingleSYN reports whether the record is an unanswered SYN — the
// connection shape that dominates the paper's campus traffic (65%).
func (r *ConnRecord) SingleSYN() bool {
	return r.SynSeen && !r.Established && r.PktsResp == 0
}

// SessionEvent is the application-session subscription datum.
//
// The event, its Session and the session's Data are never written after
// delivery, so a callback may keep any of them for as long as it likes.
// The core hands events out of per-core batches, one slot per delivery;
// a kept event keeps the rest of its batch alive, and a kept TLS
// handshake its connection's parser.
type SessionEvent struct {
	Session *proto.Session
	Tuple   layers.FiveTuple
	Tick    uint64
	CoreID  int
}

// TLS returns the session as a TLS handshake, or nil.
func (e *SessionEvent) TLS() *proto.TLSHandshake {
	h, _ := e.Session.Data.(*proto.TLSHandshake)
	return h
}

// HTTP returns the session as an HTTP transaction, or nil.
func (e *SessionEvent) HTTP() *proto.HTTPTransaction {
	h, _ := e.Session.Data.(*proto.HTTPTransaction)
	return h
}

// StreamChunk is one in-order run of reconstructed stream bytes for a
// byte-stream subscription. Data is owned by the callback (it is copied
// out of framework buffers exactly once, when the connection matches).
type StreamChunk struct {
	Tuple  layers.FiveTuple
	Orig   bool // originator→responder direction
	Seq    uint32
	Data   []byte
	Tick   uint64
	CoreID int
}

// Subscription couples the user's callback with a data level — the
// Subscribable/Trackable pair of Appendix A. Exactly one On* callback
// matching Level must be set.
type Subscription struct {
	Level Level

	// OnPacket receives raw frames (LevelPacket).
	OnPacket func(*Packet)
	// OnConn receives connection records (LevelConnection).
	OnConn func(*ConnRecord)
	// OnSession receives parsed sessions (LevelSession).
	OnSession func(*SessionEvent)
	// OnStream receives reconstructed byte-stream chunks (LevelStream).
	OnStream func(*StreamChunk)

	// SessionProtos lists application parsers the data type itself
	// requires (e.g. a TLS-handshake subscription needs "tls" even when
	// the filter never mentions it). Merged with the filter's protocols
	// to populate the parser registry.
	SessionProtos []string
}

// Validate checks level/callback consistency.
func (s *Subscription) Validate() error {
	switch s.Level {
	case LevelPacket:
		if s.OnPacket == nil {
			return errNoCallback
		}
	case LevelConnection:
		if s.OnConn == nil {
			return errNoCallback
		}
	case LevelSession:
		if s.OnSession == nil {
			return errNoCallback
		}
	case LevelStream:
		if s.OnStream == nil {
			return errNoCallback
		}
	}
	return nil
}

type coreError string

func (e coreError) Error() string { return string(e) }

const errNoCallback = coreError("core: subscription has no callback for its level")
