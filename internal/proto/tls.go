package proto

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"unsafe"

	"retina/internal/conntrack"
)

// TLS record and handshake constants.
const (
	tlsRecordHandshake = 0x16
	tlsRecordHeaderLen = 5

	tlsHSClientHello = 1
	tlsHSServerHello = 2
	tlsHSCertificate = 11

	tlsExtServerName        = 0
	tlsExtSupportedVersions = 43

	// tlsMaxBuffer bounds per-direction handshake buffering; handshakes
	// larger than this are treated as protocol errors rather than
	// allowed to consume unbounded memory on hostile streams.
	tlsMaxBuffer = 64 << 10

	// tlsInlineSNI and tlsInlineCiphers size the parser's inline storage
	// for the server name and the offered cipher suites. They are chosen
	// so the parser stays in the 320-byte size class; longer values spill
	// to the heap (TestTLSParserSizeClass).
	tlsInlineSNI     = 48
	tlsInlineCiphers = 24
)

// TLSHandshake is a parsed TLS handshake transcript: the subscription
// data type behind Figure 1. Fields cover both hello messages.
//
// A delivered handshake is never written again and may be retained
// indefinitely, fields included. It lives inside its connection's
// parser, and SNI and CipherSuites usually point into the parser's own
// storage, so a retained handshake keeps that one parser allocation
// alive.
type TLSHandshake struct {
	ClientVersion uint16 // legacy_version from ClientHello
	ServerVersion uint16 // negotiated version (supported_versions aware)
	SNI           string
	CipherSuites  []uint16 // offered
	Cipher        uint16   // selected by the server
	ClientRandom  [32]byte
	ServerRandom  [32]byte
	CertSeen      bool
}

// ProtoName implements Data.
func (h *TLSHandshake) ProtoName() string { return "tls" }

// StringField implements Data.
func (h *TLSHandshake) StringField(name string) (string, bool) {
	switch name {
	case "sni":
		return h.SNI, true
	case "cipher":
		return CipherSuiteName(h.Cipher), true
	case "client_random":
		return hex.EncodeToString(h.ClientRandom[:]), true
	}
	return "", false
}

// IntField implements Data.
func (h *TLSHandshake) IntField(name string) (uint64, bool) {
	switch name {
	case "version":
		return uint64(h.ServerVersion), true
	}
	return 0, false
}

// CipherName returns the selected cipher suite's name.
func (h *TLSHandshake) CipherName() string { return CipherSuiteName(h.Cipher) }

// CipherSuiteName maps common cipher suite values to their IANA names,
// falling back to hex for unknown values.
func CipherSuiteName(id uint16) string {
	switch id {
	case 0x1301:
		return "TLS_AES_128_GCM_SHA256"
	case 0x1302:
		return "TLS_AES_256_GCM_SHA384"
	case 0x1303:
		return "TLS_CHACHA20_POLY1305_SHA256"
	case 0xC02F:
		return "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256"
	case 0xC030:
		return "TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384"
	case 0xC02B:
		return "TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256"
	case 0xC02C:
		return "TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384"
	case 0xCCA8:
		return "TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256"
	case 0x009C:
		return "TLS_RSA_WITH_AES_128_GCM_SHA256"
	case 0x002F:
		return "TLS_RSA_WITH_AES_128_CBC_SHA"
	}
	return fmt.Sprintf("0x%04X", id)
}

// TLSParser parses TLS handshakes from reassembled streams. It stops
// parsing once the handshake transcript is complete — by design, Retina
// never processes the encrypted portion of the connection (§5.2).
//
// The handshake, its session record, the server name's bytes and the
// offered cipher suites live inside the parser, so a parsed handshake
// costs one heap object, the parser itself. Only a server name longer
// than tlsInlineSNI or after the first one stored (a second
// ClientHello's), or more than tlsInlineCiphers suites, take a heap
// allocation of their own.
type TLSParser struct {
	// bufs holds, per direction, only the incomplete record tail a Parse
	// call could not finish; complete records parse straight out of the
	// caller's bytes whenever nothing is buffered.
	bufs [2][]byte
	hs   TLSHandshake
	sess Session
	out  [1]*Session
	// pending marks out as not yet drained.
	pending bool
	seenCH  bool
	seenSH  bool
	done    bool
	failed  bool
	// sniUsed marks sni as written. Its bytes are written once and
	// never again: a string viewing them must not change.
	sniUsed bool
	sni     [tlsInlineSNI]byte
	ciphers [tlsInlineCiphers]uint16
}

// NewTLSParser creates a parser for one connection.
func NewTLSParser() *TLSParser { return &TLSParser{} }

// Name implements Parser.
func (p *TLSParser) Name() string { return "tls" }

// Probe implements Parser: a TLS stream starts with a handshake record
// (type 0x16, version 3.x) in the client direction.
func (p *TLSParser) Probe(data []byte, orig bool) ProbeResult {
	if len(data) == 0 {
		return ProbeUnsure
	}
	if len(data) < 3 {
		if data[0] != tlsRecordHandshake {
			return ProbeReject
		}
		return ProbeUnsure
	}
	if data[0] == tlsRecordHandshake && data[1] == 0x03 && data[2] <= 0x04 {
		return ProbeMatch
	}
	return ProbeReject
}

// Parse implements Parser.
func (p *TLSParser) Parse(data []byte, orig bool) ParseResult {
	return p.parse(data, orig, len(p.bufs[dirIdx(orig)]) == 0)
}

// parse feeds data to direction orig. inPlace parses complete records
// straight out of data and copies only an incomplete tail; it requires
// an empty buffer for the direction. Otherwise data is appended to the
// buffer first. Both paths see the same bytes in the same order, so
// they parse identically (FuzzTLSInPlace checks this).
func (p *TLSParser) parse(data []byte, orig, inPlace bool) ParseResult {
	if p.done {
		return ParseDone
	}
	if p.failed {
		return ParseError
	}
	d := dirIdx(orig)
	if len(p.bufs[d])+len(data) > tlsMaxBuffer {
		p.failed = true
		return ParseError
	}
	buf := data
	if !inPlace {
		p.bufs[d] = append(p.bufs[d], data...)
		buf = p.bufs[d]
	}
	rest, res := p.consume(buf, orig)
	if res != ParseContinue {
		return res
	}
	if inPlace {
		p.bufs[d] = append(p.bufs[d][:0], rest...)
	} else {
		p.bufs[d] = rest
	}
	if p.seenCH && p.seenSH {
		p.finish()
		return ParseDone
	}
	return ParseContinue
}

func dirIdx(orig bool) int {
	if orig {
		return 0
	}
	return 1
}

// consume processes the complete TLS records at the front of buf and
// returns the unconsumed tail (an incomplete record).
func (p *TLSParser) consume(buf []byte, orig bool) ([]byte, ParseResult) {
	for len(buf) >= tlsRecordHeaderLen {
		if buf[0] != tlsRecordHandshake {
			// Non-handshake record (e.g. ChangeCipherSpec, appdata):
			// if the transcript is complete enough we are done,
			// otherwise this stream is not a handshake we understand.
			if p.seenCH && p.seenSH {
				p.finish()
				return nil, ParseDone
			}
			if buf[0] == 0x14 || buf[0] == 0x17 {
				// Skip CCS/early-data records while waiting.
				recLen := int(binary.BigEndian.Uint16(buf[3:5]))
				if len(buf) < tlsRecordHeaderLen+recLen {
					break
				}
				buf = buf[tlsRecordHeaderLen+recLen:]
				continue
			}
			p.failed = true
			return nil, ParseError
		}
		recLen := int(binary.BigEndian.Uint16(buf[3:5]))
		if recLen == 0 || recLen > 1<<14+256 {
			p.failed = true
			return nil, ParseError
		}
		if len(buf) < tlsRecordHeaderLen+recLen {
			break // incomplete record
		}
		rec := buf[tlsRecordHeaderLen : tlsRecordHeaderLen+recLen]
		if err := p.parseHandshakeRecord(rec, orig); err != nil {
			p.failed = true
			return nil, ParseError
		}
		buf = buf[tlsRecordHeaderLen+recLen:]
	}
	return buf, ParseContinue
}

// parseHandshakeRecord walks the handshake messages inside one record.
// (Messages spanning records are rare in hellos; a spanning message
// simply parses on the next record boundary since we re-buffer.)
func (p *TLSParser) parseHandshakeRecord(rec []byte, orig bool) error {
	for len(rec) >= 4 {
		typ := rec[0]
		msgLen := int(rec[1])<<16 | int(rec[2])<<8 | int(rec[3])
		if len(rec) < 4+msgLen {
			return nil // spans records; wait for more data
		}
		body := rec[4 : 4+msgLen]
		switch typ {
		case tlsHSClientHello:
			if err := p.parseClientHello(body); err != nil {
				return err
			}
			p.seenCH = true
		case tlsHSServerHello:
			if err := p.parseServerHello(body); err != nil {
				return err
			}
			p.seenSH = true
		case tlsHSCertificate:
			p.hs.CertSeen = true
		}
		rec = rec[4+msgLen:]
	}
	return nil
}

func (p *TLSParser) parseClientHello(b []byte) error {
	if len(b) < 2+32+1 {
		return errShort("client hello")
	}
	p.hs.ClientVersion = binary.BigEndian.Uint16(b[0:2])
	copy(p.hs.ClientRandom[:], b[2:34])
	off := 34
	// Session ID.
	if off >= len(b) {
		return errShort("session id")
	}
	sidLen := int(b[off])
	off += 1 + sidLen
	// Cipher suites.
	if off+2 > len(b) {
		return errShort("cipher suites")
	}
	csLen := int(binary.BigEndian.Uint16(b[off : off+2]))
	off += 2
	if off+csLen > len(b) || csLen%2 != 0 {
		return errShort("cipher suites body")
	}
	cs := p.hs.CipherSuites[:0]
	if cs == nil {
		cs = p.ciphers[:0]
	}
	for i := 0; i < csLen; i += 2 {
		cs = append(cs, binary.BigEndian.Uint16(b[off+i:off+i+2]))
	}
	p.hs.CipherSuites = cs
	off += csLen
	// Compression methods.
	if off >= len(b) {
		return errShort("compression")
	}
	compLen := int(b[off])
	off += 1 + compLen
	// Extensions (optional).
	if off+2 > len(b) {
		return nil
	}
	extLen := int(binary.BigEndian.Uint16(b[off : off+2]))
	off += 2
	if off+extLen > len(b) {
		return errShort("extensions")
	}
	return p.parseExtensions(b[off:off+extLen], true)
}

func (p *TLSParser) parseServerHello(b []byte) error {
	if len(b) < 2+32+1 {
		return errShort("server hello")
	}
	p.hs.ServerVersion = binary.BigEndian.Uint16(b[0:2])
	copy(p.hs.ServerRandom[:], b[2:34])
	off := 34
	sidLen := int(b[off])
	off += 1 + sidLen
	if off+2 > len(b) {
		return errShort("server cipher")
	}
	p.hs.Cipher = binary.BigEndian.Uint16(b[off : off+2])
	off += 2
	if off >= len(b) {
		return nil
	}
	off++ // compression method
	if off+2 > len(b) {
		return nil
	}
	extLen := int(binary.BigEndian.Uint16(b[off : off+2]))
	off += 2
	if off+extLen > len(b) {
		return nil
	}
	return p.parseExtensions(b[off:off+extLen], false)
}

func (p *TLSParser) parseExtensions(b []byte, client bool) error {
	for len(b) >= 4 {
		typ := binary.BigEndian.Uint16(b[0:2])
		l := int(binary.BigEndian.Uint16(b[2:4]))
		if 4+l > len(b) {
			return errShort("extension")
		}
		body := b[4 : 4+l]
		switch typ {
		case tlsExtServerName:
			if client && len(body) >= 5 {
				// server_name_list: len(2) type(1) name_len(2) name.
				nameLen := int(binary.BigEndian.Uint16(body[3:5]))
				if 5+nameLen <= len(body) && body[2] == 0 {
					p.setSNI(body[5 : 5+nameLen])
				}
			}
		case tlsExtSupportedVersions:
			if !client && len(body) == 2 {
				// Server selected version (TLS 1.3 style).
				p.hs.ServerVersion = binary.BigEndian.Uint16(body)
			}
		}
		b = b[4+l:]
	}
	return nil
}

// setSNI stores the server name: in the inline bytes the first time a
// name fits there, as a heap copy otherwise.
func (p *TLSParser) setSNI(name []byte) {
	switch {
	case len(name) == 0:
		p.hs.SNI = ""
	case !p.sniUsed && len(name) <= len(p.sni):
		p.sniUsed = true
		n := copy(p.sni[:], name)
		p.hs.SNI = unsafe.String(&p.sni[0], n)
	default:
		p.hs.SNI = string(name)
	}
}

func (p *TLSParser) finish() {
	if p.done {
		return
	}
	p.done = true
	// A connection carries one handshake, so its session is always the first.
	p.sess = Session{ID: 1, Proto: "tls", Data: &p.hs}
	p.out[0] = &p.sess
	p.pending = true
	p.bufs[0], p.bufs[1] = nil, nil // release handshake buffers
}

// DrainSessions implements Parser.
func (p *TLSParser) DrainSessions() []*Session {
	if !p.pending {
		return nil
	}
	p.pending = false
	return p.out[:]
}

// SessionMatchState implements Parser: after the handshake is delivered,
// there is no reason to keep tracking the encrypted connection
// (Figure 4b's "Done → DEL" transition).
func (p *TLSParser) SessionMatchState() conntrack.State { return conntrack.StateDelete }

// SessionNoMatchState implements Parser.
func (p *TLSParser) SessionNoMatchState() conntrack.State { return conntrack.StateDelete }

type errShortT string

func (e errShortT) Error() string { return "tls: truncated " + string(e) }

func errShort(what string) error { return errShortT(what) }

// BufferedBytes reports handshake bytes currently buffered (memory
// accounting for Figure 8).
func (p *TLSParser) BufferedBytes() int { return len(p.bufs[0]) + len(p.bufs[1]) }
