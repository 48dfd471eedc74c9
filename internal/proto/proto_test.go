package proto

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"retina/internal/conntrack"
)

func TestRegistry(t *testing.T) {
	r, err := BuildRegistry([]string{"tls", "http"})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); len(got) != 2 || got[0] != "tls" || got[1] != "http" {
		t.Fatalf("Names = %v", got)
	}
	if r.Len() != 2 || r.New(0).Name() != "tls" || r.Prober(1).Name() != "http" {
		t.Fatalf("Len = %d, New(0) = %q, Prober(1) = %q", r.Len(), r.New(0).Name(), r.Prober(1).Name())
	}
	// Fresh instances per connection; one shared prober per protocol.
	if r.New(0) == r.New(0) {
		t.Fatal("registry reuses parser instances")
	}
	if r.Prober(0) != r.Prober(0) || r.Prober(0) == r.New(0) {
		t.Fatal("prober is not one shared instance apart from connection parsers")
	}
	if _, err := BuildRegistry([]string{"gopher"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if err := r.Register("tls", func() Parser { return NewTLSParser() }); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

// --- TLS ---

func tlsSpec() HelloSpec {
	var cr, sr [32]byte
	for i := range cr {
		cr[i] = byte(i)
		sr[i] = byte(255 - i)
	}
	return HelloSpec{
		SNI:          "video.netflix.com",
		Cipher:       0xC02F,
		CipherSuites: []uint16{0x1301, 0xC02F},
		ClientRandom: cr,
		ServerRandom: sr,
	}
}

func TestTLSRoundTrip(t *testing.T) {
	spec := tlsSpec()
	p := NewTLSParser()

	ch := BuildClientHello(spec)
	if got := p.Probe(ch, true); got != ProbeMatch {
		t.Fatalf("Probe(ClientHello) = %v", got)
	}
	if got := p.Parse(ch, true); got != ParseContinue {
		t.Fatalf("Parse(ClientHello) = %v", got)
	}
	sh := BuildServerHello(spec)
	if got := p.Parse(sh, false); got != ParseDone {
		t.Fatalf("Parse(ServerHello) = %v", got)
	}

	sessions := p.DrainSessions()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d", len(sessions))
	}
	hs := sessions[0].Data.(*TLSHandshake)
	if hs.SNI != "video.netflix.com" {
		t.Fatalf("SNI = %q", hs.SNI)
	}
	if hs.Cipher != 0xC02F {
		t.Fatalf("Cipher = %#x", hs.Cipher)
	}
	if hs.ClientRandom != spec.ClientRandom || hs.ServerRandom != spec.ServerRandom {
		t.Fatal("randoms not preserved")
	}
	if len(hs.CipherSuites) != 2 {
		t.Fatalf("offered suites = %v", hs.CipherSuites)
	}
	// Session fields for the filter.
	if v, ok := hs.StringField("sni"); !ok || v != "video.netflix.com" {
		t.Fatalf("StringField(sni) = %q %v", v, ok)
	}
	if v, ok := hs.StringField("cipher"); !ok || !strings.Contains(v, "AES_128_GCM") {
		t.Fatalf("StringField(cipher) = %q", v)
	}
	if v, ok := hs.IntField("version"); !ok || v != 0x0303 {
		t.Fatalf("IntField(version) = %#x", v)
	}
	if v, ok := hs.StringField("client_random"); !ok || len(v) != 64 {
		t.Fatalf("client_random hex = %q", v)
	}
	// Drain is destructive.
	if len(p.DrainSessions()) != 0 {
		t.Fatal("second drain returned sessions")
	}
}

func TestTLS13VersionExtension(t *testing.T) {
	spec := tlsSpec()
	spec.ServerVersion = 0x0304
	p := NewTLSParser()
	p.Parse(BuildClientHello(spec), true)
	p.Parse(BuildServerHello(spec), false)
	hs := p.DrainSessions()[0].Data.(*TLSHandshake)
	if hs.ServerVersion != 0x0304 {
		t.Fatalf("negotiated version = %#x, want 0x0304", hs.ServerVersion)
	}
}

func TestTLSSegmentedDelivery(t *testing.T) {
	// Handshake bytes arriving in small chunks must still parse.
	spec := tlsSpec()
	p := NewTLSParser()
	ch := BuildClientHello(spec)
	for i := 0; i < len(ch); i += 7 {
		end := i + 7
		if end > len(ch) {
			end = len(ch)
		}
		p.Parse(ch[i:end], true)
	}
	sh := BuildServerHello(spec)
	var last ParseResult
	for i := 0; i < len(sh); i += 3 {
		end := i + 3
		if end > len(sh) {
			end = len(sh)
		}
		last = p.Parse(sh[i:end], false)
	}
	if last != ParseDone {
		t.Fatalf("segmented parse = %v", last)
	}
	if hs := p.DrainSessions()[0].Data.(*TLSHandshake); hs.SNI != spec.SNI {
		t.Fatalf("SNI = %q", hs.SNI)
	}
}

func TestTLSProbeRejectsNonTLS(t *testing.T) {
	p := NewTLSParser()
	if got := p.Probe([]byte("GET / HTTP/1.1\r\n"), true); got != ProbeReject {
		t.Fatalf("Probe(http) = %v", got)
	}
	if got := p.Probe([]byte{0x16, 0x03}, true); got != ProbeUnsure {
		t.Fatalf("Probe(short tls) = %v", got)
	}
	if got := p.Probe(nil, true); got != ProbeUnsure {
		t.Fatalf("Probe(empty) = %v", got)
	}
}

func TestTLSGarbageIsError(t *testing.T) {
	p := NewTLSParser()
	// Claims to be a handshake record but record length is absurd.
	bad := []byte{0x16, 0x03, 0x03, 0xFF, 0xFF, 0x00}
	if got := p.Parse(bad, true); got != ParseError {
		t.Fatalf("Parse(garbage) = %v", got)
	}
}

func TestTLSBufferCap(t *testing.T) {
	p := NewTLSParser()
	// Never-completing record header followed by endless data.
	p.Parse([]byte{0x16, 0x03, 0x03, 0x3F, 0xFF}, true)
	chunk := bytes.Repeat([]byte{0xAA}, 8<<10)
	var res ParseResult
	for i := 0; i < 20; i++ {
		res = p.Parse(chunk, true)
		if res == ParseError {
			break
		}
	}
	if res != ParseError {
		t.Fatal("unbounded buffering not capped")
	}
}

func TestTLSStopsAfterHandshake(t *testing.T) {
	spec := tlsSpec()
	p := NewTLSParser()
	p.Parse(BuildClientHello(spec), true)
	p.Parse(BuildServerHello(spec), false)
	if p.BufferedBytes() != 0 {
		t.Fatal("handshake buffers not released at completion")
	}
	if got := p.Parse(BuildAppDataRecord(100), false); got != ParseDone {
		t.Fatalf("post-handshake parse = %v", got)
	}
	if p.SessionMatchState() != conntrack.StateDelete {
		t.Fatal("TLS match state should delete the connection")
	}
}

// clientHelloSNI encodes spec's ClientHello with a server_name
// extension carrying name, even an empty one (BuildClientHello omits
// the extension for an empty SNI).
func clientHelloSNI(spec HelloSpec, name string) []byte {
	spec.SNI = ""
	rec := BuildClientHello(spec)
	var ext []byte
	ext = binary.BigEndian.AppendUint16(ext, tlsExtServerName)
	ext = binary.BigEndian.AppendUint16(ext, uint16(5+len(name)))
	ext = binary.BigEndian.AppendUint16(ext, uint16(3+len(name)))
	ext = append(ext, 0)
	ext = binary.BigEndian.AppendUint16(ext, uint16(len(name)))
	ext = append(ext, name...)
	// The record ends in an empty extensions block: replace it.
	body := append(rec[tlsRecordHeaderLen+4:len(rec)-2:len(rec)-2], 0, 0)
	binary.BigEndian.PutUint16(body[len(body)-2:], uint16(len(ext)))
	return tlsRecord(tlsHSClientHello, append(body, ext...))
}

// handshakeOf parses the given ClientHellos and a ServerHello and
// returns the parser and its one handshake.
func handshakeOf(t *testing.T, hellos ...[]byte) (*TLSParser, *TLSHandshake) {
	t.Helper()
	p := NewTLSParser()
	for _, ch := range hellos {
		if got := p.Parse(ch, true); got != ParseContinue {
			t.Fatalf("Parse(ClientHello) = %v", got)
		}
	}
	if got := p.Parse(BuildServerHello(tlsSpec()), false); got != ParseDone {
		t.Fatalf("Parse(ServerHello) = %v", got)
	}
	sessions := p.DrainSessions()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(sessions))
	}
	return p, sessions[0].Data.(*TLSHandshake)
}

// TestTLSParserSizeClass: the inline SNI and cipher storage must not
// push the parser, a parsed handshake's one allocation, past the
// 320-byte size class.
func TestTLSParserSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(TLSParser{}); n > 320 {
		t.Fatalf("TLSParser is %d bytes, want at most 320", n)
	}
}

func TestTLSInlineSNIEdges(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		inline bool
	}{
		{"empty", 0, false},
		{"inline_length", tlsInlineSNI, true},
		{"one_past_inline", tlsInlineSNI + 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			name := strings.Repeat("a", tc.n)
			if tc.n > 0 {
				name = name[:tc.n-4] + ".com"
			}
			ch, sh := clientHelloSNI(tlsSpec(), name), BuildServerHello(tlsSpec())
			p, hs := handshakeOf(t, ch)
			if hs.SNI != name {
				t.Fatalf("SNI = %q, want %q", hs.SNI, name)
			}
			if got := tc.n > 0 && unsafe.StringData(hs.SNI) == &p.sni[0]; got != tc.inline {
				t.Fatalf("SNI in inline storage = %v, want %v", got, tc.inline)
			}
			// Only the parser is allocated when the name fits inline.
			want := 1.0
			if tc.n > tlsInlineSNI {
				want = 2
			}
			allocs := testing.AllocsPerRun(20, func() {
				p := NewTLSParser()
				p.Parse(ch, true)
				p.Parse(sh, false)
			})
			if allocs != want {
				t.Fatalf("handshake allocates %v, want %v", allocs, want)
			}
		})
	}
}

func TestTLSCipherSuitesSpill(t *testing.T) {
	for _, n := range []int{tlsInlineCiphers, tlsInlineCiphers + 1, 3 * tlsInlineCiphers} {
		spec := tlsSpec()
		spec.CipherSuites = nil
		for i := range n {
			spec.CipherSuites = append(spec.CipherSuites, uint16(0x1300+i))
		}
		p, hs := handshakeOf(t, BuildClientHello(spec))
		if !slices.Equal(hs.CipherSuites, spec.CipherSuites) {
			t.Fatalf("%d suites: parsed %v", n, hs.CipherSuites)
		}
		if inline := &hs.CipherSuites[0] == &p.ciphers[0]; inline != (n <= tlsInlineCiphers) {
			t.Fatalf("%d suites: inline storage = %v", n, inline)
		}
	}
}

// A second ClientHello before the ServerHello (as after a
// HelloRetryRequest) replaces the first one's fields: its SNI wins. The
// inline bytes hold the first name and are never written again, so a
// string taken from them keeps its value.
func TestTLSSecondClientHelloSNI(t *testing.T) {
	first := tlsSpec()
	first.SNI = "first.example.com"
	for _, name := range []string{"second.example.org", "first.example.net"} {
		second := tlsSpec()
		second.SNI, second.CipherSuites = name, []uint16{0x1303}
		p := NewTLSParser()
		p.Parse(BuildClientHello(first), true)
		kept := p.hs.SNI
		p.Parse(BuildClientHello(second), true)
		if got := p.Parse(BuildServerHello(first), false); got != ParseDone {
			t.Fatalf("Parse(ServerHello) = %v", got)
		}
		hs := p.DrainSessions()[0].Data.(*TLSHandshake)
		if hs.SNI != second.SNI || !slices.Equal(hs.CipherSuites, second.CipherSuites) {
			t.Fatalf("SNI = %q, suites = %v; want the second ClientHello's", hs.SNI, hs.CipherSuites)
		}
		if kept != first.SNI {
			t.Fatalf("first ClientHello's SNI changed to %q", kept)
		}
	}
}

func TestCipherSuiteNames(t *testing.T) {
	if CipherSuiteName(0x1301) != "TLS_AES_128_GCM_SHA256" {
		t.Fatal("known suite name wrong")
	}
	if CipherSuiteName(0xBEEF) != "0xBEEF" {
		t.Fatalf("unknown suite = %q", CipherSuiteName(0xBEEF))
	}
}

// --- HTTP ---

const httpReq = "GET /index.html HTTP/1.1\r\nHost: example.com\r\nUser-Agent: Firefox/119\r\n\r\n"
const httpResp = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Type: text/html\r\n\r\nhello"

func TestHTTPRoundTrip(t *testing.T) {
	p := NewHTTPParser()
	if got := p.Probe([]byte(httpReq), true); got != ProbeMatch {
		t.Fatalf("Probe(request) = %v", got)
	}
	if got := p.Probe([]byte(httpResp), false); got != ProbeMatch {
		t.Fatalf("Probe(response) = %v", got)
	}
	p.Parse([]byte(httpReq), true)
	p.Parse([]byte(httpResp), false)
	sessions := p.DrainSessions()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d", len(sessions))
	}
	tx := sessions[0].Data.(*HTTPTransaction)
	if tx.Method != "GET" || tx.URI != "/index.html" || tx.Host != "example.com" {
		t.Fatalf("tx = %+v", tx)
	}
	if tx.UserAgent != "Firefox/119" || tx.StatusCode != 200 || tx.ContentLength != 5 {
		t.Fatalf("tx = %+v", tx)
	}
	if v, ok := tx.StringField("user_agent"); !ok || v != "Firefox/119" {
		t.Fatal("user_agent field")
	}
	if v, ok := tx.IntField("status_code"); !ok || v != 200 {
		t.Fatal("status_code field")
	}
}

func TestHTTPPipelined(t *testing.T) {
	p := NewHTTPParser()
	reqs := "GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n"
	resps := "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 404 NF\r\nContent-Length: 0\r\n\r\n"
	p.Parse([]byte(reqs), true)
	p.Parse([]byte(resps), false)
	sessions := p.DrainSessions()
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(sessions))
	}
	a := sessions[0].Data.(*HTTPTransaction)
	b := sessions[1].Data.(*HTTPTransaction)
	if a.URI != "/a" || a.StatusCode != 200 || b.URI != "/b" || b.StatusCode != 404 {
		t.Fatalf("a=%+v b=%+v", a, b)
	}
}

func TestHTTPChunkedStopsParsing(t *testing.T) {
	p := NewHTTPParser()
	p.Parse([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), true)
	res := p.Parse([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"), false)
	if res == ParseError {
		t.Fatal("chunked response errored")
	}
	if len(p.DrainSessions()) != 1 {
		t.Fatal("chunked response session not emitted")
	}
}

func TestHTTPSplitAcrossSegments(t *testing.T) {
	p := NewHTTPParser()
	full := httpReq
	for i := 0; i < len(full); i += 5 {
		end := i + 5
		if end > len(full) {
			end = len(full)
		}
		p.Parse([]byte(full[i:end]), true)
	}
	p.Parse([]byte(httpResp), false)
	if len(p.DrainSessions()) != 1 {
		t.Fatal("segmented head not parsed")
	}
}

func TestHTTPProbeRejects(t *testing.T) {
	p := NewHTTPParser()
	if got := p.Probe([]byte{0x16, 0x03, 0x03, 0x00}, true); got != ProbeReject {
		t.Fatalf("Probe(tls bytes) = %v", got)
	}
	if got := p.Probe([]byte("GE"), true); got != ProbeUnsure {
		t.Fatalf("Probe(short) = %v", got)
	}
}

func TestHTTPBadStatusLine(t *testing.T) {
	p := NewHTTPParser()
	p.Parse([]byte(httpReq), true)
	if got := p.Parse([]byte("HTTP/1.1 abc\r\n\r\n"), false); got != ParseError {
		t.Fatalf("bad status = %v", got)
	}
}

// --- SSH ---

func TestSSHRoundTrip(t *testing.T) {
	p := NewSSHParser()
	if got := p.Probe([]byte("SSH-2.0-OpenSSH_9.0\r\n"), true); got != ProbeMatch {
		t.Fatalf("Probe = %v", got)
	}
	p.Parse([]byte("SSH-2.0-OpenSSH_9.0\r\n"), true)
	res := p.Parse([]byte("SSH-2.0-dropbear_2022.83\r\n"), false)
	if res != ParseDone {
		t.Fatalf("Parse = %v", res)
	}
	hs := p.DrainSessions()[0].Data.(*SSHHandshake)
	if hs.ClientVersion != "SSH-2.0-OpenSSH_9.0" || hs.ServerVersion != "SSH-2.0-dropbear_2022.83" {
		t.Fatalf("hs = %+v", hs)
	}
	if v, ok := hs.StringField("client_version"); !ok || !strings.Contains(v, "OpenSSH") {
		t.Fatal("client_version field")
	}
}

func TestSSHSplitIdent(t *testing.T) {
	p := NewSSHParser()
	p.Parse([]byte("SSH-2.0-Open"), true)
	p.Parse([]byte("SSH_9.0\r\n"), true)
	res := p.Parse([]byte("SSH-2.0-x\r\n"), false)
	if res != ParseDone {
		t.Fatalf("res = %v", res)
	}
}

func TestSSHRejectsNonSSH(t *testing.T) {
	p := NewSSHParser()
	if got := p.Probe([]byte("HTTP/1.1 200"), false); got != ProbeReject {
		t.Fatalf("Probe = %v", got)
	}
	if got := p.Parse([]byte("garbage line\n"), true); got != ParseError {
		t.Fatalf("Parse = %v", got)
	}
}

// --- DNS ---

func TestDNSRoundTrip(t *testing.T) {
	q := BuildDNSQuery(0x1234, "www.example.com", 1)
	p := NewDNSParser()
	if got := p.Probe(q, true); got != ProbeMatch {
		t.Fatalf("Probe = %v", got)
	}
	p.Parse(q, true)
	sessions := p.DrainSessions()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d", len(sessions))
	}
	m := sessions[0].Data.(*DNSMessage)
	if m.TxID != 0x1234 || m.QueryName != "www.example.com" || m.QueryType != 1 {
		t.Fatalf("m = %+v", m)
	}
	if v, ok := m.StringField("query_name"); !ok || v != "www.example.com" {
		t.Fatal("query_name field")
	}
}

func TestDNSProbeRejectsShort(t *testing.T) {
	p := NewDNSParser()
	if got := p.Probe([]byte{1, 2, 3}, true); got != ProbeReject {
		t.Fatalf("Probe = %v", got)
	}
}

func TestDNSMalformedName(t *testing.T) {
	q := BuildDNSQuery(1, "example.com", 1)
	q[12] = 100 // label length beyond packet (not a compression pointer)
	p := NewDNSParser()
	if got := p.Parse(q, true); got != ParseError {
		t.Fatalf("Parse = %v", got)
	}
}

func BenchmarkTLSParseHandshake(b *testing.B) {
	spec := tlsSpec()
	ch := BuildClientHello(spec)
	sh := BuildServerHello(spec)
	b.ReportAllocs()
	b.SetBytes(int64(len(ch) + len(sh)))
	for i := 0; i < b.N; i++ {
		p := NewTLSParser()
		p.Parse(ch, true)
		p.Parse(sh, false)
		if len(p.DrainSessions()) != 1 {
			b.Fatal("no session")
		}
	}
}

func BenchmarkHTTPParseTransaction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewHTTPParser()
		p.Parse([]byte(httpReq), true)
		p.Parse([]byte(httpResp), false)
		if len(p.DrainSessions()) != 1 {
			b.Fatal("no session")
		}
	}
}
