package proto

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// protoFuzzFields are session fields poked after every drain; accessors
// must tolerate arbitrary field names without panicking.
var protoFuzzFields = []string{
	"sni", "version", "cipher", "host", "method", "uri", "user_agent",
	"status", "banner", "software", "qname", "qtype", "mailfrom", "rcpt",
	"no_such_field", "",
}

// feedOutcome is everything observable from one probe+parse run of a
// parser over a chunked stream, captured for determinism comparison.
type feedOutcome struct {
	probes   []ProbeResult
	parses   []ParseResult
	sessions []string // flattened session fingerprints
}

// runParserFeed drives one fresh parser the way the pipeline does:
// per-chunk Probe until match or reject, then Parse on subsequent
// chunks, draining sessions after every parse call.
func runParserFeed(t *testing.T, name string, fac Factory, chunks [][]byte, dirs []bool) feedOutcome {
	t.Helper()
	p := fac()
	if p.Name() != name {
		t.Fatalf("factory for %q built parser named %q", name, p.Name())
	}
	// State transitions must be valid conntrack states regardless of input.
	_ = p.SessionMatchState()
	_ = p.SessionNoMatchState()

	var out feedOutcome
	probing := true
	sessionBytes := 0
	drain := func() {
		for _, s := range p.DrainSessions() {
			if s == nil || s.Data == nil {
				t.Fatalf("%s: drained nil session", name)
			}
			if s.Proto != name || s.Data.ProtoName() != name {
				t.Fatalf("%s: session claims protocol %q/%q", name, s.Proto, s.Data.ProtoName())
			}
			fp := s.Proto
			for _, f := range protoFuzzFields {
				if v, ok := s.Data.StringField(f); ok {
					if len(v) > sessionBytes+1024 {
						t.Fatalf("%s: field %q is %d bytes from %d input bytes", name, f, len(v), sessionBytes)
					}
					fp += "|" + f + "=" + v
				}
				if v, ok := s.Data.IntField(f); ok {
					fp += "|" + f + "#"
					fp += string(rune('0' + v%10))
				}
			}
			out.sessions = append(out.sessions, fp)
		}
	}
	for i, chunk := range chunks {
		sessionBytes += len(chunk)
		if probing {
			pr := p.Probe(chunk, dirs[i])
			out.probes = append(out.probes, pr)
			switch pr {
			case ProbeMatch:
				probing = false
			case ProbeReject:
				return out // pipeline drops the parser here
			}
			continue
		}
		res := p.Parse(chunk, dirs[i])
		out.parses = append(out.parses, res)
		drain()
		if res == ParseDone || res == ParseError {
			break
		}
	}
	drain()
	if len(out.sessions) > len(chunks)+sessionBytes/4+4 {
		t.Fatalf("%s: %d sessions from %d bytes", name, len(out.sessions), sessionBytes)
	}
	return out
}

func equalOutcome(a, b feedOutcome) bool {
	if len(a.probes) != len(b.probes) || len(a.parses) != len(b.parses) || len(a.sessions) != len(b.sessions) {
		return false
	}
	for i := range a.probes {
		if a.probes[i] != b.probes[i] {
			return false
		}
	}
	for i := range a.parses {
		if a.parses[i] != b.parses[i] {
			return false
		}
	}
	for i := range a.sessions {
		if a.sessions[i] != b.sessions[i] {
			return false
		}
	}
	return true
}

// protoSeed is one FuzzProtoParsers input: the chunking control word
// and the stream bytes.
type protoSeed struct {
	ctrl uint64
	data []byte
}

// protoCodeSeeds are the FuzzProtoParsers seeds added in code.
func protoCodeSeeds() []protoSeed {
	seeds := []protoSeed{
		{1, BuildClientHello(HelloSpec{SNI: "fuzz.example.com"})},
		{2, BuildServerHello(HelloSpec{WithCert: true})},
		{3, []byte("GET /index.html HTTP/1.1\r\nHost: fuzz.example\r\nUser-Agent: fz\r\n\r\n")},
		{4, []byte("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc")},
		{5, []byte("SSH-2.0-OpenSSH_8.9p1 Ubuntu\r\n\x00\x00\x01\x14\x0a\x14")},
		{6, []byte("220 mail.example ESMTP ready\r\nEHLO client\r\nMAIL FROM:<a@b>\r\n")},
		// Minimal DNS query: header (id=1, rd, 1 question) + www.example A/IN.
		{7, []byte{
			0x00, 0x01, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0,
			3, 'w', 'w', 'w', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0,
			0x00, 0x01, 0x00, 0x01,
		}},
	}
	if qi, err := BuildQUICInitial([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{9, 10}, 0, HelloSpec{SNI: "quic.example"}); err == nil {
		seeds = append(seeds, protoSeed{8, qi})
	}
	return seeds
}

// protoCorpus is FuzzProtoParsers' whole seed corpus: the code seeds
// followed by the committed files under testdata/fuzz/FuzzProtoParsers
// (format "go test fuzz v1": a uint64 line, then a []byte line).
func protoCorpus(t *testing.T) []protoSeed {
	t.Helper()
	seeds := protoCodeSeeds()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzProtoParsers", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 3 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "uint64(") || !strings.HasPrefix(lines[2], "[]byte(") {
			t.Fatalf("%s: unexpected corpus file layout", name)
		}
		ctrl, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(lines[1], "uint64("), ")"), 0, 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seeds = append(seeds, protoSeed{ctrl, []byte(data)})
	}
	return seeds
}

// chunkFeed cuts data into the chunks and directions ctrl derives, so a
// corpus explores segmentation independently of content.
func chunkFeed(ctrl uint64, data []byte) (chunks [][]byte, dirs []bool) {
	rng := rand.New(rand.NewSource(int64(ctrl)))
	for off := 0; off < len(data); {
		n := rng.Intn(31) + 1
		if off+n > len(data) {
			n = len(data) - off
		}
		chunks = append(chunks, data[off:off+n])
		dirs = append(dirs, rng.Intn(4) != 0) // mostly originator
		off += n
	}
	return chunks, dirs
}

// builtinNames lists the built-in protocols in a fixed order.
func builtinNames() []string {
	names := make([]string, 0, 6)
	for n := range DefaultFactories() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FuzzProtoParsers feeds arbitrary (often mutated-handshake) bytes to
// every built-in protocol parser in pipeline order — chunked Probe until
// identification, then chunked Parse — checking that parsers never
// panic, never mislabel their sessions, keep field sizes bounded by the
// input, and behave deterministically for identical feeds.
func FuzzProtoParsers(f *testing.F) {
	for _, sd := range protoCodeSeeds() {
		f.Add(sd.ctrl, sd.data)
	}
	names := builtinNames()

	f.Fuzz(func(t *testing.T, ctrl uint64, data []byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		chunks, dirs := chunkFeed(ctrl, data)
		facs := DefaultFactories()
		for _, name := range names {
			o1 := runParserFeed(t, name, facs[name], chunks, dirs)
			o2 := runParserFeed(t, name, facs[name], chunks, dirs)
			if !equalOutcome(o1, o2) {
				t.Fatalf("%s: identical feeds produced different outcomes:\n%+v\nvs\n%+v", name, o1, o2)
			}
		}
	})
}

// TestProbePurity checks the Parser contract the registry relies on:
// Probe is a pure function of its arguments. For every built-in
// protocol, the registry's shared prober and a fresh instance must
// return the same result on every chunk of every FuzzProtoParsers seed,
// also after the shared prober has probed all the other streams (the
// second pass runs the corpus again in reverse).
func TestProbePurity(t *testing.T) {
	reg, err := BuildRegistry(builtinNames())
	if err != nil {
		t.Fatal(err)
	}
	seeds := protoCorpus(t)
	probes := 0
	for pass := 0; pass < 2; pass++ {
		for k := range seeds {
			sd := seeds[k]
			if pass == 1 {
				sd = seeds[len(seeds)-1-k]
			}
			chunks, dirs := chunkFeed(sd.ctrl, sd.data)
			chunks, dirs = append(chunks, sd.data, sd.data), append(dirs, true, false)
			for i := 0; i < reg.Len(); i++ {
				shared := reg.Prober(i)
				for j, ch := range chunks {
					got, want := shared.Probe(ch, dirs[j]), reg.New(i).Probe(ch, dirs[j])
					if got != want {
						t.Fatalf("%s: seed ctrl=%d chunk %d (pass %d): shared prober %v, fresh %v",
							shared.Name(), sd.ctrl, j, pass, got, want)
					}
					probes++
				}
			}
		}
	}
	if probes == 0 {
		t.Fatal("no probes ran")
	}
}

// FuzzTLSInPlace is a differential target for TLSParser: one handshake
// (client and server byte streams), cut at boundaries ctrl derives and
// interleaved by direction, must parse identically whether Parse reads
// complete records in place and buffers only incomplete tails, or
// appends every segment to the direction buffer first. Every segment is
// scribbled over after the call, so an in-place parser that kept an
// alias into the caller's bytes diverges.
func FuzzTLSInPlace(f *testing.F) {
	spec := tlsSpec()
	spec.WithCert = true
	f.Add(uint64(1), BuildClientHello(spec), BuildServerHello(spec))
	f.Add(uint64(2), BuildClientHello(HelloSpec{SNI: "a.example"}),
		append(BuildServerHello(HelloSpec{}), BuildAppDataRecord(300)...))
	f.Add(uint64(3), append(BuildClientHello(HelloSpec{SNI: "b.example"}), 0x14, 0x03, 0x03, 0x00, 0x01, 0x01),
		append(BuildServerHello(HelloSpec{ServerVersion: 0x0304}), BuildAppDataRecord(40)...))
	f.Add(uint64(4), []byte{0x16, 0x03, 0x01, 0x00}, []byte{0x17, 0x03, 0x03})

	f.Fuzz(func(t *testing.T, ctrl uint64, client, server []byte) {
		if len(client)+len(server) > 1<<16 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(int64(ctrl)))
		cut := func(b []byte) [][]byte {
			var out [][]byte
			for off := 0; off < len(b); {
				n := rng.Intn(400) + 1
				if rng.Intn(4) == 0 {
					n = rng.Intn(8) + 1 // cut inside record headers too
				}
				n = min(n, len(b)-off)
				out = append(out, b[off:off+n])
				off += n
			}
			return out
		}
		segs := [2][][]byte{cut(client), cut(server)}
		inPlace, buffered := NewTLSParser(), NewTLSParser()
		var sessA, sessB []*Session
		for len(segs[0])+len(segs[1]) > 0 {
			d := rng.Intn(2)
			if len(segs[d]) == 0 {
				d = 1 - d
			}
			seg := segs[d][0]
			segs[d] = segs[d][1:]
			orig := d == 0
			a, b := append([]byte(nil), seg...), append([]byte(nil), seg...)
			ra := inPlace.Parse(a, orig)
			rb := buffered.parse(b, orig, false)
			for i := range a {
				a[i], b[i] = 0xA5, 0xA5
			}
			if ra != rb {
				t.Fatalf("Parse result: in place %v, buffered %v", ra, rb)
			}
			sessA = append(sessA, inPlace.DrainSessions()...)
			sessB = append(sessB, buffered.DrainSessions()...)
			if ra != ParseContinue {
				break
			}
		}
		if len(sessA) != len(sessB) {
			t.Fatalf("sessions: in place %d, buffered %d", len(sessA), len(sessB))
		}
		if !reflect.DeepEqual(inPlace.hs, buffered.hs) {
			t.Fatalf("handshakes differ:\nin place %+v\nbuffered %+v", inPlace.hs, buffered.hs)
		}
	})
}
