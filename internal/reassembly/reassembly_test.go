package reassembly

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// freeFunc adapts a counting closure to Segment.Release.
type freeFunc func()

func (f freeFunc) Free() { f() }

// run pushes segments through a reassembler and returns the in-order
// byte stream it emitted for the originator direction.
func runLite(t *testing.T, r *Lite, segs []Segment) []byte {
	t.Helper()
	var out []byte
	for _, s := range segs {
		r.Insert(s, func(e Segment) {
			if e.Orig {
				out = append(out, e.Payload...)
			}
		})
	}
	return out
}

func seg(seq uint32, payload string) Segment {
	return Segment{Seq: seq, Payload: []byte(payload), Orig: true}
}

func TestInOrderPassThrough(t *testing.T) {
	r := NewLite(0)
	got := runLite(t, r, []Segment{seg(100, "hello "), seg(106, "world")})
	if string(got) != "hello world" {
		t.Fatalf("stream = %q", got)
	}
	st := r.Stats()
	if st.InOrder != 2 || st.OutOfOrder != 0 {
		t.Fatalf("stats %+v", st)
	}
	if r.Buffered() != 0 {
		t.Fatal("in-order traffic left parked segments")
	}
}

func TestSingleHoleFilled(t *testing.T) {
	r := NewLite(0)
	got := runLite(t, r, []Segment{seg(0, "aa"), seg(4, "cc"), seg(2, "bb")})
	if string(got) != "aabbcc" {
		t.Fatalf("stream = %q", got)
	}
	st := r.Stats()
	if st.OutOfOrder != 1 || st.Flushed != 1 || st.HoleEvents != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMultipleParkedFlushTogether(t *testing.T) {
	r := NewLite(0)
	got := runLite(t, r, []Segment{
		seg(0, "a"), seg(3, "d"), seg(2, "c"), seg(4, "e"), seg(1, "b"),
	})
	if string(got) != "abcde" {
		t.Fatalf("stream = %q", got)
	}
}

func TestSYNConsumesSequenceNumber(t *testing.T) {
	r := NewLite(0)
	segs := []Segment{
		{Seq: 999, SYN: true, Orig: true},
		{Seq: 1000, Payload: []byte("GET /"), Orig: true},
	}
	got := runLite(t, r, segs)
	if string(got) != "GET /" {
		t.Fatalf("stream = %q", got)
	}
}

func TestRetransmissionDiscarded(t *testing.T) {
	r := NewLite(0)
	got := runLite(t, r, []Segment{seg(0, "abcd"), seg(0, "abcd"), seg(4, "ef")})
	if string(got) != "abcdef" {
		t.Fatalf("stream = %q", got)
	}
	if st := r.Stats(); st.Retrans != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPartialOverlapTrimmed(t *testing.T) {
	r := NewLite(0)
	got := runLite(t, r, []Segment{seg(0, "abcd"), seg(2, "cdef")})
	if string(got) != "abcdef" {
		t.Fatalf("stream = %q", got)
	}
	if st := r.Stats(); st.Trimmed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDirectionsIndependent(t *testing.T) {
	r := NewLite(0)
	var fwd, rev []byte
	emit := func(e Segment) {
		if e.Orig {
			fwd = append(fwd, e.Payload...)
		} else {
			rev = append(rev, e.Payload...)
		}
	}
	r.Insert(Segment{Seq: 0, Payload: []byte("req"), Orig: true}, emit)
	r.Insert(Segment{Seq: 5000, Payload: []byte("resp"), Orig: false}, emit)
	r.Insert(Segment{Seq: 3, Payload: []byte("uest"), Orig: true}, emit)
	if string(fwd) != "request" || string(rev) != "resp" {
		t.Fatalf("fwd=%q rev=%q", fwd, rev)
	}
}

func TestBufferCapacityEnforced(t *testing.T) {
	r := NewLite(3)
	emit := func(Segment) {}
	r.Insert(seg(0, "a"), emit)
	// Open a hole, then park up to capacity.
	for i := uint32(0); i < 3; i++ {
		if err := r.Insert(seg(10+2*i, "xx"), emit); err != nil {
			t.Fatalf("park %d: %v", i, err)
		}
	}
	if err := r.Insert(seg(100, "zz"), emit); err != ErrBufferFull {
		t.Fatalf("err = %v, want ErrBufferFull", err)
	}
	if st := r.Stats(); st.Dropped != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReleaseCalledExactlyOnce(t *testing.T) {
	r := NewLite(0)
	counts := map[int]int{}
	mk := func(id int, seq uint32, pl string) Segment {
		s := seg(seq, pl)
		s.Release = freeFunc(func() { counts[id]++ })
		return s
	}
	emit := func(Segment) {}
	r.Insert(mk(0, 0, "aa"), emit) // in order
	r.Insert(mk(1, 4, "cc"), emit) // parked
	r.Insert(mk(2, 2, "bb"), emit) // fills hole, flushes 1
	r.Insert(mk(3, 0, "aa"), emit) // retransmission
	for id, n := range counts {
		if n != 1 {
			t.Errorf("segment %d released %d times", id, n)
		}
	}
	if len(counts) != 4 {
		t.Errorf("released %d segments, want 4", len(counts))
	}
}

// TestLiteReset checks that a recycled reassembler behaves like a new
// one: no stream position, no counters, and the new out-of-order bound.
func TestLiteReset(t *testing.T) {
	r := NewLite(0)
	emit := func(Segment) {}
	r.Insert(seg(100, "ab"), emit)
	r.Insert(seg(110, "late"), emit) // parked
	r.FlushAll(emit)
	r.Reset(1)
	if r.Stats() != (Stats{}) || r.Buffered() != 0 {
		t.Fatalf("after Reset: stats %+v, %d parked", r.Stats(), r.Buffered())
	}
	// A new stream starts wherever its first segment says.
	if got := runLite(t, r, []Segment{seg(5000, "xy"), seg(5002, "z")}); string(got) != "xyz" {
		t.Fatalf("stream after Reset = %q", got)
	}
	if err := r.Insert(seg(5010, "p"), emit); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(seg(5020, "q"), emit); err != ErrBufferFull {
		t.Fatalf("second parked segment: err %v, want ErrBufferFull (bound 1)", err)
	}
}

func TestSequenceWraparound(t *testing.T) {
	r := NewLite(0)
	start := uint32(0xFFFFFFFE)
	got := runLite(t, r, []Segment{seg(start, "ab"), seg(start+2, "cd")})
	if string(got) != "abcd" {
		t.Fatalf("stream across wrap = %q", got)
	}
}

func TestFlushAllDeliversParked(t *testing.T) {
	r := NewLite(0)
	emit := func(Segment) {}
	r.Insert(seg(0, "a"), emit)
	r.Insert(seg(10, "late"), emit) // parked forever
	var flushed []byte
	r.FlushAll(func(e Segment) { flushed = append(flushed, e.Payload...) })
	if string(flushed) != "late" {
		t.Fatalf("flushed = %q", flushed)
	}
	if r.Buffered() != 0 {
		t.Fatal("FlushAll left segments parked")
	}
}

func TestBufferedBytesAccounting(t *testing.T) {
	r := NewLite(0)
	emit := func(Segment) {}
	r.Insert(seg(0, "a"), emit)
	r.Insert(seg(10, "xxxx"), emit)
	if r.BufferedBytes() != 4 {
		t.Fatalf("BufferedBytes = %d", r.BufferedBytes())
	}
}

// Property: any permutation of a segmented stream reassembles to the
// original bytes (within buffer capacity).
func TestQuickPermutationReassembly(t *testing.T) {
	f := func(data []byte, seed int64) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 2000 {
			data = data[:2000]
		}
		rng := rand.New(rand.NewSource(seed))
		// Split into segments of 1-100 bytes.
		var segs []Segment
		for off := 0; off < len(data); {
			n := 1 + rng.Intn(100)
			if off+n > len(data) {
				n = len(data) - off
			}
			segs = append(segs, Segment{Seq: uint32(off), Payload: data[off : off+n], Orig: true})
			off += n
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		r := NewLite(len(segs) + 1)
		var out []byte
		emit := func(e Segment) { out = append(out, e.Payload...) }
		// The SYN arrives first and pins the stream base, as in real TCP;
		// data segments may then arrive in any order.
		r.Insert(Segment{Seq: ^uint32(0), SYN: true, Orig: true}, emit)
		for _, s := range segs {
			r.Insert(s, emit)
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- BufferedReassembler (ablation baseline) ---

func TestBufferedInOrder(t *testing.T) {
	r := NewBuffered()
	var out []byte
	emit := func(e Segment) { out = append(out, e.Payload...) }
	r.Insert(seg(100, "hello "), emit)
	r.Insert(seg(106, "world"), emit)
	if string(out) != "hello world" {
		t.Fatalf("stream = %q", out)
	}
}

func TestBufferedHole(t *testing.T) {
	r := NewBuffered()
	var out []byte
	emit := func(e Segment) { out = append(out, e.Payload...) }
	r.Insert(seg(0, "aa"), emit)
	r.Insert(seg(4, "cc"), emit)
	r.Insert(seg(2, "bb"), emit)
	if string(out) != "aabbcc" {
		t.Fatalf("stream = %q", out)
	}
}

func TestBufferedRetainsMemory(t *testing.T) {
	// The architectural difference under test: the copy-based design
	// holds every byte; Lite holds only out-of-order bytes.
	lite := NewLite(0)
	buf := NewBuffered()
	emit := func(Segment) {}
	payload := bytes.Repeat([]byte{0xAB}, 1000)
	for i := 0; i < 100; i++ {
		s := Segment{Seq: uint32(i * 1000), Payload: payload, Orig: true}
		lite.Insert(s, emit)
		buf.Insert(s, emit)
	}
	if lite.BufferedBytes() != 0 {
		t.Fatalf("Lite holds %d bytes for in-order traffic", lite.BufferedBytes())
	}
	if buf.BufferedBytes() != 100*1000 {
		t.Fatalf("Buffered holds %d bytes, want 100000", buf.BufferedBytes())
	}
}

func TestBufferedEquivalenceRandom(t *testing.T) {
	data := make([]byte, 5000)
	rng := rand.New(rand.NewSource(42))
	rng.Read(data)
	var segs []Segment
	for off := 0; off < len(data); {
		n := 1 + rng.Intn(200)
		if off+n > len(data) {
			n = len(data) - off
		}
		segs = append(segs, Segment{Seq: uint32(off), Payload: data[off : off+n], Orig: true})
		off += n
	}
	rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })

	var outLite, outBuf []byte
	lite := NewLite(len(segs) + 1)
	bufr := NewBuffered()
	syn := Segment{Seq: ^uint32(0), SYN: true, Orig: true}
	lite.Insert(syn, func(e Segment) { outLite = append(outLite, e.Payload...) })
	bufr.Insert(syn, func(e Segment) { outBuf = append(outBuf, e.Payload...) })
	for _, s := range segs {
		lite.Insert(s, func(e Segment) { outLite = append(outLite, e.Payload...) })
		bufr.Insert(s, func(e Segment) { outBuf = append(outBuf, e.Payload...) })
	}
	if !bytes.Equal(outLite, data) || !bytes.Equal(outBuf, data) {
		t.Fatal("engines disagree with source data")
	}
}

func BenchmarkLiteInOrder(b *testing.B) {
	r := NewLite(0)
	payload := bytes.Repeat([]byte{1}, 1400)
	emit := func(Segment) {}
	b.ReportAllocs()
	b.SetBytes(1400)
	for i := 0; i < b.N; i++ {
		r.Insert(Segment{Seq: uint32(i * 1400), Payload: payload, Orig: true}, emit)
	}
}

func BenchmarkBufferedInOrder(b *testing.B) {
	payload := bytes.Repeat([]byte{1}, 1400)
	emit := func(Segment) {}
	b.ReportAllocs()
	b.SetBytes(1400)
	var r *BufferedReassembler
	for i := 0; i < b.N; i++ {
		if i%1000 == 0 {
			r = NewBuffered() // bound buffer growth as a real system would per-connection
		}
		r.Insert(Segment{Seq: uint32((i % 1000) * 1400), Payload: payload, Orig: true}, emit)
	}
}

// --- Regression tests for bugs found by the differential fuzzing harness ---

// FlushAll must not deliver overlapping byte ranges: parked segments are
// deduplicated only on exact Seq at insert, so segments with different
// Seq can still overlap. Teardown flushing has to trim each parked
// segment against what was already emitted.
func TestFlushAllTrimsOverlappingParked(t *testing.T) {
	r := NewLite(0)
	emit := func(Segment) {}
	r.Insert(seg(0, "0123456789"), emit)  // delivered, nextSeq=10
	r.Insert(seg(20, "ABCDEFGHIJ"), emit) // parked [20,30)
	r.Insert(seg(25, "FGHIJKLMNO"), emit) // parked [25,35), overlaps [25,30)
	var flushed []byte
	r.FlushAll(func(e Segment) { flushed = append(flushed, e.Payload...) })
	if string(flushed) != "ABCDEFGHIJKLMNO" {
		t.Fatalf("flushed %q, want %q (no duplicate bytes)", flushed, "ABCDEFGHIJKLMNO")
	}
	st := r.Stats()
	if st.Flushed != 2 {
		t.Fatalf("Flushed = %d, want 2 (teardown flushes must be counted)", st.Flushed)
	}
	if st.InOrder != 3 {
		t.Fatalf("InOrder = %d, want 3", st.InOrder)
	}
}

// FlushAll must discard parked segments already wholly covered by a
// previously flushed one, and must also trim against nextSeq itself.
func TestFlushAllDropsSupersededParked(t *testing.T) {
	r := NewLite(0)
	emit := func(Segment) {}
	r.Insert(seg(0, "0123456789"), emit)  // delivered, nextSeq=10
	r.Insert(seg(20, "ABCDEFGHIJ"), emit) // parked [20,30)
	r.Insert(seg(22, "CDE"), emit)        // parked [22,25), inside [20,30)
	var flushed []byte
	r.FlushAll(func(e Segment) { flushed = append(flushed, e.Payload...) })
	if string(flushed) != "ABCDEFGHIJ" {
		t.Fatalf("flushed %q, want %q", flushed, "ABCDEFGHIJ")
	}
	if st := r.Stats(); st.Flushed != 1 || st.Retrans != 1 {
		t.Fatalf("stats %+v, want Flushed=1 Retrans=1", st)
	}
}

// A same-Seq retransmission that extends the parked original (same Seq,
// longer payload) must replace it; keeping the shorter first arrival
// silently loses the extension bytes and stalls the stream on a hole
// that no future segment fills.
func TestSameSeqLongerRetransmitKept(t *testing.T) {
	r := NewLite(0)
	var out []byte
	emit := func(e Segment) { out = append(out, e.Payload...) }
	r.Insert(seg(0, "0123456789"), emit)  // delivered
	r.Insert(seg(20, "KLMNO"), emit)      // parked [20,25)
	r.Insert(seg(20, "KLMNOPQRST"), emit) // same Seq, extends to [20,30)
	r.Insert(seg(10, "ABCDEFGHIJ"), emit) // fills the hole
	if string(out) != "0123456789ABCDEFGHIJKLMNOPQRST" {
		t.Fatalf("stream %q: extension bytes lost", out)
	}
	// The replaced (shorter) parked segment counts as the retransmission.
	if st := r.Stats(); st.Retrans != 1 {
		t.Fatalf("stats %+v, want Retrans=1", st)
	}
}

// The shorter same-Seq duplicate must still be discarded (and its buffer
// reference released) when the parked segment is already at least as long.
func TestSameSeqShorterRetransmitDropped(t *testing.T) {
	r := NewLite(0)
	released := map[int]int{}
	mk := func(id int, seq uint32, pl string) Segment {
		s := seg(seq, pl)
		s.Release = freeFunc(func() { released[id]++ })
		return s
	}
	var out []byte
	emit := func(e Segment) { out = append(out, e.Payload...) }
	r.Insert(mk(0, 0, "0123456789"), emit)
	r.Insert(mk(1, 20, "KLMNOPQRST"), emit) // parked [20,30)
	r.Insert(mk(2, 20, "KLMNO"), emit)      // shorter duplicate: dropped
	r.Insert(mk(3, 10, "ABCDEFGHIJ"), emit)
	if string(out) != "0123456789ABCDEFGHIJKLMNOPQRST" {
		t.Fatalf("stream %q", out)
	}
	for id := 0; id <= 3; id++ {
		if released[id] != 1 {
			t.Fatalf("segment %d released %d times, want exactly 1", id, released[id])
		}
	}
}

// Replacement must release the evicted shorter segment's buffer
// reference exactly once.
func TestSameSeqReplacementReleasesEvicted(t *testing.T) {
	r := NewLite(0)
	released := map[int]int{}
	mk := func(id int, seq uint32, pl string) Segment {
		s := seg(seq, pl)
		s.Release = freeFunc(func() { released[id]++ })
		return s
	}
	emit := func(Segment) {}
	r.Insert(mk(0, 0, "aa"), emit)
	r.Insert(mk(1, 10, "xx"), emit)   // parked
	r.Insert(mk(2, 10, "xxyy"), emit) // replaces 1
	if released[1] != 1 {
		t.Fatalf("evicted segment released %d times, want 1", released[1])
	}
	if released[2] != 0 {
		t.Fatalf("replacement released %d times while still parked", released[2])
	}
	r.FlushAll(func(Segment) {})
	if released[2] != 1 {
		t.Fatalf("replacement released %d times after FlushAll, want 1", released[2])
	}
}

// keeper is a Release whose bytes are a borrowed view: Keep copies them
// and counts the call.
type keeper struct{ kept *int }

func (k keeper) Free() {}

func (k keeper) Keep(view []byte) []byte {
	*k.kept++
	return bytes.Clone(view)
}

// Only a segment the reassembler parks is kept, and it parks the kept
// bytes: in-order, retransmitted and refused segments pass through
// uncopied, a parked segment and a longer same-Seq replacement are kept
// once each, and the stream reads right after the borrowed bytes are
// overwritten.
func TestKeepOnlyParkedSegments(t *testing.T) {
	r := NewLite(2)
	kept := 0
	var borrowed [][]byte
	mk := func(seq uint32, pl string) Segment {
		s := seg(seq, pl)
		s.Release = keeper{&kept}
		borrowed = append(borrowed, s.Payload)
		return s
	}
	var out []byte
	emit := func(e Segment) { out = append(out, e.Payload...) }
	insert := func(s Segment, wantKept int) {
		t.Helper()
		r.Insert(s, emit)
		if kept != wantKept {
			t.Fatalf("Keep called %d times, want %d", kept, wantKept)
		}
		for _, b := range borrowed {
			clear(b) // the source reuses its frames after each call
		}
	}
	insert(mk(0, "ab"), 0)   // in order
	insert(mk(0, "ab"), 0)   // retransmission
	insert(mk(4, "ef"), 1)   // parked
	insert(mk(4, "efgh"), 2) // longer same-Seq arrival replaces it
	insert(mk(20, "zz"), 3)  // parked
	insert(mk(30, "yy"), 3)  // buffer full: dropped
	insert(mk(2, "cd"), 3)   // fills the hole; the kept bytes drain
	if string(out) != "abcdefgh" {
		t.Fatalf("stream = %q, want %q", out, "abcdefgh")
	}
}
