package reassembly

import (
	"encoding/binary"
	"testing"
)

// gtByte is the ground-truth stream byte at relative offset i for
// direction dir. Overlapping and retransmitted segments in the fuzz
// input all carry bytes from this stream, as a real TCP sender would, so
// any divergence between reassemblers is a reassembler bug, not an
// artifact of inconsistent input.
func gtByte(dir, i int) byte {
	return byte((i*7+13)^(i>>3)) + byte(dir)*0x55
}

// fuzzSeg is one decoded segment descriptor: a (possibly duplicated,
// reordered, or overlapping) slice of the ground-truth stream.
type fuzzSeg struct {
	dir   int
	start int // relative payload offset
	ln    int // payload length (0 = pure ACK)
	syn   bool
	fin   bool
}

// decodeSegs turns raw fuzz bytes into a bounded segment sequence over a
// stream of length streamLen per direction.
func decodeSegs(data []byte, streamLen int) []fuzzSeg {
	var segs []fuzzSeg
	for i := 0; i+2 < len(data) && len(segs) < 300; i += 3 {
		s := fuzzSeg{
			dir:   int(data[i+2] & 1),
			start: int(data[i]) % streamLen,
		}
		s.ln = int(data[i+1]) % 33 // 0..32; 0 exercises pure ACKs
		if s.start+s.ln > streamLen {
			s.ln = streamLen - s.start
		}
		if s.start == 0 && data[i+2]&2 != 0 {
			s.syn = true
		}
		if s.start+s.ln == streamLen && s.ln > 0 && data[i+2]&4 != 0 {
			s.fin = true
		}
		segs = append(segs, s)
	}
	return segs
}

// FuzzLiteVsBuffered is the paper's equivalence claim under adversarial
// input: the pass-through reassembler and the copy-based baseline, fed
// the same segment sequence (reorders, overlaps, retransmits, SYN/FIN
// sequence-space consumption, 32-bit wraparound, buffer-full drops),
// must deliver the same byte at the same stream offset, each offset at
// most once, and release every parked buffer reference exactly once.
func FuzzLiteVsBuffered(f *testing.F) {
	f.Add([]byte{0, 0, 0, 100, 50, 3, 0, 10, 2, 10, 10, 0, 5, 10, 1, 20, 32, 4})
	// ISN near 2^32: every offset computation crosses the wraparound.
	f.Add([]byte{0xff, 0xff, 0xff, 0xf0, 80, 2, 0, 20, 2, 40, 20, 0, 20, 20, 0, 60, 20, 4})
	// Same-Seq retransmits of different lengths and tiny OOO capacity.
	f.Add([]byte{0, 0, 1, 0, 90, 1, 30, 5, 0, 30, 20, 0, 0, 30, 0, 50, 32, 0, 50, 10, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		isn := [2]uint32{
			binary.BigEndian.Uint32(data[:4]),
			binary.BigEndian.Uint32(data[:4]) + 0x9e3779b9,
		}
		streamLen := 1 + int(data[4])
		maxOOO := 1 + int(data[5]%8) // small: buffer-full is a hot path here
		segs := decodeSegs(data[6:], streamLen)
		if len(segs) == 0 {
			return
		}

		// Both engines get the same byte bound so they shed identically;
		// it is far above what a ≤256-byte stream can park, which keeps
		// the accounting paths live on every insert without perturbing
		// the differential. The budget gauge must mirror parked bytes
		// exactly at all times.
		const byteBound = 1 << 20
		budget := &budgetTracker{limit: byteBound}
		lite := NewLite(maxOOO)
		lite.SetBudget(budget.hooks())
		buff := NewBufferedCap(byteBound)

		// delivered[reassembler][dir] maps relative payload offset → byte.
		type deliveredMap map[int]byte
		var liteGot, buffGot [2]deliveredMap
		for d := 0; d < 2; d++ {
			liteGot[d], buffGot[d] = deliveredMap{}, deliveredMap{}
		}
		record := func(got *[2]deliveredMap, name string, seg Segment, dupFatal bool) {
			d := dirIndex(seg.Orig)
			base := seg.Seq
			if seg.SYN {
				base++ // SYN consumes the first sequence number
			}
			for i, b := range seg.Payload {
				rel := int(int32(base + uint32(i) - (isn[d] + 1))) // wraparound-safe
				if rel < 0 || rel >= streamLen {
					t.Fatalf("%s emitted offset %d outside stream [0,%d)", name, rel, streamLen)
				}
				if prev, dup := (*got)[d][rel]; dup {
					if dupFatal {
						t.Fatalf("%s delivered offset %d twice (%q then %q)", name, rel, prev, b)
					}
					if prev != b {
						t.Fatalf("%s re-delivered offset %d with different byte", name, rel)
					}
				}
				(*got)[d][rel] = b
				if want := gtByte(d, rel); b != want {
					t.Fatalf("%s dir %d offset %d = %#x, want ground truth %#x", name, d, rel, b, want)
				}
			}
		}

		released := make([]int, len(segs))
		for i, s := range segs {
			seq := isn[s.dir] + 1 + uint32(s.start)
			if s.syn {
				seq-- // SYN-bearing segment starts one earlier in seq space
			}
			payload := make([]byte, s.ln)
			for j := range payload {
				payload[j] = gtByte(s.dir, s.start+j)
			}
			idx := i
			seg := Segment{
				Seq:     seq,
				Payload: payload,
				Orig:    s.dir == 0,
				SYN:     s.syn,
				FIN:     s.fin,
				Release: freeFunc(func() { released[idx]++ }),
			}
			err := lite.Insert(seg, func(out Segment) { record(&liteGot, "lite", out, true) })
			if err == ErrBufferFull || err == ErrBudget {
				// Mirror the drop so both reassemblers see the same
				// effective input; the differential still exercises Lite's
				// full-buffer and budget-refusal paths.
				continue
			}
			if got := lite.BufferedBytes(); got != budget.used {
				t.Fatalf("after segment %d: lite parks %d bytes but budget gauge is %d", i, got, budget.used)
			}
			bseg := seg
			bseg.Release = nil
			if err := buff.Insert(bseg, func(out Segment) { record(&buffGot, "buffered", out, false) }); err != nil {
				t.Fatalf("buffered insert: %v", err)
			}
		}

		lite.FlushAll(func(out Segment) { record(&liteGot, "lite-flush", out, true) })
		buff.FlushAll(func(out Segment) { record(&buffGot, "buffered-flush", out, false) })

		for d := 0; d < 2; d++ {
			if len(liteGot[d]) != len(buffGot[d]) {
				t.Fatalf("dir %d: lite delivered %d offsets, buffered %d", d, len(liteGot[d]), len(buffGot[d]))
			}
			for off, b := range liteGot[d] {
				bb, ok := buffGot[d][off]
				if !ok {
					t.Fatalf("dir %d: offset %d delivered by lite only", d, off)
				}
				if b != bb {
					t.Fatalf("dir %d offset %d: lite %#x != buffered %#x", d, off, b, bb)
				}
			}
		}

		if lite.Buffered() != 0 || lite.BufferedBytes() != 0 {
			t.Fatalf("lite retains %d segments / %d bytes after FlushAll", lite.Buffered(), lite.BufferedBytes())
		}
		if budget.used != 0 {
			t.Fatalf("budget gauge %d after FlushAll, want 0 (unbalanced reserve/release)", budget.used)
		}
		for i, n := range released {
			if n != 1 {
				t.Fatalf("segment %d released %d times, want exactly once", i, n)
			}
		}
		st := lite.Stats()
		if st.Flushed > st.OutOfOrder {
			t.Fatalf("stats: Flushed %d > OutOfOrder %d", st.Flushed, st.OutOfOrder)
		}
	})
}
