package reassembly

// BufferedReassembler is the traditional copy-based design: every
// payload is copied into a per-direction stream buffer at its sequence
// offset, and the contiguous prefix is emitted as it grows. It exists as
// the ablation baseline the paper argues against — correct, convenient,
// and wasteful for connections whose bytes are never needed — and as the
// stream engine of the eager-IDS comparators, so its implementation is
// a competent one (range-based hole tracking, amortized O(1) growth):
// the cost under test is the copy-everything architecture, not a
// strawman implementation.
type BufferedReassembler struct {
	dirs     [2]bufferedDir
	stats    Stats
	maxBytes int // per-direction stream buffer extent bound
}

// DefaultMaxBufferedBytes bounds each direction's stream buffer extent.
// Without a bound, a single segment with a far-ahead sequence number
// forces an allocation of its offset plus length — up to ~2 GiB for one
// adversarial packet (the offset arithmetic is int32-based).
const DefaultMaxBufferedBytes = 8 << 20

// span is a received byte range beyond the contiguous prefix.
type span struct{ start, end int }

type bufferedDir struct {
	started bool
	baseSeq uint32 // sequence number of buf[0]
	buf     []byte // stream bytes from baseSeq (len = highest offset seen)
	contig  int    // length of the valid contiguous prefix
	emitted int    // prefix already delivered
	ooo     []span // sorted, disjoint ranges past the first hole
}

// NewBuffered creates a copy-based reassembler with the default
// per-direction buffer bound.
func NewBuffered() *BufferedReassembler {
	return NewBufferedCap(0)
}

// NewBufferedCap creates a copy-based reassembler whose per-direction
// stream buffer never extends past maxBytes (0 selects
// DefaultMaxBufferedBytes, negative disables the bound). Segments whose
// bytes would land entirely past the bound are dropped (counted in
// Stats.Dropped, ErrBufferFull returned); a segment straddling the
// bound keeps its in-bound prefix.
func NewBufferedCap(maxBytes int) *BufferedReassembler {
	if maxBytes == 0 {
		maxBytes = DefaultMaxBufferedBytes
	}
	if maxBytes < 0 {
		maxBytes = int(^uint(0) >> 1) // unbounded
	}
	return &BufferedReassembler{maxBytes: maxBytes}
}

// Stats returns the reassembly counters.
func (r *BufferedReassembler) Stats() Stats { return r.stats }

// BufferedBytes reports bytes currently held in stream buffers
// (including the already-emitted prefix, which a real system holds until
// the application layer consumes it).
func (r *BufferedReassembler) BufferedBytes() int {
	return len(r.dirs[0].buf) + len(r.dirs[1].buf)
}

// Insert copies the segment into the stream buffer and emits any newly
// contiguous bytes. Emitted payloads point into the stream buffer.
func (r *BufferedReassembler) Insert(seg Segment, emit func(Segment)) error {
	d := &r.dirs[dirIndex(seg.Orig)]
	seq := seg.Seq
	if seg.SYN {
		seq++ // SYN occupies sequence space before the payload
	}
	if !d.started {
		d.started = true
		d.baseSeq = seq
	}
	if len(seg.Payload) > 0 {
		off := int(int32(seq - d.baseSeq))
		payload := seg.Payload
		if off < 0 {
			cut := -off
			if cut >= len(payload) {
				r.stats.Retrans++
				seg.release()
				return nil
			}
			payload = payload[cut:]
			off = 0
			r.stats.Trimmed++
		}
		if off >= r.maxBytes {
			// The segment's bytes all land past the buffer bound: shed it
			// instead of allocating the offset's worth of buffer (the
			// unbounded-grow attack this cap exists to stop).
			r.stats.Dropped++
			seg.release()
			return ErrBufferFull
		}
		end := off + len(payload)
		if end > r.maxBytes {
			payload = payload[:r.maxBytes-off]
			end = r.maxBytes
			r.stats.Trimmed++
		}
		d.grow(end)
		copy(d.buf[off:end], payload)
		if off <= d.contig {
			if end > d.contig {
				d.contig = end
			}
			r.stats.InOrder++
			d.mergeContig()
		} else {
			d.addSpan(off, end)
			r.stats.OutOfOrder++
		}
	} else {
		r.stats.InOrder++
	}
	seg.release()

	if d.contig > d.emitted {
		out := Segment{
			Seq:     d.baseSeq + uint32(d.emitted),
			Payload: d.buf[d.emitted:d.contig],
			Orig:    seg.Orig,
			Tick:    seg.Tick,
		}
		d.emitted = d.contig
		emit(out)
	}
	return nil
}

// grow extends the buffer to length end with amortized O(1) copying.
func (d *bufferedDir) grow(end int) {
	if end <= len(d.buf) {
		return
	}
	if end <= cap(d.buf) {
		d.buf = d.buf[:end]
		return
	}
	newCap := 2 * cap(d.buf)
	if newCap < end {
		newCap = end
	}
	nb := make([]byte, end, newCap)
	copy(nb, d.buf)
	d.buf = nb
}

// mergeContig absorbs out-of-order spans now reachable from the prefix.
func (d *bufferedDir) mergeContig() {
	i := 0
	for i < len(d.ooo) && d.ooo[i].start <= d.contig {
		if d.ooo[i].end > d.contig {
			d.contig = d.ooo[i].end
		}
		i++
	}
	if i > 0 {
		d.ooo = d.ooo[i:]
	}
}

// addSpan inserts [start,end) into the sorted disjoint span list.
func (d *bufferedDir) addSpan(start, end int) {
	// Find insert position.
	i := 0
	for i < len(d.ooo) && d.ooo[i].start < start {
		i++
	}
	d.ooo = append(d.ooo, span{})
	copy(d.ooo[i+1:], d.ooo[i:])
	d.ooo[i] = span{start, end}
	// Merge overlapping neighbors.
	out := d.ooo[:0]
	for _, s := range d.ooo {
		if n := len(out); n > 0 && s.start <= out[n-1].end {
			if s.end > out[n-1].end {
				out[n-1].end = s.end
			}
			continue
		}
		out = append(out, s)
	}
	d.ooo = out
}

// FlushAll emits any non-contiguous buffered ranges at teardown.
func (r *BufferedReassembler) FlushAll(emit func(Segment)) {
	for di := range r.dirs {
		d := &r.dirs[di]
		if d.contig > d.emitted {
			emit(Segment{
				Seq:     d.baseSeq + uint32(d.emitted),
				Payload: d.buf[d.emitted:d.contig],
				Orig:    di == 0,
			})
			d.emitted = d.contig
		}
		for _, s := range d.ooo {
			emit(Segment{
				Seq:     d.baseSeq + uint32(s.start),
				Payload: d.buf[s.start:s.end],
				Orig:    di == 0,
			})
		}
		d.ooo = nil
	}
}
