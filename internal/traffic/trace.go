package traffic

// Trace is a recorded frame sequence held in memory: the repository's
// one in-memory replay. Every frame is the trace's own copy and stays
// valid and unchanged for the trace's lifetime, so a replay can hand
// the frames out as they are, one at a time or a burst at a time.
type Trace struct {
	Frames [][]byte
	Ticks  []uint64 // Ticks[i] is Frames[i]'s receive tick
	Bytes  uint64   // wire bytes of all frames
}

// Collect records src's frames until it ends or limit frames are held
// (limit <= 0 records all of them). Each frame is copied once, here: a
// source may reuse the buffer Next returns.
func Collect(src interface {
	Next() (frame []byte, tick uint64, ok bool)
}, limit int) *Trace {
	t := &Trace{}
	for limit <= 0 || len(t.Frames) < limit {
		f, tick, ok := src.Next()
		if !ok {
			break
		}
		t.Frames = append(t.Frames, append([]byte(nil), f...))
		t.Ticks = append(t.Ticks, tick)
		t.Bytes += uint64(len(f))
	}
	return t
}

// Slice returns frames i through j-1 as a trace sharing t's frames.
func (t *Trace) Slice(i, j int) *Trace {
	s := &Trace{Frames: t.Frames[i:j], Ticks: t.Ticks[i:j]}
	for _, f := range s.Frames {
		s.Bytes += uint64(len(f))
	}
	return s
}

// Replay returns a cursor at the trace's first frame.
func (t *Trace) Replay() *Cursor { return &Cursor{t: t} }

// Cursor replays a trace once, in order. It implements the runtime's
// Source and BurstSource: the frames it returns are the trace's own, so
// they stay readable after the next call, as BurstSource requires.
type Cursor struct {
	t *Trace
	i int
}

// Next returns the next frame and its tick; ok=false ends the trace.
func (c *Cursor) Next() (frame []byte, tick uint64, ok bool) {
	if c.i >= len(c.t.Frames) {
		return nil, 0, false
	}
	c.i++
	return c.t.Frames[c.i-1], c.t.Ticks[c.i-1], true
}

// NextBurst fills frames and ticks with the next frames of the trace
// and returns how many it filled; 0 ends the trace.
func (c *Cursor) NextBurst(frames [][]byte, ticks []uint64) int {
	n := copy(frames, c.t.Frames[c.i:])
	copy(ticks, c.t.Ticks[c.i:c.i+n])
	c.i += n
	return n
}
