package retina

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"

	"retina/internal/traffic"
)

// poisonSource is a BurstSource that serves a trace's frames from
// per-slot buffers it reuses, and overwrites every slot with 0xAA at its
// next NextBurst call, the end-of-input call included: any frame
// RunOffline still reads after the burst it arrived in, without having
// copied it, reads poison.
type poisonSource struct {
	*traffic.Cursor
	slots  [][]byte
	served int
}

func (s *poisonSource) NextBurst(frames [][]byte, ticks []uint64) int {
	for _, b := range s.slots[:s.served] {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xAA
		}
	}
	n := s.Cursor.NextBurst(frames, ticks)
	for len(s.slots) < n {
		s.slots = append(s.slots, nil)
	}
	for i, f := range frames[:n] {
		s.slots[i] = append(s.slots[i][:0], f...)
		frames[i] = s.slots[i]
	}
	s.served = n
	return n
}

// reusedSource is a plain Source whose Next copies each frame into one
// buffer it reuses, so every call overwrites the frame before: a frame
// RunOffline holds past the next Next call, without having copied it,
// reads a later frame's bytes. It holds its cursor in a named field, so
// the cursor's NextBurst does not bypass this Next.
type reusedSource struct {
	cur *traffic.Cursor
	buf []byte
}

func (s *reusedSource) Next() ([]byte, uint64, bool) {
	f, tick, ok := s.cur.Next()
	s.buf = append(s.buf[:0], f...)
	return s.buf, tick, ok
}

// mergeByTick interleaves two tick-ordered traces into one.
func mergeByTick(a, b *traffic.Trace) *traffic.Trace {
	frames := append(append([][]byte(nil), a.Frames...), b.Frames...)
	ticks := append(append([]uint64(nil), a.Ticks...), b.Ticks...)
	idx := make([]int, len(frames))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return ticks[idx[i]] < ticks[idx[j]] })
	out := &traffic.Trace{Frames: make([][]byte, len(idx)), Ticks: make([]uint64, len(idx)), Bytes: a.Bytes + b.Bytes}
	for i, k := range idx {
		out.Frames[i], out.Ticks[i] = frames[k], ticks[k]
	}
	return out
}

// borrowRun is one offline run's observables.
type borrowRun struct {
	records uint64
	hash    uint64
	stats   Stats
	drops   map[string]uint64
}

// runBorrow runs src offline under cfg with the subscriptions subs
// names: "packets" (filter tls: the verdict is pending until the
// handshake parses, so frames wait in the packet buffer), "sessions"
// (TLS sessions, through reassembly) and "streams" (every TCP byte
// stream, so parked segments are read when their hole fills). Every
// record folds into one order-dependent hash.
func runBorrow(t *testing.T, cfg Config, subs []string, src Source) borrowRun {
	t.Helper()
	var run borrowRun
	record := func(format string, args ...any) {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%#x|", run.records, run.hash)
		fmt.Fprintf(h, format, args...)
		run.hash = h.Sum64()
		run.records++
	}
	mk := map[string]struct {
		filter string
		sub    *Subscription
	}{
		"packets":  {"tls", Packets(func(p *Packet) { record("pkt %d %x", p.Tick, p.Data) })},
		"sessions": {"tls", Sessions(func(ev *SessionEvent) { record("ses %v %d %+v", ev.Tuple, ev.Tick, ev.Session.Data) })},
		"streams":  {"tcp", ByteStreams(func(c *StreamChunk) { record("str %v %v %d %d %x", c.Tuple, c.Orig, c.Seq, c.Tick, c.Data) })},
	}
	cfg.Cores = 1
	cfg.Filter = mk[subs[0]].filter
	rt, err := New(cfg, mk[subs[0]].sub)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range subs[1:] {
		if _, err := rt.AddSubscription(name, mk[name].filter, mk[name].sub); err != nil {
			t.Fatal(err)
		}
	}
	run.stats = rt.RunOffline(src)
	run.drops = rt.DropBreakdown()
	if n := rt.pool.InUse(); n != 0 {
		t.Fatalf("%d buffers still in use after the run", n)
	}
	return run
}

// TestOfflineBorrowDifferential pins the borrowed ingest: RunOffline
// over a source that poisons each burst's frames once the next burst is
// asked for, over a plain Source whose frames slotCopy copies into slots
// it reuses, and over a plain Source that overwrites its one buffer at
// every Next, must deliver exactly what it delivers over the trace
// replayed as it is — same records, core counters and drop breakdown.
// Only the reference reads the right bytes whatever RunOffline copies;
// the overwriting source fails unless slotCopy copies each frame.
// Campus traffic mixed with an out-of-order flood parks reassembly
// segments, a packet subscription behind the tls filter fills packet
// buffers, and tight budgets make both shed.
func TestOfflineBorrowDifferential(t *testing.T) {
	tr := mergeByTick(campusTrace(31, 600),
		traffic.Collect(traffic.NewAdversarialWorkload(traffic.AdvOOOFlood, 32, 60, 20), 0))
	for _, budgets := range []struct {
		name         string
		pktBuf, reas int64
	}{{"default", 0, 0}, {"tight", 20 << 10, 3 << 10}} {
		for _, subs := range [][]string{{"packets"}, {"sessions"}, {"streams"}, {"packets", "sessions", "streams"}} {
			t.Run(fmt.Sprintf("%s/%v", budgets.name, subs), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.PacketBufBudget, cfg.ReassemblyBudget = budgets.pktBuf, budgets.reas
				ref := runBorrow(t, cfg, subs, tr.Replay())
				if ref.records == 0 {
					t.Fatal("nothing delivered: the differential is vacuous")
				}
				for _, side := range []struct {
					name string
					src  Source
				}{
					{"poisoned", &poisonSource{Cursor: tr.Replay()}},
					{"slot-copied", struct{ Source }{tr.Replay()}},
					{"overwritten", &reusedSource{cur: tr.Replay()}},
				} {
					got := runBorrow(t, cfg, subs, side.src)
					if got.records != ref.records || got.hash != ref.hash {
						t.Fatalf("%s: records diverged: %d (hash %#x), reference %d (hash %#x)",
							side.name, got.records, got.hash, ref.records, ref.hash)
					}
					if !reflect.DeepEqual(got.stats.Cores, ref.stats.Cores) {
						t.Fatalf("%s: core stats diverged:\ngot       %+v\nreference %+v", side.name, got.stats.Cores, ref.stats.Cores)
					}
					if !reflect.DeepEqual(got.drops, ref.drops) {
						t.Fatalf("%s: drop breakdown diverged: got %v, reference %v", side.name, got.drops, ref.drops)
					}
				}
			})
		}
	}
}
