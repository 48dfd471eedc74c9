package retina

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"

	"retina/internal/traffic"
)

// poisonSource is a BurstSource that serves frames from per-slot
// buffers it reuses, and overwrites every slot with 0xAA at its next
// NextBurst call, the end-of-input call included: any frame RunOffline
// still reads after the burst it arrived in, without having copied it,
// reads poison.
type poisonSource struct {
	tickedSource
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
	n := 0
	for n < len(frames) && s.i < len(s.frames) {
		if n == len(s.slots) {
			s.slots = append(s.slots, nil)
		}
		s.slots[n] = append(s.slots[n][:0], s.frames[s.i]...)
		frames[n], ticks[n] = s.slots[n], s.ticks[s.i]
		s.i++
		n++
	}
	s.served = n
	return n
}

// stableSource is a BurstSource over frames that are never reused or
// changed: RunOffline reads the right bytes from it whether or not it
// copies what it keeps, which makes it the reference run.
type stableSource struct{ tickedSource }

func (s *stableSource) NextBurst(frames [][]byte, ticks []uint64) int {
	n := copy(frames, s.frames[s.i:])
	copy(ticks, s.ticks[s.i:s.i+n])
	s.i += n
	return n
}

// mergeByTick interleaves two tick-ordered frame lists into one.
func mergeByTick(fa [][]byte, ta []uint64, fb [][]byte, tb []uint64) ([][]byte, []uint64) {
	frames := append(append([][]byte(nil), fa...), fb...)
	ticks := append(append([]uint64(nil), ta...), tb...)
	idx := make([]int, len(frames))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return ticks[idx[i]] < ticks[idx[j]] })
	outF, outT := make([][]byte, len(idx)), make([]uint64, len(idx))
	for i, k := range idx {
		outF[i], outT[i] = frames[k], ticks[k]
	}
	return outF, outT
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
// asked for, and over a plain Source whose frames slotCopy copies into
// slots it reuses, must deliver exactly what it delivers over the same
// frames served from slices that never change — same records, core
// counters and drop breakdown. Only the reference reads the right bytes
// whatever RunOffline copies. Campus traffic mixed with an out-of-order
// flood parks reassembly segments, a packet subscription behind the tls
// filter fills packet buffers, and tight budgets make both shed.
func TestOfflineBorrowDifferential(t *testing.T) {
	cf, ct := collectFrames(t, 31, 600)
	ff, ft := collectAdversarial(t, traffic.AdvOOOFlood, 32, 60)
	frames, ticks := mergeByTick(cf, ct, ff, ft)
	for _, budgets := range []struct {
		name         string
		pktBuf, reas int64
	}{{"default", 0, 0}, {"tight", 20 << 10, 3 << 10}} {
		for _, subs := range [][]string{{"packets"}, {"sessions"}, {"streams"}, {"packets", "sessions", "streams"}} {
			t.Run(fmt.Sprintf("%s/%v", budgets.name, subs), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.PacketBufBudget, cfg.ReassemblyBudget = budgets.pktBuf, budgets.reas
				ref := runBorrow(t, cfg, subs, &stableSource{tickedSource{frames: frames, ticks: ticks}})
				if ref.records == 0 {
					t.Fatal("nothing delivered: the differential is vacuous")
				}
				for _, side := range []struct {
					name string
					src  Source
				}{
					{"poisoned", &poisonSource{tickedSource: tickedSource{frames: frames, ticks: ticks}}},
					{"slot-copied", &tickedSource{frames: frames, ticks: ticks}},
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
