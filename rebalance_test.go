package retina

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"retina/internal/ctl"
	"retina/internal/layers"
	"retina/internal/nic"
	"retina/internal/traffic"
)

// nicBucketOf maps a tuple to its default-size RETA bucket.
func nicBucketOf(ft layers.FiveTuple) (int, bool) {
	return nic.BucketOf(ft, nic.DefaultRetaSize)
}

// loopedSource replays a trace for a controlled number of passes.
// The migrated differential run loops until the migration driver hits
// its move target (checked only at pass boundaries, so the frame
// sequence stays a whole number of passes); the baseline run then
// replays exactly the same pass count, making the two runs' inputs
// byte-identical. Ticks are offset per pass so they stay globally
// monotonic: each core's virtual clock (a max over the ticks it has
// seen) then always equals the current frame's own tick, which makes
// record tick stamps placement-independent — restarting ticks would
// leave a core's clock stuck at the previous pass's maximum, a value
// that depends on which core the highest-tick flow was routed to.
//
// With dev set, the source serves each frame only once every receive
// ring of dev has room (see waitForRoom), so the replay runs at the
// cores' pace and no frame is lost however fast the producer is.
type loopedSource struct {
	tr   *traffic.Trace
	more func(pass int) bool
	dev  *nic.NIC

	i      int
	pass   int
	span   uint64
	served atomic.Int64
}

func newLoopedSource(tr *traffic.Trace, more func(pass int) bool) *loopedSource {
	var span uint64
	for _, tk := range tr.Ticks {
		if tk >= span {
			span = tk + 1
		}
	}
	return &loopedSource{tr: tr, more: more, span: span}
}

func (s *loopedSource) Next() ([]byte, uint64, bool) {
	if s.i >= len(s.tr.Frames) {
		s.pass++
		if s.more == nil || !s.more(s.pass) {
			return nil, 0, false
		}
		s.i = 0
	}
	if s.dev != nil {
		s.waitForRoom()
	}
	f, tk := s.tr.Frames[s.i], s.tr.Ticks[s.i]+uint64(s.pass)*s.span
	s.i++
	s.served.Add(1)
	return f, tk, true
}

// waitForRoom holds the next frame while any ring of dev is more than an
// eighth full: enough backlog to keep the cores busy, little enough that
// a migration's source core drains it well within the swap timeout. Next
// runs on the producer goroutine, so while it waits it calls
// FlushPending: that applies queued RETA swaps — a core fenced for a
// bucket migration stops dequeuing until the swap is applied — and
// publishes staged partial bursts, which fit below the mark.
func (s *loopedSource) waitForRoom() {
	for q := 0; q < s.dev.Queues(); q++ {
		for {
			used, capacity := s.dev.RingOccupancy(q)
			if used <= capacity/8 {
				break
			}
			s.dev.FlushPending()
			runtime.Gosched()
		}
	}
}

// rebalanceRun is one differential run's observables (same shape as the
// conntrack-backend differential: count + order-independent content
// hash of the delivered record stream; CoreID is deliberately excluded
// — migration legitimately changes which core serves a connection).
type rebalanceRun struct {
	delivered uint64
	hash      uint64
	stats     Stats
	passes    int
	recs      map[string]int
}

func hashConnRecord(r *ConnRecord) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%d|%d|%d %d|%d %d|%d %d|%d %d|%v%v%v%v|%d",
		r.Tuple, r.FirstTick, r.LastTick,
		r.PktsOrig, r.PktsResp, r.BytesOrig, r.BytesResp,
		r.PayloadOrig, r.PayloadResp, r.OOOOrig, r.OOOResp,
		r.Established, r.SynSeen, r.FinSeen, r.RstSeen, r.Why)
	return h.Sum64()
}

func rebalanceConfig(cores int) Config {
	cfg := DefaultConfig()
	cfg.Cores = cores
	cfg.RingSize = 1 << 16
	cfg.PoolSize = 1 << 17
	// Virtual-time expiry is a per-core-clock decision: a migrated
	// connection is judged against its new core's clock, which can sit a
	// burst ahead of or behind the old one, so a borderline timeout may
	// legitimately flip. The byte-equality differential therefore runs
	// with timeouts disabled — every record is packet- or flush-driven
	// and fully deterministic; conservation and the migration census are
	// asserted in all modes.
	cfg.EstablishTimeout = -1
	cfg.InactivityTimeout = -1
	return cfg
}

// TestRebalanceMigratedBufferedFramesConserved moves buckets under a
// packet subscription whose verdict waits for the TLS handshake, so
// connections migrate with frames still buffered: those frames resolve
// on the importing core, and Runtime.Check must still close the
// accounting (summed over the cores) with every buffer back in the pool.
func TestRebalanceMigratedBufferedFramesConserved(t *testing.T) {
	const targetMoves = 60
	cfg := rebalanceConfig(2)
	cfg.Filter = "tls"
	rt, err := New(cfg, Packets(func(*Packet) {}))
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	src := newLoopedSource(campusTrace(23, 500), func(int) bool { return !stop.Load() })
	src.dev = rt.NIC()
	go func() {
		defer stop.Store(true)
		forceMoves(t, rt, src, targetMoves, nil)
	}()
	stats := rt.Run(src)
	if in, _ := checkMigrationCensus(t, rt); in == 0 {
		t.Fatal("no connection migrated")
	}
	assertFrameConservation(t, rt, stats)
}

// TestElephantBucketWithoutLatencyTracking pins the rebalancer's
// elephant guard under the default observability settings: with
// LatencyTracking off the cores still witness their flows, so a bucket
// hosting one of two flows (each carries far more than a fifth of its
// core's packets) reads heavy, and no bucket without a flow does.
func TestElephantBucketWithoutLatencyTracking(t *testing.T) {
	cfg := rebalanceConfig(2)
	cfg.Rebalance.Enable = true
	rt, err := New(cfg, Connections(func(*ConnRecord) {}))
	if err != nil {
		t.Fatal(err)
	}
	tr := campusTrace(5, 2)
	assertFrameConservation(t, rt, rt.Run(tr.Replay()))

	occupied := map[int]bool{}
	for _, f := range tr.Frames {
		var p layers.Parsed
		if p.DecodeLayers(f) != nil {
			continue
		}
		if ft, ok := layers.FiveTupleFrom(&p); ok {
			if b, ok := nic.BucketOf(ft, rt.NIC().RetaSize()); ok {
				occupied[b] = true
			}
		}
	}
	heavy := 0
	for b := range rt.NIC().RetaSize() {
		if rt.elephantBucket(b) {
			heavy++
			if !occupied[b] {
				t.Errorf("bucket %d reads heavy but no flow of the trace hashes to it", b)
			}
		}
	}
	if heavy == 0 {
		t.Fatalf("no bucket reads heavy; the trace's %d flow buckets are %v", len(occupied), occupied)
	}
}

// forceMoves is the forced-migration driver: while src replays into rt
// it moves one bucket to the next core over each time src has served
// another fiftieth of its trace, walking the buckets in a coprime
// stride so the whole table gets exercised, until target moves are made
// or one fails. around, when set, wraps move i. It returns the moves
// made and the connections they migrated.
func forceMoves(t *testing.T, rt *Runtime, src *loopedSource, target int64, around func(i int64, move func())) (moves, conns int64) {
	dev, plane := rt.NIC(), rt.ControlPlane()
	step := max(int64(len(src.tr.Frames)/50), 1)
	next := step
	for bucket := 0; moves < target; bucket = (bucket + 7) % dev.RetaSize() {
		for src.served.Load() < next {
			runtime.Gosched()
		}
		next = src.served.Load() + step
		dst := (int(dev.RetaAssigned(bucket)) + 1) % rt.cfg.Cores
		var err error
		move := func() {
			var res ctl.MoveResult
			res, err = plane.MoveBucket(bucket, dst)
			conns += int64(res.Conns)
		}
		if around != nil {
			around(moves, move)
		} else {
			move()
		}
		if err != nil {
			t.Errorf("MoveBucket(%d → %d): %v", bucket, dst, err)
			return moves, conns
		}
		moves++
	}
	return moves, conns
}

// checkMigrationCensus asserts the cross-table migration invariants:
// every table internally consistent, no import anomalies, and every
// extracted connection imported somewhere (Σin == Σout).
func checkMigrationCensus(t *testing.T, rt *Runtime) (in, out uint64) {
	t.Helper()
	for i, c := range rt.Cores() {
		if err := c.Table().CheckInvariants(); err != nil {
			t.Errorf("core %d: %v", i, err)
		}
		if n := c.MigrationErrors(); n != 0 {
			t.Errorf("core %d: %d migration import errors", i, n)
		}
		ci, co := c.Table().Migrations()
		in += ci
		out += co
	}
	if in != out {
		t.Errorf("migration census broken: Σ migrated-in %d != Σ migrated-out %d (connections lost or duplicated)", in, out)
	}
	return in, out
}

// TestRebalanceForcedMigrationDifferential is the tentpole's
// correctness pin: the same workload run (a) untouched and (b) under
// 100+ forced bucket migrations — racing live subscription add/remove
// epoch swaps — must deliver a byte-identical connection-record stream
// with exact frame conservation and zero connections lost or
// duplicated.
func TestRebalanceForcedMigrationDifferential(t *testing.T) {
	const targetMoves = 120
	tr := campusTrace(23, 500)
	cfg := rebalanceConfig(2)

	var run func(passes int, migrate bool) (rebalanceRun, int64, int64)
	run = func(passes int, migrate bool) (rebalanceRun, int64, int64) {
		var mu sync.Mutex
		out := rebalanceRun{}
		out.recs = make(map[string]int)
		rt, err := New(cfg, Connections(func(r *ConnRecord) {
			h := hashConnRecord(r)
			s := fmt.Sprintf("%v|%d|%d|%d %d|%d %d|%d %d|%d %d|%v%v%v%v|%d",
				r.Tuple, r.FirstTick, r.LastTick,
				r.PktsOrig, r.PktsResp, r.BytesOrig, r.BytesResp,
				r.PayloadOrig, r.PayloadResp, r.OOOOrig, r.OOOResp,
				r.Established, r.SynSeen, r.FinSeen, r.RstSeen, r.Why)
			mu.Lock()
			out.delivered++
			out.hash ^= h
			out.recs[s]++
			mu.Unlock()
		}))
		if err != nil {
			t.Fatal(err)
		}
		var moves, migrated int64
		var stop atomic.Bool
		var src *loopedSource
		if !migrate {
			src = newLoopedSource(tr, func(p int) bool { return p < passes })
		} else {
			src = newLoopedSource(tr, func(int) bool { return !stop.Load() })
			go func() {
				defer stop.Store(true)
				// Every other move runs concurrently with a subscription
				// epoch swap.
				moves, migrated = forceMoves(t, rt, src, targetMoves, func(i int64, move func()) {
					if i%2 == 0 {
						move()
						return
					}
					if _, err := rt.AddSubscription("racer", "udp", Packets(func(*Packet) {})); err != nil {
						t.Errorf("racing add: %v", err)
					}
					move()
					if err := rt.RemoveSubscription("racer"); err != nil {
						t.Errorf("racing remove: %v", err)
					}
				})
			}()
		}
		src.dev = rt.NIC()
		out.stats = rt.Run(src)
		out.passes = src.pass
		if out.stats.Loss() != 0 {
			t.Fatalf("migrate=%v: NIC loss %d — rings undersized, differential not byte-comparable", migrate, out.stats.Loss())
		}
		assertFrameConservation(t, rt, out.stats)
		in, outM := checkMigrationCensus(t, rt)
		if !migrate && (in != 0 || outM != 0) {
			t.Fatalf("baseline run migrated connections (%d in / %d out)", in, outM)
		}
		pm, pc := rt.ControlPlane().RebalanceStats()
		if migrate && (pm != uint64(moves) || pc != uint64(migrated)) {
			t.Errorf("plane counters (%d moves, %d conns) != driver (%d, %d)", pm, pc, moves, migrated)
		}
		return out, moves, migrated
	}

	migratedRun, moves, conns := run(0, true)
	if moves < targetMoves {
		t.Fatalf("only %d forced migrations completed, want ≥ %d", moves, targetMoves)
	}
	if conns == 0 {
		t.Fatal("forced migrations moved zero connections — handoff path untested")
	}
	baseline, _, _ := run(migratedRun.passes, false)
	if baseline.passes != migratedRun.passes {
		t.Fatalf("pass mismatch: baseline %d, migrated %d", baseline.passes, migratedRun.passes)
	}
	if baseline.delivered == 0 {
		t.Fatal("workload produced no connection records — differential is vacuous")
	}
	if migratedRun.delivered != baseline.delivered || migratedRun.hash != baseline.hash {
		n := 0
		for s, c := range migratedRun.recs {
			if bc := baseline.recs[s]; bc != c && n < 8 {
				t.Logf("migrated×%d baseline×%d: %s", c, bc, s)
				n++
			}
		}
		for s, c := range baseline.recs {
			if mc := migratedRun.recs[s]; mc != c && n < 16 {
				t.Logf("baseline×%d migrated×%d: %s", c, mc, s)
				n++
			}
		}
		t.Fatalf("record stream diverged under migration: %d records (hash %#x) vs baseline %d (hash %#x)",
			migratedRun.delivered, migratedRun.hash, baseline.delivered, baseline.hash)
	}
}

// TestRebalanceAdaptiveEndToEnd drives an elephant-skewed workload (all
// flows pinned to queue 0's buckets) through a runtime with the
// background rebalancer on: the rebalancer must observe the skew and
// actually move buckets off the hot queue, with the usual conservation
// and census invariants intact and the status report exposing the
// activity.
func TestRebalanceAdaptiveEndToEnd(t *testing.T) {
	cfg := rebalanceConfig(2)
	cfg.Rebalance = RebalanceConfig{
		Enable:           true,
		Interval:         2 * time.Millisecond,
		MaxMovesPerRound: 8,
		Hysteresis:       1.05,
	}
	tr := skewedTrace(t, cfg.Cores, 0, 300)

	var delivered atomic.Uint64
	rt, err := New(cfg, Connections(func(*ConnRecord) { delivered.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Rebalancer() == nil {
		t.Fatal("Rebalance.Enable with 2 cores left the rebalancer nil")
	}
	// Loop the workload until the rebalancer has completed a few moves
	// (with a generous wall-clock safety net): the source must stay live
	// while the background rounds observe and act, since a bucket move
	// needs the producer running to apply the RETA swap.
	deadline := time.Now().Add(60 * time.Second)
	src := newLoopedSource(tr, func(int) bool {
		mv, _ := rt.ControlPlane().RebalanceStats()
		return mv < 3 && time.Now().Before(deadline)
	})
	src.dev = rt.NIC()
	stats := rt.Run(src)

	if stats.Loss() != 0 {
		t.Fatalf("NIC loss %d with oversized rings", stats.Loss())
	}
	assertFrameConservation(t, rt, stats)
	checkMigrationCensus(t, rt)
	if rt.Rebalancer().Rounds() == 0 {
		t.Fatal("rebalancer never completed an observation round")
	}
	moves, _ := rt.ControlPlane().RebalanceStats()
	if moves == 0 {
		t.Fatalf("rebalancer made no moves against a fully skewed workload (rounds %d, last skew %.2f, failed %d, lastErr %q)",
			rt.Rebalancer().Rounds(), rt.Rebalancer().LastSkew(), rt.Rebalancer().FailedMoves(), rt.ControlPlane().LastMoveError())
	}
	st := rt.Status()
	if st.Rebalance == nil {
		t.Fatal("status report missing rebalance section")
	}
	if st.Rebalance.Moves != moves {
		t.Fatalf("status moves %d != plane %d", st.Rebalance.Moves, moves)
	}
	if delivered.Load() == 0 {
		t.Fatal("no records delivered")
	}
}

// skewedTrace records a campus-mix workload filtered down to the flows
// whose RSS bucket is initially assigned to queue `hot` on a
// `cores`-queue device — a synthetic elephant skew that parks the
// entire load on one core until the rebalancer spreads it.
func skewedTrace(t testing.TB, cores, hot, minFlows int) *traffic.Trace {
	t.Helper()
	seen := map[layers.FiveTuple]bool{}
	out := &traffic.Trace{}
	for seed := int64(1); len(seen) < minFlows && seed < 40; seed++ {
		tr := traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: seed, Flows: 400, Gbps: 20}), 0)
		for i, fr := range tr.Frames {
			var p layers.Parsed
			if p.DecodeLayers(fr) != nil {
				continue
			}
			ft, ok := layers.FiveTupleFrom(&p)
			if !ok {
				continue
			}
			b, ok := nicBucketOf(ft)
			if !ok || b%cores != hot {
				continue
			}
			key, _ := ft.Canonical()
			seen[key] = true
			out.Frames = append(out.Frames, fr)
			out.Ticks = append(out.Ticks, tr.Ticks[i])
			out.Bytes += uint64(len(fr))
		}
	}
	if len(seen) < minFlows {
		t.Fatalf("only %d hot-bucket flows materialized, want %d", len(seen), minFlows)
	}
	return out
}

// TestRSSSkewWindowed pins the windowed RSSSkew semantics: the first
// call covers the whole run (matching the old cumulative behavior), a
// second call with no traffic in between reports a neutral 1.0, and
// RSSSkewCumulative keeps the whole-run figure.
func TestRSSSkewWindowed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.RingSize = 1 << 15
	cfg.PoolSize = 1 << 16
	rt, err := New(cfg, Connections(func(*ConnRecord) {}))
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(campusTrace(5, 200).Replay())

	first := rt.RSSSkew()
	cum := rt.RSSSkewCumulative()
	if first != cum {
		t.Fatalf("first windowed read %v != cumulative %v", first, cum)
	}
	if second := rt.RSSSkew(); second != 1.0 {
		t.Fatalf("windowed skew over an idle window = %v, want 1.0", second)
	}
	if again := rt.RSSSkewCumulative(); again != cum {
		t.Fatalf("cumulative skew drifted %v → %v with no traffic", cum, again)
	}
}

// TestMoveBucketValidation covers the orchestration guardrails: no
// moves before the cores run, range checks, and the same-queue no-op.
func TestMoveBucketValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	rt, err := New(cfg, Connections(func(*ConnRecord) {}))
	if err != nil {
		t.Fatal(err)
	}
	plane := rt.ControlPlane()
	if _, err := plane.MoveBucket(0, 1); err == nil {
		t.Fatal("MoveBucket succeeded with no cores running")
	}
	if plane.LastMoveError() == "" {
		t.Fatal("failed move not recorded in LastMoveError")
	}

	// Against a live runtime: bad ranges fail, same-queue is a no-op.
	done := make(chan struct{})
	src := &loopedSource{tr: campusTrace(3, 100), more: func(int) bool {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for src.served.Load() == 0 {
			runtime.Gosched()
		}
		if _, err := plane.MoveBucket(-1, 1); err == nil {
			t.Error("negative bucket accepted")
		}
		if _, err := plane.MoveBucket(rt.NIC().RetaSize(), 1); err == nil {
			t.Error("out-of-range bucket accepted")
		}
		if _, err := plane.MoveBucket(0, cfg.Cores); err == nil {
			t.Error("out-of-range destination accepted")
		}
		cur := int(rt.NIC().RetaAssigned(0))
		res, err := plane.MoveBucket(0, cur)
		if err != nil || res.From != cur {
			t.Errorf("same-queue move: res %+v err %v", res, err)
		}
		moves, _ := plane.RebalanceStats()
		if moves != 0 {
			t.Errorf("no-op and failed moves counted as completed: %d", moves)
		}
	}()
	rt.Run(src)
	wg.Wait()
}

// BenchmarkRebalance pins the tentpole's performance claim: under an
// elephant-skewed workload (every flow initially hashed to queue 0's
// buckets) with deliberately small descriptor rings, a static RETA
// drowns the hot ring — frames drop at the NIC — while the adaptive
// rebalancer spreads the buckets and keeps the rings drained. The
// figure of merit is delivered packets per second of wall time plus the
// delivered fraction (delivered / offered).
func BenchmarkRebalance(b *testing.B) {
	const cores = 8
	tr := skewedTrace(b, cores, 0, 300)
	for _, adaptive := range []bool{false, true} {
		name := "static"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Cores = cores
			cfg.RingSize = 512
			cfg.PoolSize = 1 << 14
			if adaptive {
				cfg.Rebalance = RebalanceConfig{
					Enable:           true,
					Interval:         time.Millisecond,
					MaxMovesPerRound: 8,
					Hysteresis:       1.05,
				}
			}
			rt, err := New(cfg, Connections(func(*ConnRecord) {}))
			if err != nil {
				b.Fatal(err)
			}
			// One op is a fixed block of passes so even -benchtime=1x runs
			// long enough for the background rebalancer to observe the skew
			// and act within the measured window.
			const passesPerOp = 30
			b.ResetTimer()
			src := newLoopedSource(tr, func(p int) bool { return p < passesPerOp*b.N })
			stats := rt.Run(src)
			b.StopTimer()
			var processed uint64
			for _, cs := range stats.Cores {
				processed += cs.Processed
			}
			sec := stats.Elapsed.Seconds()
			if sec > 0 {
				b.ReportMetric(float64(processed)/sec, "pkts/s")
			}
			if stats.NIC.RxFrames > 0 {
				b.ReportMetric(float64(stats.NIC.Delivered)/float64(stats.NIC.RxFrames), "delivered/rx")
			}
			b.ReportMetric(float64(stats.NIC.RingDrops), "ringdrops")
		})
	}
}
