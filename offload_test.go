package retina

import (
	"encoding/json"
	"hash/fnv"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"retina/internal/traffic"
)

// gatedSource pauses a trace's replay at frame index gateAt until
// ready() reports true (or a deadline passes). Differential runs use it
// to guarantee the offload manager has installed at least one rule
// before the second half of the trace reaches the device — otherwise,
// on a loaded machine, the whole trace can be enqueued before the first
// verdict lands and the fastpath never engages. Pausing changes only
// wall-clock timing, never frame order or ticks, so deliveries remain
// a pure function of the workload. Run reads a BurstSource only through
// NextBurst, so the gate sits there: a burst ends at gateAt, and the
// next one waits.
type gatedSource struct {
	*traffic.Cursor
	served, gateAt int
	ready          func() bool
}

func (s *gatedSource) NextBurst(frames [][]byte, ticks []uint64) int {
	if s.ready != nil && s.served == s.gateAt {
		deadline := time.Now().Add(10 * time.Second)
		for !s.ready() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		s.ready = nil
	}
	if s.ready != nil {
		frames = frames[:min(len(frames), s.gateAt-s.served)]
	}
	n := s.Cursor.NextBurst(frames, ticks)
	s.served += n
	return n
}

// offloadRun holds one differential run's observables: what the
// subscription actually received (count + order-independent content
// hash) and the run's accounting.
type offloadRun struct {
	delivered uint64
	hash      uint64
	stats     Stats
	rt        *Runtime
}

// runOffloadDifferential replays the exact same frame list through the
// full online datapath with the flow-offload fastpath on or off. Rings
// and pool are sized so the NIC never sheds load: deliveries are then a
// pure function of the workload, and must not change when decided flows
// are cut off at the device.
func runOffloadDifferential(t *testing.T, tr *traffic.Trace, enable bool, budget int) offloadRun {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Filter = "tls.sni matches 'nflxvideo'"
	cfg.Cores = 2
	cfg.RingSize = 1 << 16
	cfg.PoolSize = 1 << 17
	cfg.FlowOffload = FlowOffloadConfig{Enable: enable, MaxFlowRules: budget}

	var mu sync.Mutex
	var count, hash uint64
	rt, err := New(cfg, Packets(func(p *Packet) {
		h := fnv.New64a()
		h.Write(p.Data)
		mu.Lock()
		count++
		hash ^= h.Sum64() // XOR: order-independent across cores
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	src := &gatedSource{Cursor: tr.Replay()}
	if enable {
		src.gateAt = len(tr.Frames) / 2
		src.ready = func() bool { return rt.Offload().Stats().RulesLive > 0 }
	}
	st := rt.Run(src)
	if st.Loss() != 0 {
		t.Fatalf("offload=%v: unexpected NIC loss %d (rings/pool undersized for differential run)", enable, st.Loss())
	}
	return offloadRun{delivered: count, hash: hash, stats: st, rt: rt}
}

// TestFlowOffloadDifferential is the fastpath's correctness pin: with a
// packet-level subscription over TLS SNI, cutting terminally-decided
// flows off at the device must leave the subscription's output
// byte-identical — only the drop-reason composition may change
// (conn_rejected/pending_discard software drops become hw_offload_drop
// device drops) — while frame conservation holds exactly in both modes
// and the rule table never exceeds its budget.
func TestFlowOffloadDifferential(t *testing.T) {
	tr := campusTrace(11, 500)
	const budget = 32

	off := runOffloadDifferential(t, tr, false, budget)
	on := runOffloadDifferential(t, tr, true, budget)

	if off.delivered == 0 {
		t.Fatal("workload produced no matching deliveries — differential is vacuous")
	}
	if on.delivered != off.delivered || on.hash != off.hash {
		t.Fatalf("subscription output diverged: off %d pkts (hash %#x), on %d pkts (hash %#x)",
			off.delivered, off.hash, on.delivered, on.hash)
	}
	if off.stats.NIC.RxFrames != on.stats.NIC.RxFrames {
		t.Fatalf("rx diverged: %d vs %d", off.stats.NIC.RxFrames, on.stats.NIC.RxFrames)
	}

	// The fastpath actually engaged: frames died at the device, rules
	// were installed, and the table stayed within budget throughout.
	if on.stats.NIC.HWOffloadDrop == 0 {
		t.Fatal("offload enabled but no frame was dropped at the device")
	}
	if off.stats.NIC.HWOffloadDrop != 0 {
		t.Fatalf("offload disabled but hw_offload_drop = %d", off.stats.NIC.HWOffloadDrop)
	}
	ms := on.rt.Offload().Stats()
	if ms.Installed == 0 {
		t.Fatal("no flow rules installed")
	}
	if ms.PeakRules > budget {
		t.Fatalf("rule table exceeded its budget: peak %d > %d", ms.PeakRules, budget)
	}

	// Frame conservation, strictly, in both modes: every frame the port
	// accepted is a delivery or exactly one taxonomy reason — with the
	// device's offload drops part of the same ledger.
	for _, r := range []offloadRun{off, on} {
		assertFrameConservation(t, r.rt, r.stats)
	}
}

// TestFlowOffloadMultiSubscription runs two session-level subscriptions
// (TLS handshakes filtered by SNI, HTTP transactions) with and without
// the fastpath and asserts the delivered session payloads — not just
// counts — are identical, along with the per-subscription counters and
// frame conservation.
func TestFlowOffloadMultiSubscription(t *testing.T) {
	tr := campusTrace(23, 500)

	run := func(enable bool) (snis, uris []string, subs map[string]uint64, st Stats) {
		cfg := DefaultConfig()
		cfg.Cores = 2
		cfg.RingSize = 1 << 16
		cfg.PoolSize = 1 << 17
		cfg.FlowOffload = FlowOffloadConfig{Enable: enable, MaxFlowRules: 64}
		rt, err := NewDynamic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		if _, err := rt.AddSubscription("tls", "tls.sni matches 'nflxvideo'",
			TLSHandshakes(func(h *TLSHandshake, _ *SessionEvent) {
				mu.Lock()
				snis = append(snis, h.SNI)
				mu.Unlock()
			})); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.AddSubscription("http", "http",
			HTTPTransactions(func(tx *HTTPTransaction, _ *SessionEvent) {
				mu.Lock()
				uris = append(uris, tx.Method+" "+tx.URI)
				mu.Unlock()
			})); err != nil {
			t.Fatal(err)
		}
		src := &gatedSource{Cursor: tr.Replay()}
		if enable {
			src.gateAt = len(tr.Frames) / 2
			src.ready = func() bool { return rt.Offload().Stats().RulesLive > 0 }
		}
		st = rt.Run(src)
		if st.Loss() != 0 {
			t.Fatalf("offload=%v: unexpected NIC loss %d", enable, st.Loss())
		}
		assertFrameConservation(t, rt, st)
		subs = map[string]uint64{}
		for _, info := range rt.ListSubscriptions() {
			subs[info.Name] = info.Delivered
		}
		sort.Strings(snis)
		sort.Strings(uris)
		return snis, uris, subs, st
	}

	offSNI, offURI, offSubs, _ := run(false)
	onSNI, onURI, onSubs, onSt := run(true)

	if len(offSNI) == 0 || len(offURI) == 0 {
		t.Fatalf("vacuous differential: %d TLS, %d HTTP deliveries", len(offSNI), len(offURI))
	}
	if !equalStrings(offSNI, onSNI) {
		t.Fatalf("TLS deliveries diverged: off %d, on %d", len(offSNI), len(onSNI))
	}
	if !equalStrings(offURI, onURI) {
		t.Fatalf("HTTP deliveries diverged: off %d, on %d", len(offURI), len(onURI))
	}
	for name, want := range offSubs {
		if onSubs[name] != want {
			t.Fatalf("per-subscription counter %q diverged: off %d, on %d", name, want, onSubs[name])
		}
	}
	if onSt.NIC.HWOffloadDrop == 0 {
		t.Fatal("offload enabled but no frame was dropped at the device")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFlowOffloadInvalidatedBySwap: a mid-run subscription add must not
// leave stale per-flow verdicts installed — frames a new subscription
// wants cannot be eaten by rules justified under the old program.
func TestFlowOffloadInvalidatedBySwap(t *testing.T) {
	tr := campusTrace(31, 300)
	half := len(tr.Frames) / 2

	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.RingSize = 1 << 16
	cfg.PoolSize = 1 << 17
	cfg.FlowOffload = FlowOffloadConfig{Enable: true}
	rt, err := NewDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nTLS, nAll atomic.Uint64
	if _, err := rt.AddSubscription("tls", "tls.sni matches 'nflxvideo'",
		Packets(func(*Packet) { nTLS.Add(1) })); err != nil {
		t.Fatal(err)
	}
	rt.Run(tr.Slice(0, half).Replay())
	pre := rt.Offload().Stats()
	if pre.Installed == 0 {
		t.Skip("first half produced no offloaded flows — workload too small to exercise invalidation")
	}

	// The catch-all packet subscription claims every flow the old
	// program rejected: the swap must flush the dynamic partition.
	if _, err := rt.AddSubscription("all", "", Packets(func(*Packet) { nAll.Add(1) })); err != nil {
		t.Fatal(err)
	}
	ms := rt.Offload().Stats()
	if ms.Invalidations == 0 || ms.Flushed == 0 {
		t.Fatalf("swap did not invalidate the flow partition: %+v", ms)
	}
	if ms.RulesLive != 0 {
		t.Fatalf("%d stale rules survived the swap", ms.RulesLive)
	}

	st := rt.Run(tr.Slice(half, len(tr.Frames)).Replay())
	if nAll.Load() == 0 {
		t.Fatal("new catch-all subscription received nothing after the swap")
	}
	// Every frame the device accepted reached software or a taxonomy
	// reason; none vanished into a pre-swap rule.
	assertFrameConservation(t, rt, st)
}

// BenchmarkFlowOffload measures the fastpath's win on the workload it
// was designed for: elephant HTTPS flows whose SNI the subscription
// rejects. Without offload every 256 KB response burns core cycles just
// to be discarded; with offload the flow dies at the device right after
// the handshake verdict.
func BenchmarkFlowOffload(b *testing.B) {
	for _, mode := range []struct {
		name   string
		enable bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var frames, elapsed uint64
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.Filter = "tls.sni matches 'nflxvideo'"
				cfg.Cores = 2
				cfg.RingSize = 1 << 16
				cfg.PoolSize = 1 << 17
				cfg.FlowOffload = FlowOffloadConfig{Enable: mode.enable}
				rt, err := New(cfg, Packets(func(*Packet) {}))
				if err != nil {
					b.Fatal(err)
				}
				src := traffic.NewHTTPSWorkload(int64(i+1), 300, 64, 2, "elephant.example.com")
				start := time.Now()
				st := rt.Run(src)
				elapsed += uint64(time.Since(start))
				frames += st.NIC.RxFrames
			}
			if elapsed > 0 {
				b.ReportMetric(float64(frames)/(float64(elapsed)/float64(time.Second)), "pkts/s")
			}
		})
	}
}

// TestStatusEndpoint drives the admin status API: epoch, hardware
// state, reconcile error surface, and the offload table snapshot.
func TestStatusEndpoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.FlowOffload = FlowOffloadConfig{Enable: true}
	rt, err := NewDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddSubscription("tls", "tls.sni matches 'nflxvideo'",
		Packets(func(*Packet) {})); err != nil {
		t.Fatal(err)
	}
	srv, err := rt.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rt.Run(campusTrace(5, 200).Replay())

	resp, err := http.Get("http://" + srv.Addr() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /status: %d", resp.StatusCode)
	}
	var got StatusReport
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 1 || got.Subscriptions != 1 {
		t.Fatalf("status = %+v, want epoch 1 with 1 subscription", got)
	}
	if got.Offload == nil {
		t.Fatal("status omits the offload snapshot with the fastpath enabled")
	}
	if got.ReconcileErrors != 0 || got.LastReconcileError != "" {
		t.Fatalf("phantom reconcile errors: %+v", got)
	}
}
