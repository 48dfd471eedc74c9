package retina

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"retina/internal/conntrack"
	"retina/internal/traffic"
)

// conntrackRun holds one backend run's observables: the connection
// records the subscription actually received (count + order-independent
// content hash), how each record left the table, and the run's
// accounting.
type conntrackRun struct {
	delivered uint64
	hash      uint64
	byReason  map[conntrack.ExpireReason]uint64
	pressure  uint64
	stats     Stats
}

// runConntrackDifferential replays the exact same frame list through
// the full online datapath with the chosen connection-table backend.
// Rings and pool are sized so the NIC never sheds load: the delivered
// record stream is then a pure function of the workload and the table's
// eviction decisions, and must be byte-identical across backends
// (DESIGN.md §15).
func runConntrackDifferential(t *testing.T, tr *traffic.Trace, backend string, maxConns int) conntrackRun {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.RingSize = 1 << 16
	cfg.PoolSize = 1 << 17
	cfg.conntrackBackend = backend
	cfg.MaxConns = maxConns

	var mu sync.Mutex
	run := conntrackRun{byReason: make(map[conntrack.ExpireReason]uint64)}
	rt, err := New(cfg, Connections(func(r *ConnRecord) {
		h := fnv.New64a()
		fmt.Fprintf(h, "%v|%d|%d|%d %d|%d %d|%d %d|%d %d|%v%v%v%v|%d",
			r.Tuple, r.FirstTick, r.LastTick,
			r.PktsOrig, r.PktsResp, r.BytesOrig, r.BytesResp,
			r.PayloadOrig, r.PayloadResp, r.OOOOrig, r.OOOResp,
			r.Established, r.SynSeen, r.FinSeen, r.RstSeen, r.Why)
		mu.Lock()
		run.delivered++
		run.hash ^= h.Sum64() // XOR: order-independent across cores
		run.byReason[r.Why]++
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	run.stats = rt.Run(tr.Replay())
	if run.stats.Loss() != 0 {
		t.Fatalf("backend=%s: unexpected NIC loss %d (rings/pool undersized for differential run)", backend, run.stats.Loss())
	}
	for _, core := range rt.Cores() {
		run.pressure += core.Table().PressureEvictions()
	}
	return run
}

// assertConntrackRunsMatch pins every observable of two backend runs to
// each other: record count, order-independent content hash, the
// per-reason expiration census, and the pressure-eviction count.
func assertConntrackRunsMatch(t *testing.T, flat, oracle conntrackRun) {
	t.Helper()
	if flat.delivered == 0 {
		t.Fatal("workload produced no connection records — differential is vacuous")
	}
	if flat.delivered != oracle.delivered || flat.hash != oracle.hash {
		t.Fatalf("record stream diverged: flat %d records (hash %#x), map %d records (hash %#x)",
			flat.delivered, flat.hash, oracle.delivered, oracle.hash)
	}
	for why, n := range flat.byReason {
		if oracle.byReason[why] != n {
			t.Fatalf("expirations diverged for %v: flat %d, map %d", why, n, oracle.byReason[why])
		}
	}
	for why, n := range oracle.byReason {
		if flat.byReason[why] != n {
			t.Fatalf("expirations diverged for %v: flat %d, map %d", why, flat.byReason[why], n)
		}
	}
	if flat.pressure != oracle.pressure {
		t.Fatalf("pressure evictions diverged: flat %d, map %d", flat.pressure, oracle.pressure)
	}
}

// TestConntrackBackendDifferential is the flat table's end-to-end
// correctness pin: the full runtime, driven by adversarial workloads
// (sequence jumps, out-of-order floods, SYN churn) plus the campus mix,
// must deliver a byte-identical connection-record stream whether the
// per-core table is the flat open-addressing index or the map oracle.
func TestConntrackBackendDifferential(t *testing.T) {
	workloads := map[string]*traffic.Trace{"campus-mix": campusTrace(19, 400)}
	for name, kind := range map[string]traffic.AdversarialKind{
		"seq-jump":   traffic.AdvSeqJump,
		"ooo-flood":  traffic.AdvOOOFlood,
		"conn-churn": traffic.AdvChurn,
	} {
		workloads[name] = traffic.Collect(traffic.NewAdversarialWorkload(kind, 7, 400, 20), 0)
	}

	for name, tr := range workloads {
		t.Run(name, func(t *testing.T) {
			flat := runConntrackDifferential(t, tr, conntrack.BackendFlat, 0)
			oracle := runConntrackDifferential(t, tr, conntrack.BackendMap, 0)
			assertConntrackRunsMatch(t, flat, oracle)
		})
	}
}

// TestConntrackBackendDifferentialBounded reruns the churn workload
// with a small per-core MaxConns so pressure eviction fires constantly:
// victim selection (longest-idle unestablished, ID tie-break) must pick
// identical victims on both backends, or the record streams diverge.
func TestConntrackBackendDifferentialBounded(t *testing.T) {
	tr := traffic.Collect(traffic.NewAdversarialWorkload(traffic.AdvChurn, 11, 500, 20), 0)
	flat := runConntrackDifferential(t, tr, conntrack.BackendFlat, 48)
	oracle := runConntrackDifferential(t, tr, conntrack.BackendMap, 48)
	assertConntrackRunsMatch(t, flat, oracle)
	if flat.pressure == 0 {
		t.Fatal("bounded churn run evicted nothing — pressure path untested")
	}
}
