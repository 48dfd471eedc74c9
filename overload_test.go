package retina

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"retina/internal/telemetry"
	"retina/internal/traffic"
)

// assertFrameConservation checks the packet-conservation identities
// after a run, which hold even while overload control sheds. Per core,
// every processed packet has exactly one disposition. Globally, rx ==
// delivered + Σ(frame-level drops): payload-level reasons (reasm_budget
// and the stream-buffer reasons) count TCP segments whose frames
// already have a frame-level disposition, so they are excluded from the
// frame sum. rt is nil for a RunOffline run, which bypasses the device:
// only the per-core identity applies there.
func assertFrameConservation(t *testing.T, rt *Runtime, stats Stats) {
	t.Helper()
	var delivered, processed uint64
	for i, cs := range stats.Cores {
		delivered += cs.DeliveredPackets
		processed += cs.Processed
		disposed := cs.FilterDropped + cs.TombstonePkts + cs.NotTrackable +
			cs.TableFull + cs.PktBufOverflow + cs.PendingDiscard +
			cs.PktBufBudget + cs.ShedLowPool + cs.EvictedPressure +
			cs.DeliveredPackets
		if disposed != cs.Processed {
			t.Errorf("core %d: disposed %d != processed %d (%+v)", i, disposed, cs.Processed, cs)
		}
	}
	if processed == 0 {
		t.Error("no core processed a frame")
	}
	if rt == nil {
		return
	}
	drops := rt.DropBreakdown()
	var dropSum uint64
	for _, reason := range telemetry.FrameDropReasons() {
		dropSum += drops[reason]
	}
	if got := delivered + dropSum; got != stats.NIC.RxFrames {
		t.Errorf("conservation violated: delivered %d + drops %d = %d, rx %d\nbreakdown: %v",
			delivered, dropSum, got, stats.NIC.RxFrames, drops)
	}
	if stats.NIC.RxFrames == 0 {
		t.Error("workload produced no traffic")
	}
}

// TestAdversarialOverloadConservation drives the three adversarial
// workload shapes against budgets low enough that every shedding path
// fires, and asserts packet conservation holds throughout: overload must
// degrade analysis fidelity, never the accounting.
func TestAdversarialOverloadConservation(t *testing.T) {
	t.Run("seq_jump", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Cores = 2
		cfg.Filter = "http"
		cfg.ReassemblyBudget = 4096
		cfg.PacketBufBudget = 2048
		rt, err := New(cfg, Packets(func(*Packet) {}))
		if err != nil {
			t.Fatal(err)
		}
		stats := rt.Run(traffic.NewAdversarialWorkload(traffic.AdvSeqJump, 101, 200, 20))
		assertFrameConservation(t, rt, stats)
		if got := rt.DropBreakdown()[telemetry.DropPktBufBudget]; got == 0 {
			t.Error("2 KiB packet-buffer budget never shed under 64 concurrent pre-verdict flows")
		}
	})

	t.Run("ooo_flood", func(t *testing.T) {
		// A one-byte hole keeps every connection's verdict pending while
		// its segments park out of order: both the reassembly budget and
		// the packet-buffer budget must engage.
		cfg := DefaultConfig()
		cfg.Cores = 2
		cfg.Filter = "http"
		cfg.ReassemblyBudget = 8192
		cfg.PacketBufBudget = 8192
		cfg.PacketBufferCap = 4096
		rt, err := New(cfg, Packets(func(*Packet) {}))
		if err != nil {
			t.Fatal(err)
		}
		stats := rt.Run(traffic.NewAdversarialWorkload(traffic.AdvOOOFlood, 202, 120, 20))
		assertFrameConservation(t, rt, stats)
		drops := rt.DropBreakdown()
		if drops[telemetry.DropReasmBudget] == 0 {
			t.Error("8 KiB reassembly budget never shed under the OOO flood")
		}
		if drops[telemetry.DropPktBufBudget] == 0 {
			t.Error("8 KiB packet-buffer budget never shed under the OOO flood")
		}
	})

	t.Run("ooo_flood_low_pool", func(t *testing.T) {
		// Budgets left at defaults but the mbuf pool shrunk: buffered
		// pre-verdict packets pin pool buffers until the low-water signal
		// makes the cores stop the optional copies.
		cfg := DefaultConfig()
		cfg.Cores = 1
		cfg.Filter = "http"
		cfg.PoolSize = 512
		cfg.PacketBufferCap = 1 << 20
		rt, err := New(cfg, Packets(func(*Packet) {}))
		if err != nil {
			t.Fatal(err)
		}
		stats := rt.Run(traffic.NewAdversarialWorkload(traffic.AdvOOOFlood, 303, 120, 20))
		assertFrameConservation(t, rt, stats)
		if got := rt.DropBreakdown()[telemetry.DropShedLowPool]; got == 0 {
			t.Error("pool low-water signal never shed despite buffered packets pinning a 512-buffer pool")
		}
	})

	t.Run("conn_churn", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Cores = 2
		cfg.Filter = "http"
		cfg.MaxConns = 32
		rt, err := New(cfg, Packets(func(*Packet) {}))
		if err != nil {
			t.Fatal(err)
		}
		stats := rt.Run(traffic.NewAdversarialWorkload(traffic.AdvChurn, 404, 1000, 20))
		assertFrameConservation(t, rt, stats)
		drops := rt.DropBreakdown()
		if drops[telemetry.DropEvictedPressure] == 0 {
			t.Error("SYN churn against a 32-conn table never evicted for pressure")
		}
		if drops[telemetry.DropTableFull] != 0 {
			t.Errorf("table_full = %d with pressure eviction on; every arrival should have been admitted",
				drops[telemetry.DropTableFull])
		}
	})
}

// TestPressureEvictionAcceptance is the tentpole's conntrack criterion
// end to end: with the table saturated by idle unestablished connections,
// new SYNs are admitted by evicting the longest-idle entry — visible as
// evicted_pressure (never table_full) in both the drop taxonomy and the
// Prometheus exposition, alongside the per-core overload gauges.
func TestPressureEvictionAcceptance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.Filter = "http"
	cfg.MaxConns = 64
	rt, err := New(cfg, Packets(func(*Packet) {}))
	if err != nil {
		t.Fatal(err)
	}
	stats := rt.Run(traffic.NewAdversarialWorkload(traffic.AdvChurn, 7, 2000, 20))

	var tableFull, evictedPkts uint64
	for _, cs := range stats.Cores {
		tableFull += cs.TableFull
		evictedPkts += cs.EvictedPressure
	}
	if tableFull != 0 {
		t.Fatalf("table_full = %d, want 0: pressure eviction must admit every SYN", tableFull)
	}
	if evictedPkts == 0 {
		t.Fatal("no buffered packets were accounted to evicted connections")
	}

	srv, err := rt.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateExposition(body); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	out := string(body)
	for _, want := range []string{
		`retina_drops_total{reason="evicted_pressure"}`,
		`reason="evicted_pressure"`, // retina_conns_expired_total series
		"retina_overload_used_bytes",
		"retina_overload_budget_bytes",
		`class="pktbuf"`,
		`class="reassembly"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestDropLedgerMatchesExposition checks the two readers of the drop
// ledger agree over a run that sheds for several reasons: every
// retina_drops_total sample equals DropBreakdown's count for its reason
// (absent = zero), and the series follow the ledger's order.
func TestDropLedgerMatchesExposition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.Filter = "http"
	cfg.MaxConns = 24
	cfg.ReassemblyBudget = 8192
	cfg.PacketBufBudget = 8192
	cfg.PacketBufferCap = 4096
	rt, err := New(cfg, Packets(func(*Packet) {}))
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(traffic.NewAdversarialWorkload(traffic.AdvOOOFlood, 202, 120, 20))

	drops := rt.DropBreakdown()
	if len(drops) < 4 {
		t.Fatalf("only %d non-zero drop reasons (%v); the check needs at least 4", len(drops), drops)
	}
	var order []string
	for _, s := range rt.Registry().Samples() {
		if s.Name != "retina_drops_total" {
			continue
		}
		reason := s.Label("reason")
		order = append(order, reason)
		if got := uint64(s.Value); got != drops[reason] {
			t.Errorf("retina_drops_total{reason=%q} = %d, DropBreakdown = %d", reason, got, drops[reason])
		}
	}
	var want []string
	for _, d := range dropLedger {
		want = append(want, d.labels[0].Value)
	}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Errorf("retina_drops_total series order\n got %v\nwant %v", order, want)
	}
	for reason := range drops {
		if !slices.Contains(order, reason) {
			t.Errorf("DropBreakdown reports %q, which has no retina_drops_total series", reason)
		}
	}
}
