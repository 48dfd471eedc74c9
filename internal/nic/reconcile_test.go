package nic

import (
	"sort"
	"strings"
	"testing"

	"retina/internal/filter"
	"retina/internal/mbuf"
)

func rulesOf(t *testing.T, src string, cap filter.Capability) []filter.FlowRule {
	t.Helper()
	return filter.MustCompile(src, filter.Options{HW: cap}).Rules
}

func sortedStrings(rs []filter.FlowRule) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func TestDiffRulesMinimalSets(t *testing.T) {
	cap := ConnectX5Model()
	old := append(rulesOf(t, "ipv4 and tcp.port = 443", cap), rulesOf(t, "ipv4 and udp.port = 53", cap)...)
	next := append(rulesOf(t, "ipv4 and tcp.port = 443", cap), rulesOf(t, "ipv4 and tcp.port = 80", cap)...)

	install, remove := DiffRules(old, next)
	if len(install) != 1 || !strings.Contains(install[0].String(), "tcp.port = 80") {
		t.Fatalf("install = %v, want only the port-80 rule", sortedStrings(install))
	}
	if len(remove) != 1 || !strings.Contains(remove[0].String(), "udp.port = 53") {
		t.Fatalf("remove = %v, want only the udp-53 rule", sortedStrings(remove))
	}

	// Identical sets: nothing to do.
	install, remove = DiffRules(old, old)
	if len(install) != 0 || len(remove) != 0 {
		t.Fatalf("self-diff produced work: install %v remove %v", install, remove)
	}

	// Duplicates within a set collapse.
	dup := append(append([]filter.FlowRule{}, old...), old...)
	install, remove = DiffRules(nil, dup)
	if len(install) != 2 {
		t.Fatalf("duplicate collapse: install = %v", sortedStrings(install))
	}
}

// TestReconcileInstallBeforeRemove pins the ordering invariant: between
// grow and shrink the installed table covers the union of both programs,
// so no packet either program needs is hardware-dropped mid-swap.
func TestReconcileInstallBeforeRemove(t *testing.T) {
	pool := mbuf.NewPool(64, 2048)
	n := New(Config{Queues: 1, RingSize: 32, Pool: pool, Capability: ConnectX5Model()})
	old := rulesOf(t, "ipv4 and tcp.port = 443", n.Capability())
	next := rulesOf(t, "ipv4 and udp.port = 53", n.Capability())
	if err := n.InstallRules(old); err != nil {
		t.Fatal(err)
	}

	if err := n.ReconcileGrow(old, next); err != nil {
		t.Fatal(err)
	}
	mid := n.InstalledRuleStrings()
	sort.Strings(mid)
	joined := strings.Join(mid, "|")
	if !strings.Contains(joined, "tcp.port = 443") || !strings.Contains(joined, "udp.port = 53") {
		t.Fatalf("mid-swap table %v does not cover the union", mid)
	}
	// Both the outgoing and the incoming program's traffic passes the
	// mid-swap table.
	deliverOne(n, buildTCP("1.1.1.1", "2.2.2.2", 1, 443), 1)
	deliverOne(n, buildUDP("1.1.1.1", "2.2.2.2", 1, 53), 2)
	if st := n.Stats(); st.HWDropped != 0 || st.Delivered != 2 {
		t.Fatalf("mid-swap drops: %+v", st)
	}

	if err := n.ReconcileShrink(next); err != nil {
		t.Fatal(err)
	}
	final := n.InstalledRuleStrings()
	if len(final) != 1 || !strings.Contains(final[0], "udp.port = 53") {
		t.Fatalf("post-shrink table %v, want only the udp rule", final)
	}
	// The outgoing program's traffic is now hardware-dropped again.
	deliverOne(n, buildTCP("1.1.1.1", "2.2.2.2", 1, 443), 3)
	if st := n.Stats(); st.HWDropped != 1 {
		t.Fatalf("post-shrink stats %+v, want 1 hw drop", st)
	}
}

// TestReconcileGrowSubsetNoChange: shrinking the subscription set leaves
// the table untouched until every core has moved off the old program.
func TestReconcileGrowSubsetNoChange(t *testing.T) {
	pool := mbuf.NewPool(16, 2048)
	n := New(Config{Queues: 1, Pool: pool, Capability: ConnectX5Model()})
	old := append(rulesOf(t, "ipv4 and tcp.port = 443", n.Capability()),
		rulesOf(t, "ipv4 and udp.port = 53", n.Capability())...)
	next := rulesOf(t, "ipv4 and tcp.port = 443", n.Capability())
	if err := n.InstallRules(old); err != nil {
		t.Fatal(err)
	}
	before := n.InstalledRuleStrings()
	if err := n.ReconcileGrow(old, next); err != nil {
		t.Fatal(err)
	}
	after := n.InstalledRuleStrings()
	sort.Strings(before)
	sort.Strings(after)
	if strings.Join(before, "|") != strings.Join(after, "|") {
		t.Fatalf("grow with next ⊆ current changed the table: %v -> %v", before, after)
	}
}

// TestReconcileFallbackParity: when the union cannot be held (capacity)
// the device falls back to pass-everything — the same traffic the seed's
// software-only path sees — rather than narrowing coverage.
func TestReconcileFallbackParity(t *testing.T) {
	pool := mbuf.NewPool(64, 2048)
	capModel := CapabilityModel{ExactMatch: true, PrefixMatch: true, MaxRules: 1}
	n := New(Config{Queues: 1, RingSize: 32, Pool: pool, Capability: capModel})
	old := rulesOf(t, "ipv4 and tcp.port = 443", capModel)
	next := rulesOf(t, "ipv4 and udp.port = 53", capModel)
	if err := n.InstallRules(old); err != nil {
		t.Fatal(err)
	}
	if err := n.ReconcileGrow(old, next); err == nil {
		t.Fatal("expected capacity error from grow")
	}
	if n.HardwareActive() {
		t.Fatal("fallback left hardware filtering active")
	}
	// Pass-everything: both programs' traffic and unrelated traffic all
	// reach software, exactly like a device with no rules installed.
	deliverOne(n, buildTCP("1.1.1.1", "2.2.2.2", 1, 443), 1)
	deliverOne(n, buildUDP("1.1.1.1", "2.2.2.2", 1, 53), 2)
	deliverOne(n, buildTCP("1.1.1.1", "2.2.2.2", 1, 9999), 3)
	if st := n.Stats(); st.HWDropped != 0 || st.Delivered != 3 {
		t.Fatalf("fallback dropped in hardware: %+v", st)
	}
	// Shrink back to a set that fits: hardware filtering resumes.
	if err := n.ReconcileShrink(next); err != nil {
		t.Fatal(err)
	}
	if !n.HardwareActive() {
		t.Fatal("shrink to a fitting set did not re-enable hardware")
	}
	deliverOne(n, buildTCP("1.1.1.1", "2.2.2.2", 1, 443), 4)
	if st := n.Stats(); st.HWDropped != 1 {
		t.Fatalf("stats %+v, want 1 hw drop after resuming", st)
	}
}

// TestReconcileShrinkEmptyDisablesHardware: removing every
// rule-contributing subscription turns hardware filtering off instead of
// installing a drop-everything table.
func TestReconcileShrinkEmptyDisablesHardware(t *testing.T) {
	pool := mbuf.NewPool(16, 2048)
	n := New(Config{Queues: 1, Pool: pool, Capability: ConnectX5Model()})
	old := rulesOf(t, "ipv4 and tcp.port = 443", n.Capability())
	if err := n.InstallRules(old); err != nil {
		t.Fatal(err)
	}
	if err := n.ReconcileGrow(old, nil); err != nil {
		t.Fatal(err)
	}
	if err := n.ReconcileShrink(nil); err != nil {
		t.Fatal(err)
	}
	if n.HardwareActive() {
		t.Fatal("empty rule set left hardware filtering on")
	}
	deliverOne(n, buildUDP("1.1.1.1", "2.2.2.2", 1, 1), 1)
	if st := n.Stats(); st.HWDropped != 0 || st.Delivered != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRingPoke(t *testing.T) {
	r := NewRing(8)
	done := make(chan bool, 1)
	go func() { done <- r.Wait() }()
	r.Poke()
	if ok := <-done; !ok {
		t.Fatal("Wait returned false after Poke")
	}
	// The poke token is consumed: a fresh Wait on a closed empty ring
	// terminates.
	r.Close()
	if r.Wait() {
		t.Fatal("Wait returned true on closed empty ring")
	}
}
