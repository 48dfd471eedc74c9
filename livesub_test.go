package retina

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"retina/internal/filter"
	"retina/internal/proto"
	"retina/internal/traffic"
)

// campusTrace records a deterministic campus-mix workload so it can be
// replayed, whole or in slices, byte-identically against several
// runtimes.
func campusTrace(seed int64, flows int) *traffic.Trace {
	return traffic.Collect(traffic.NewCampusMix(traffic.CampusConfig{Seed: seed, Flows: flows, Gbps: 20}), 0)
}

// TestSwapDifferentialVsStaticOracle is the swap-correctness pin: a
// dynamic runtime whose subscription set changes between traffic slices
// must deliver, per subscription, byte-identical callback counts to
// static single-subscription runtimes run over exactly the slices the
// subscription was live for — no packet dropped or double-delivered
// across the swaps.
func TestSwapDifferentialVsStaticOracle(t *testing.T) {
	tr := campusTrace(42, 300)
	n := len(tr.Frames)
	third := n / 3
	sliceA := tr.Slice(0, third).Replay()
	sliceB := tr.Slice(third, 2*third).Replay()
	sliceC := tr.Slice(2*third, n).Replay()
	sliceAB := tr.Slice(0, 2*third).Replay()
	sliceBC := tr.Slice(third, n).Replay()

	cfg := DefaultConfig()
	cfg.Cores = 1

	// Dynamic runtime: s1 (tcp/443 packets) live for slices A+B, s2 (udp
	// packets) live for slices B+C.
	rt, err := NewDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var c1, c2 atomic.Uint64
	if _, err := rt.AddSubscription("s1", "tcp.port = 443", Packets(func(*Packet) { c1.Add(1) })); err != nil {
		t.Fatal(err)
	}
	stats := rt.RunOffline(sliceA)
	assertFrameConservation(t, nil, stats)

	if _, err := rt.AddSubscription("s2", "udp", Packets(func(*Packet) { c2.Add(1) })); err != nil {
		t.Fatal(err)
	}
	stats = rt.RunOffline(sliceB)
	assertFrameConservation(t, nil, stats)

	// Counter snapshot before removing s1: the per-subscription counter
	// must agree with the callback count.
	var s1Info SubscriptionInfo
	for _, info := range rt.ListSubscriptions() {
		if info.Name == "s1" {
			s1Info = info
		}
	}
	if s1Info.Delivered != c1.Load() {
		t.Fatalf("s1 counter %d != callbacks %d", s1Info.Delivered, c1.Load())
	}

	if err := rt.RemoveSubscription("s1"); err != nil {
		t.Fatal(err)
	}
	stats = rt.RunOffline(sliceC)
	assertFrameConservation(t, nil, stats)

	if got := c1.Load(); got != s1Info.Delivered {
		t.Fatalf("s1 delivered %d packets after its removal (had %d at removal)", got-s1Info.Delivered, s1Info.Delivered)
	}

	// Static oracles over exactly the slices each subscription was live
	// for.
	oracle := func(filterSrc string, src Source) uint64 {
		var n atomic.Uint64
		ocfg := DefaultConfig()
		ocfg.Cores = 1
		ocfg.Filter = filterSrc
		ort, err := New(ocfg, Packets(func(*Packet) { n.Add(1) }))
		if err != nil {
			t.Fatal(err)
		}
		ort.RunOffline(src)
		return n.Load()
	}
	want1 := oracle("tcp.port = 443", sliceAB)
	want2 := oracle("udp", sliceBC)
	if want1 == 0 || want2 == 0 {
		t.Fatalf("oracles saw no traffic (%d, %d) — workload too small", want1, want2)
	}
	if got := c1.Load(); got != want1 {
		t.Errorf("s1 delivered %d, static oracle %d", got, want1)
	}
	if got := c2.Load(); got != want2 {
		t.Errorf("s2 delivered %d, static oracle %d", got, want2)
	}

	// Swap telemetry: three reconfigurations were published.
	if got := rt.ControlPlane().Swaps(); got != 3 {
		t.Errorf("swaps = %d, want 3", got)
	}
}

// TestLiveChurnConservation is the churn smoke: add and remove 100
// subscriptions while the full online pipeline (NIC, rings, multiple
// cores) replays a workload, then assert packet conservation — every
// frame offered to the port is delivered or accounted to exactly one
// drop reason, across every swap epoch.
func TestLiveChurnConservation(t *testing.T) {
	path := writeWorkloadPcap(t, 777, 1500)
	cfg := DefaultConfig()
	cfg.Cores = 2
	rt, err := NewDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The base subscription is packet-level over everything, so every
	// decodable frame has at least one packet-level matcher — the frame
	// disposition taxonomy (and with it the conservation invariant) is
	// defined for exactly those frames, matching the seed semantics.
	var delivered atomic.Uint64
	if _, err := rt.AddSubscription("base", "", Packets(func(*Packet) { delivered.Add(1) })); err != nil {
		t.Fatal(err)
	}

	filters := []string{"tcp", "udp", "tcp.port = 443", "udp.port = 53", "ipv4"}
	kinds := []string{"packets", "connections", "sessions", "streams"}
	done := make(chan struct{})
	churned := make(chan int)
	go func() {
		n := 0
		for i := 0; i < 100; i++ {
			select {
			case <-done:
				churned <- n
				return
			default:
			}
			name := fmt.Sprintf("churn-%d", i)
			sub, err := SubscriptionForKind(kinds[i%len(kinds)])
			if err != nil {
				t.Error(err)
				churned <- n
				return
			}
			// Ack timeouts are possible once the workload is exhausted and
			// the cores stop consuming; the swap is still committed.
			if _, err := rt.AddSubscription(name, filters[i%len(filters)], sub); err != nil &&
				!strings.Contains(err.Error(), "not acked") {
				t.Errorf("add %s: %v", name, err)
			}
			if err := rt.RemoveSubscription(name); err != nil &&
				!strings.Contains(err.Error(), "not acked") {
				t.Errorf("remove %s: %v", name, err)
			}
			n++
		}
		churned <- n
	}()

	stats := rt.Run(openWorkload(t, path))
	close(done)
	n := <-churned
	if n == 0 {
		t.Fatal("no churn happened during the run")
	}

	assertFrameConservation(t, rt, stats)
	if rt.ControlPlane().Swaps() < uint64(n) {
		t.Errorf("swaps %d < churn cycles %d", rt.ControlPlane().Swaps(), n)
	}
}

// TestAdminSubscriptionAPI drives the live-subscription admin endpoints
// end to end: add by spec, observe counters, remove, and reject bad
// requests.
func TestAdminSubscriptionAPI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	rt, err := NewDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rt.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(base+"/subscriptions", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post(`{"name":"api","filter":"tcp","callback":"packets"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	var created SubscriptionInfo
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if created.Name != "api" || created.Level != "packet" {
		t.Fatalf("created = %+v", created)
	}

	// Duplicate name and unknown callback kind are rejected.
	if resp = post(`{"name":"api","filter":"udp","callback":"packets"}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate POST: %d", resp.StatusCode)
	}
	resp.Body.Close()
	if resp = post(`{"name":"x","filter":"udp","callback":"frobnicate"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kind POST: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Deliver some traffic, then read the counters back over the API.
	tr := campusTrace(9, 40)
	half := len(tr.Frames) / 2
	rt.RunOffline(tr.Slice(0, half).Replay())
	resp, err = http.Get(base + "/subscriptions/api")
	if err != nil {
		t.Fatal(err)
	}
	var got SubscriptionInfo
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Delivered == 0 {
		t.Fatal("subscription saw no deliveries over the API")
	}

	// The per-subscription series shows up in the exposition.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`retina_sub_delivered_total{subscription="api",id="0"}`,
		"retina_ctl_swaps_total",
		"retina_ctl_epoch",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Remove, then confirm it is gone.
	req, _ := http.NewRequest(http.MethodDelete, base+"/subscriptions/api", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE: %d", resp.StatusCode)
	}
	// Until the core acks the removal epoch the subscription is still
	// listed as draining; more traffic forces a pickup, after which it
	// retires.
	rt.RunOffline(tr.Slice(half, len(tr.Frames)).Replay())
	resp, err = http.Get(base + "/subscriptions")
	if err != nil {
		t.Fatal(err)
	}
	var list []SubscriptionInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 0 {
		t.Fatalf("list after delete = %+v", list)
	}
}

// TestDuplicateModuleRegistration pins the fix for silent extraParsers
// overwrites: registering the same protocol module twice must fail
// loudly instead of the second parser clobbering the first.
func TestDuplicateModuleRegistration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = "tcp"
	mod := ProtocolModule{
		Filter: &filter.ProtoDef{
			Name:    "dupe",
			Layer:   filter.LayerConnection,
			Parents: []string{"tcp"},
		},
		Parser: func() proto.Parser { return &echoParser{} },
	}
	cfg.Modules = []ProtocolModule{mod, mod}
	_, err := New(cfg, Packets(func(*Packet) {}))
	if err == nil {
		t.Fatal("duplicate module registration accepted")
	}
	if !strings.Contains(err.Error(), "registered twice") {
		t.Fatalf("unexpected error: %v", err)
	}
}
