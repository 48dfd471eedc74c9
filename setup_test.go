package retina

import (
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"retina/internal/traffic"
)

// newCost reports the bytes and heap objects one New allocates, the
// least of three tries so a stray allocation elsewhere in the process
// does not count.
func newCost(t testing.TB, cfg Config) (bytes, mallocs uint64) {
	t.Helper()
	bytes, mallocs = ^uint64(0), ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := New(cfg, Packets(func(*Packet) {})); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
	}
	return bytes, mallocs
}

// New does not pay for the pool's bound: buffers are made on first
// need, so a 32x larger PoolSize costs a larger chunk table and nothing
// else. A pool that made every buffer up front would allocate about
// 259 MiB and 127k objects more.
func TestNewCostIndependentOfPoolSize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.PoolSize = 1 << 12
	smallBytes, smallMallocs := newCost(t, cfg)
	cfg.PoolSize = 1 << 17
	largeBytes, largeMallocs := newCost(t, cfg)
	if largeBytes > smallBytes+4<<20 || largeMallocs > smallMallocs+1024 {
		t.Fatalf("New at PoolSize %d allocates %d B in %d objects, at %d only %d B in %d",
			1<<17, largeBytes, largeMallocs, 1<<12, smallBytes, smallMallocs)
	}
}

// BenchmarkNew measures building a runtime at DefaultConfig on one core.
func BenchmarkNew(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg, Packets(func(*Packet) {})); err != nil {
			b.Fatal(err)
		}
	}
}

// Run with two cores, the rebalancer and flow offload, RunOffline, and
// a metrics endpoint that served a scrape and was closed leave no
// goroutine behind.
func TestNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()

	cfg := rebalanceConfig(2)
	cfg.Rebalance = RebalanceConfig{Enable: true, Interval: time.Millisecond}
	cfg.FlowOffload = FlowOffloadConfig{Enable: true}
	rt, err := New(cfg, Connections(func(*ConnRecord) {}))
	if err != nil {
		t.Fatal(err)
	}
	if st := rt.Run(campusTrace(31, 200).Replay()); st.NIC.Delivered == 0 {
		t.Fatal("Run delivered nothing; test is vacuous")
	}

	off, err := New(DefaultConfig(), Packets(func(*Packet) {}))
	if err != nil {
		t.Fatal(err)
	}
	off.RunOffline(traffic.NewCampusMix(traffic.CampusConfig{Seed: 31, Flows: 100, Gbps: 10}))

	srv, err := rt.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	resp, err := (&http.Client{Transport: tr}).Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tr.CloseIdleConnections()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after the runs, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}
