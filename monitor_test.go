package retina

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"retina/internal/traffic"
)

func TestLiveStatsDuringRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = "ipv4 and tcp"
	cfg.Cores = 2
	rt, err := New(cfg, Connections(func(*ConnRecord) {}))
	if err != nil {
		t.Fatal(err)
	}

	var snaps atomic.Int64
	var sawConns atomic.Bool
	stop := rt.Monitor(2*time.Millisecond, func(s LiveStats) {
		snaps.Add(1)
		if s.Conns > 0 {
			sawConns.Store(true)
		}
		if s.PoolTotal == 0 || s.PoolFree > s.PoolTotal {
			t.Errorf("bad pool stats: %d/%d", s.PoolFree, s.PoolTotal)
		}
	})
	defer stop()

	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 3, Flows: 2000, Gbps: 20})
	stats := rt.Run(src)

	if snaps.Load() == 0 {
		t.Fatal("monitor never fired")
	}
	if !sawConns.Load() {
		t.Fatal("monitor never observed live connections")
	}
	final := rt.LiveStats()
	if final.RxFrames != stats.NIC.RxFrames {
		t.Fatalf("LiveStats.RxFrames = %d, run total %d", final.RxFrames, stats.NIC.RxFrames)
	}
}

func TestLossRate(t *testing.T) {
	s := LiveStats{Delivered: 90, Loss: 10}
	if got := s.LossRate(); got != 0.1 {
		t.Fatalf("LossRate = %v", got)
	}
	if (LiveStats{}).LossRate() != 0 {
		t.Fatal("empty LossRate should be 0")
	}
}

// TestLogMonitorOutput renders the log line for a runtime built with an
// initial subscription and for a NewDynamic one, whose callback count
// covers every subscription added later.
func TestLogMonitorOutput(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(Config) (*Runtime, error)
		cb    string
	}{
		{"New", func(cfg Config) (*Runtime, error) { return New(cfg, Packets(func(*Packet) {})) }, " cb[packet]="},
		{"NewDynamic", func(cfg Config) (*Runtime, error) {
			rt, err := NewDynamic(cfg)
			if err == nil {
				_, err = rt.AddSubscription("pkts", "ipv4", Packets(func(*Packet) {}))
			}
			return rt, err
		}, " cb[all]="},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Cores = 1
			rt, err := tc.build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			stop := rt.LogMonitor(&buf, time.Millisecond)
			src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 4, Flows: 1000, Gbps: 20})
			rt.Run(src)
			time.Sleep(5 * time.Millisecond)
			stop()
			out := buf.String()
			if !strings.Contains(out, "[retina] rx=") || !strings.Contains(out, "loss=") || !strings.Contains(out, tc.cb) {
				t.Fatalf("log output missing fields:\n%s", out)
			}
		})
	}
}
