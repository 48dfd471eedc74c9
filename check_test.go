package retina

import (
	"slices"
	"strings"
	"testing"
)

// TestCheckNamesBrokenIdentity corrupts one counter of a finished
// connection-subscription run's Stats at a time: Check must accept the
// run as it came back and, for each corruption, report exactly the
// identities the corrupted counter takes part in.
func TestCheckNamesBrokenIdentity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = "ipv4 and tcp"
	cfg.Cores = 2
	cfg.RingSize = 1 << 16
	cfg.PoolSize = 1 << 17
	rt, err := New(cfg, Connections(func(*ConnRecord) {}))
	if err != nil {
		t.Fatal(err)
	}
	stats := rt.Run(campusTrace(17, 200).Replay())
	assertFrameConservation(t, rt, stats)
	if stats.Cores[0].Tracked == 0 {
		t.Fatal("a connection subscription tracked no frame; the run does not exercise Tracked")
	}

	identities := []string{"device:", "core 0:", "runtime:", "pool:"}
	for _, tc := range []struct {
		name    string
		corrupt func(*Stats)
		broken  []string
	}{
		// Check reads every count from Stats, so a drop counted on a
		// core or the device breaks that layer's identity and the
		// runtime's, whose drop sum includes it.
		{"core_drop", func(s *Stats) { s.Cores[0].FilterDropped++ }, []string{"core 0:", "runtime:"}},
		{"core_tracked", func(s *Stats) { s.Cores[0].Tracked-- }, []string{"core 0:", "runtime:"}},
		{"nic_drop", func(s *Stats) { s.NIC.RingDrops++ }, []string{"device:", "runtime:"}},
		{"rx", func(s *Stats) { s.Frames++ }, []string{"runtime:"}},
		{"pool", func(s *Stats) { s.PoolInUse++ }, []string{"pool:"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := stats
			s.Cores = slices.Clone(stats.Cores)
			tc.corrupt(&s)
			err := rt.Check(s)
			if err == nil {
				t.Fatal("Check accepted corrupted stats")
			}
			for _, id := range identities {
				want := slices.Contains(tc.broken, id)
				if named := strings.Contains(err.Error(), id); named != want {
					t.Errorf("error names %q: %v, want %v\n%v", id, named, want, err)
				}
			}
		})
	}
}
