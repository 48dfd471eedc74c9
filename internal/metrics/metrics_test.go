package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCycleConversions(t *testing.T) {
	if NsToCycles(1000) != 3000 {
		t.Fatalf("NsToCycles(1000) = %v", NsToCycles(1000))
	}
	if CyclesToNs(3000) != 1000 {
		t.Fatalf("CyclesToNs(3000) = %v", CyclesToNs(3000))
	}
}

func TestSpinCyclesTakesTime(t *testing.T) {
	start := time.Now()
	SpinCycles(3_000_000) // ~1ms at 3GHz
	if el := time.Since(start); el < 500*time.Microsecond {
		t.Fatalf("SpinCycles(3M) took only %v", el)
	}
	SpinCycles(0) // must not hang or panic
}

func TestStageTimer(t *testing.T) {
	var s StageTimer
	s.Observe(100 * time.Nanosecond)
	s.Observe(300 * time.Nanosecond)
	if s.Count() != 2 {
		t.Fatalf("Count = %d", s.Count())
	}
	if got := s.AvgCycles(); math.Abs(got-600) > 1 { // 200ns avg * 3GHz
		t.Fatalf("AvgCycles = %v, want 600", got)
	}
	s.Add(8, 800*time.Nanosecond)
	if s.Count() != 10 {
		t.Fatalf("Count = %d", s.Count())
	}
}

func TestGbpsOver(t *testing.T) {
	// 125 MB in 1s = 1 Gbps.
	if got := GbpsOver(125_000_000, time.Second); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("GbpsOver = %v", got)
	}
	if GbpsOver(1, 0) != 0 {
		t.Fatal("zero duration should yield 0")
	}
}

func TestSeriesPercentiles(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); got != 50 {
		t.Fatalf("P50 = %v", got)
	}
	if got := s.Percentile(99); got != 99 {
		t.Fatalf("P99 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("P100 = %v", got)
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestSeriesEmptyIsNaN(t *testing.T) {
	var s Series
	if !math.IsNaN(s.Percentile(50)) || !math.IsNaN(s.Mean()) {
		t.Fatal("empty series should yield NaN")
	}
	if s.CDF(1) != 0 {
		t.Fatal("empty CDF should be 0")
	}
}

func TestSeriesCDF(t *testing.T) {
	var s Series
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if got := s.CDF(2); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("CDF(2) = %v", got)
	}
	if got := s.CDF(0.5); got != 0 {
		t.Fatalf("CDF(0.5) = %v", got)
	}
	if got := s.CDF(10); got != 1 {
		t.Fatalf("CDF(10) = %v", got)
	}
	pts := s.CDFPoints(4)
	if len(pts) != 4 || pts[3][0] != 4 || pts[3][1] != 1 {
		t.Fatalf("CDFPoints = %v", pts)
	}
}

func TestSeriesAddAfterQueryResorts(t *testing.T) {
	var s Series
	s.Add(5)
	_ = s.Percentile(50)
	s.Add(1)
	if got := s.Percentile(50); got != 1 {
		t.Fatalf("P50 after re-add = %v", got)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[uint64]string{
		512:     "512 B",
		2048:    "2.0 KiB",
		3 << 20: "3.0 MiB",
		5 << 30: "5.0 GiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestStageTimerNanosExact(t *testing.T) {
	var st StageTimer
	total := uint64(0)
	// Durations chosen so avg*count reconstruction loses fractions.
	for i, d := range []time.Duration{3, 5, 7, 11, 13} {
		st.Observe(d)
		total += uint64(d)
		_ = i
	}
	if st.Nanos() != total {
		t.Fatalf("Nanos = %d, want %d", st.Nanos(), total)
	}
	if st.Count() != 5 {
		t.Fatalf("Count = %d", st.Count())
	}
}

func TestSeriesConcurrentAddAndQuery(t *testing.T) {
	var s Series
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s.Add(float64(i))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = s.Percentile(99)
			_ = s.Mean()
			_ = s.CDF(1000)
			_ = s.CDFPoints(10)
		}
	}()
	wg.Wait()
	if s.Len() != 8000 {
		t.Fatalf("Len = %d, want 8000", s.Len())
	}
	if got := s.Percentile(100); got != 1999 {
		t.Fatalf("P100 = %v, want 1999", got)
	}
}
