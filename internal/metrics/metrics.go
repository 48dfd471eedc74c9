// Package metrics provides the measurement substrate the benchmark
// harness uses: a virtual cycle clock (substituting for rdtsc on the
// paper's 3 GHz Xeon), stage timers, throughput helpers, and the
// exact-percentile Series behind the paper's CDFs and tables. Bucketed
// histograms live in the telemetry package.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// CPUGHz is the nominal clock rate used to convert wall time to "CPU
// cycles" so stage costs are reported in the paper's units (Figure 7).
const CPUGHz = 3.0

// processStart anchors NowNanos: timestamps are nanoseconds since
// process start, so they stay small, positive, and strictly monotonic
// (time.Since uses the monotonic clock reading).
var processStart = time.Now()

// NowNanos returns a monotonic nanosecond timestamp — the software
// stand-in for the NIC's hardware RX timestamp register. All latency
// math subtracts two NowNanos readings, so the epoch is irrelevant;
// what matters is that wall-clock steps can never make a latency
// negative.
func NowNanos() int64 { return int64(time.Since(processStart)) }

// NsToCycles converts nanoseconds to nominal CPU cycles.
func NsToCycles(ns float64) float64 { return ns * CPUGHz }

// CyclesToNs converts nominal CPU cycles to nanoseconds.
func CyclesToNs(cycles float64) float64 { return cycles / CPUGHz }

// SpinCycles busy-loops for approximately n nominal CPU cycles — the
// paper's proxy for callback complexity in Figure 5 ("we busy loop for a
// set number of CPU cycles within the callback function").
func SpinCycles(n uint64) {
	if n == 0 {
		return
	}
	target := time.Duration(CyclesToNs(float64(n)))
	start := time.Now()
	var local uint64
	for time.Since(start) < target {
		local++
	}
	// Publish once so the loop body cannot be eliminated; callers run on
	// many goroutines, so the sink must be atomic.
	spinSink.Store(local)
}

var spinSink atomic.Uint64

// StageTimer accumulates invocation counts and time per pipeline stage,
// producing the per-stage cycle breakdown of Figure 7.
type StageTimer struct {
	count atomic.Uint64
	nanos atomic.Uint64
}

// Observe records one invocation of duration d.
func (s *StageTimer) Observe(d time.Duration) {
	s.count.Add(1)
	s.nanos.Add(uint64(d))
}

// Add records n invocations totalling d.
func (s *StageTimer) Add(n uint64, d time.Duration) {
	s.count.Add(n)
	s.nanos.Add(uint64(d))
}

// AddCount records n invocations with no duration — skipping Add's
// add-of-zero on the nanos word.
func (s *StageTimer) AddCount(n uint64) { s.count.Add(n) }

// AddNanos attributes d to invocations already counted via AddCount.
func (s *StageTimer) AddNanos(d time.Duration) { s.nanos.Add(uint64(d)) }

// Count returns the number of invocations.
func (s *StageTimer) Count() uint64 { return s.count.Load() }

// Nanos returns the exact accumulated duration in nanoseconds. Mergers
// must sum this rather than reconstructing totals from AvgCycles*Count,
// which loses sub-nanosecond precision per entry.
func (s *StageTimer) Nanos() uint64 { return s.nanos.Load() }

// AvgCycles returns the mean cost per invocation in nominal cycles.
func (s *StageTimer) AvgCycles() float64 {
	c := s.count.Load()
	if c == 0 {
		return 0
	}
	return NsToCycles(float64(s.nanos.Load()) / float64(c))
}

// GbpsOver computes Gbps for an explicit byte count and duration —
// used when experiments run on virtual time.
func GbpsOver(bytes uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds() / 1e9
}

// Series is an accumulating sample set with percentile and CDF queries
// (Figures 8, 9; Table 2's P50/P99 rows). All methods are guarded by an
// internal mutex, so concurrent Adds and queries are safe; experiments
// that stay single-goroutine pay one uncontended lock per call.
type Series struct {
	mu     sync.Mutex
	vals   []float64
	sorted bool
}

// Add appends a sample.
func (s *Series) Add(v float64) {
	s.mu.Lock()
	s.vals = append(s.vals, v)
	s.sorted = false
	s.mu.Unlock()
}

// Len returns the sample count.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

// sortLocked sorts the samples; callers must hold s.mu.
func (s *Series) sortLocked() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank; zero samples yield NaN.
func (s *Series) Percentile(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sortLocked()
	rank := int(math.Ceil(p / 100 * float64(len(s.vals))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.vals) {
		rank = len(s.vals)
	}
	return s.vals[rank-1]
}

// Mean returns the arithmetic mean (NaN for zero samples).
func (s *Series) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// CDF evaluates the empirical CDF at x.
func (s *Series) CDF(x float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) == 0 {
		return 0
	}
	s.sortLocked()
	i := sort.SearchFloat64s(s.vals, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(s.vals))
}

// CDFPoints returns n evenly spaced (value, cumulative fraction) points
// for plotting.
func (s *Series) CDFPoints(n int) [][2]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) == 0 || n <= 0 {
		return nil
	}
	s.sortLocked()
	out := make([][2]float64, 0, n)
	for i := 1; i <= n; i++ {
		idx := i*len(s.vals)/n - 1
		if idx < 0 {
			idx = 0
		}
		out = append(out, [2]float64{s.vals[idx], float64(i) / float64(n)})
	}
	return out
}

// FormatBytes renders a byte count in human units.
func FormatBytes(b uint64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := uint64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}

// FormatNanos renders a nanosecond duration in human units (ns, µs, ms,
// s), keeping monitor lines compact across six orders of magnitude.
func FormatNanos(ns float64) string {
	switch {
	case ns < 1e3:
		return fmt.Sprintf("%.0fns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.1fms", ns/1e6)
	}
	return fmt.Sprintf("%.2fs", ns/1e9)
}
