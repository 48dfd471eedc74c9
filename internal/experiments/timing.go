package experiments

import (
	"fmt"
	"runtime"
	"time"

	"retina/internal/metrics"
)

// rounds is how many timed runs measure takes of each side after the
// warm-up: enough for a median and quartiles, few enough that the
// whole grid of Figure 5 stays a matter of seconds.
const rounds = 5

// Spread summarizes one side's timed rounds.
type Spread struct {
	Median, Q1, Q3 float64
}

// Overlaps reports whether the quartile ranges of s and o overlap. A
// ratio of two overlapping spreads is not resolved by the runs: the
// noise between rounds is as large as the effect.
func (s Spread) Overlaps(o Spread) bool { return s.Q1 <= o.Q3 && o.Q1 <= s.Q3 }

// measure times the sides of one comparison. Each side builds a fresh
// runtime, runs it once and returns the figure its result reports. One
// untimed run of every side warms caches, the allocator and lazily
// built state; then every round runs each side once, every other round
// in reverse order, so drift in the host (another process, frequency,
// GC debt) falls on all sides alike. It returns each side's median and
// quartiles over the rounds.
func measure(sides ...func() float64) []Spread {
	for _, side := range sides {
		side()
	}
	samples := make([]metrics.Series, len(sides))
	for r := 0; r < rounds; r++ {
		for k := range sides {
			i := k
			if r%2 == 1 {
				i = len(sides) - 1 - k
			}
			samples[i].Add(sides[i]())
		}
	}
	out := make([]Spread, len(sides))
	for i := range samples {
		s := &samples[i]
		out[i] = Spread{Median: s.Percentile(50), Q1: s.Percentile(25), Q3: s.Percentile(75)}
	}
	return out
}

// cpuTime runs fn on the calling goroutine and returns the CPU time it
// took. The goroutine is held on its OS thread and timed by that
// thread's CPU clock, so time another process takes from the CPU is not
// charged to fn, as the wall clock would charge it. fn must do its work
// on the calling goroutine, as RunOffline does.
func cpuTime(fn func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadTime()
	fn()
	return threadTime() - t0
}

// ratio renders a/b from the medians, or "unresolved" when the two
// spreads overlap.
func ratio(a, b Spread) string {
	if a.Overlaps(b) || b.Median == 0 {
		return "unresolved"
	}
	return fmt.Sprintf("%.2fx", a.Median/b.Median)
}

// quartiles renders a spread's interquartile range.
func quartiles(s Spread) string { return F(s.Q1) + "-" + F(s.Q3) }
