package experiments

import (
	"slices"
	"testing"
)

// TestMeasure drives measure with stub sides that return fixed
// sequences and record the order they ran in.
func TestMeasure(t *testing.T) {
	var order []string
	stub := func(name string, vals ...float64) func() float64 {
		return func() float64 {
			order = append(order, name)
			v := vals[0]
			vals = vals[1:]
			return v
		}
	}
	// The first value of each side is its warm-up: far outside the
	// others, so a median or quartile that counted it would show.
	sp := measure(
		stub("a", 1000, 5, 1, 4, 2, 3),
		stub("b", -1000, 10, 30, 20, 50, 40),
	)

	wantOrder := []string{"a", "b", "a", "b", "b", "a", "a", "b", "b", "a", "a", "b"}
	if !slices.Equal(order, wantOrder) {
		t.Errorf("side order %v, want %v (warm-up, then every other round reversed)", order, wantOrder)
	}
	if want := (Spread{Median: 3, Q1: 2, Q3: 4}); sp[0] != want {
		t.Errorf("side a: %+v, want %+v", sp[0], want)
	}
	if want := (Spread{Median: 30, Q1: 20, Q3: 40}); sp[1] != want {
		t.Errorf("side b: %+v, want %+v", sp[1], want)
	}

	if sp[0].Overlaps(sp[1]) || sp[1].Overlaps(sp[0]) {
		t.Errorf("separated spreads %+v and %+v reported as overlapping", sp[0], sp[1])
	}
	if got := ratio(sp[1], sp[0]); got != "10.00x" {
		t.Errorf("ratio of separated spreads = %q, want 10.00x", got)
	}
	overlapping := Spread{Median: 5, Q1: 3, Q3: 6}
	if !sp[0].Overlaps(overlapping) || !overlapping.Overlaps(sp[0]) {
		t.Errorf("overlapping spreads %+v and %+v reported as separated", sp[0], overlapping)
	}
	if got := ratio(overlapping, sp[0]); got != "unresolved" {
		t.Errorf("ratio of overlapping spreads = %q, want unresolved", got)
	}
}
