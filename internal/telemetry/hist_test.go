package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestLogLinearIndexMatchesSearch pins the O(1) Index against the
// binary search it replaces, over edge values (bounds themselves, one
// ULP either side, zero, negatives, beyond-range) and random draws.
func TestLogLinearIndexMatchesSearch(t *testing.T) {
	layouts := []LogLinear{
		LatencyLayout,
		{MinExp: 0, MaxExp: 10, Sub: 1},
		{MinExp: 3, MaxExp: 20, Sub: 4},
	}
	for _, l := range layouts {
		bounds := l.Bounds()
		if !sort.Float64sAreSorted(bounds) {
			t.Fatalf("layout %+v: bounds not sorted", l)
		}
		check := func(v float64) {
			want := sort.SearchFloat64s(bounds, v)
			if got := l.Index(v); got != want {
				t.Fatalf("layout %+v: Index(%g) = %d, want %d", l, v, got, want)
			}
		}
		check(0)
		check(-1)
		check(math.Ldexp(1, l.MaxExp) * 4)
		for _, b := range bounds {
			check(b)
			check(math.Nextafter(b, 0))
			check(math.Nextafter(b, math.Inf(1)))
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20000; i++ {
			check(math.Ldexp(rng.Float64()*2, l.MinExp+rng.Intn(l.MaxExp-l.MinExp+2)))
		}
	}
}

// TestLogLinearIndexNsMatchesIndex pins the integer-only IndexNs against
// the float Index over integer nanosecond values: zero, every power of
// two in and around the layout range ±1, and random draws.
func TestLogLinearIndexNsMatchesIndex(t *testing.T) {
	layouts := []LogLinear{
		LatencyLayout,
		{MinExp: 0, MaxExp: 10, Sub: 1},
		{MinExp: 3, MaxExp: 20, Sub: 4},
	}
	for _, l := range layouts {
		check := func(n uint64) {
			want := l.Index(float64(n))
			if got := l.IndexNs(n); got != want {
				t.Fatalf("layout %+v: IndexNs(%d) = %d, want %d", l, n, got, want)
			}
		}
		check(0)
		for e := 0; e <= l.MaxExp+2 && e < 63; e++ {
			p := uint64(1) << uint(e)
			check(p - 1)
			check(p)
			check(p + 1)
		}
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 50000; i++ {
			check(uint64(rng.Int63n(int64(1) << uint(min(l.MaxExp+3, 62)))))
		}
	}
}

func TestLogLinearHistogramObserve(t *testing.T) {
	h := NewLogLinearHistogram(LatencyLayout)
	vals := []float64{100, 500, 1500, 1e6, 5e7, 1e9}
	for _, v := range vals {
		h.Observe(v)
	}
	if h.Count() != uint64(len(vals)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(vals))
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if h.Sum() != sum {
		t.Fatalf("sum = %g, want %g", h.Sum(), sum)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewLogLinearHistogram(LatencyLayout)
	b := NewLogLinearHistogram(LatencyLayout)
	for i := 0; i < 100; i++ {
		a.Observe(float64(i) * 1000)
		b.Observe(float64(i) * 3000)
	}
	dst := NewLogLinearHistogram(LatencyLayout)
	dst.Merge(a)
	dst.Merge(b)
	if dst.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", dst.Count())
	}
	if got, want := dst.Sum(), a.Sum()+b.Sum(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("merged sum = %g, want %g", got, want)
	}
	ca, cb, cd := a.BucketCounts(), b.BucketCounts(), dst.BucketCounts()
	for i := range cd {
		if cd[i] != ca[i]+cb[i] {
			t.Fatalf("bucket %d: merged %d != %d+%d", i, cd[i], ca[i], cb[i])
		}
	}
}

func TestHistogramMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched bounds")
		}
	}()
	NewHistogramBuckets([]float64{1, 2}).Merge(NewHistogramBuckets([]float64{1, 2, 3}))
}

// TestConcurrentMergeObserve is the satellite audit of the float64-bits
// CAS sum: Merge and Observe race on the same destination histogram and
// every contribution must survive. Run under -race in CI.
func TestConcurrentMergeObserve(t *testing.T) {
	dst := NewLogLinearHistogram(LatencyLayout)
	const (
		observers = 4
		mergers   = 4
		perWorker = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < observers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				dst.Observe(float64(1 + rng.Intn(1_000_000)))
			}
		}(int64(w))
	}
	for w := 0; w < mergers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			src := NewLogLinearHistogram(LatencyLayout)
			for i := 0; i < perWorker; i++ {
				src.Observe(float64(1 + rng.Intn(1_000_000)))
				if i%97 == 0 {
					dst.Merge(src)
					src = NewLogLinearHistogram(LatencyLayout)
				}
			}
			dst.Merge(src)
		}(int64(w))
	}
	wg.Wait()
	want := uint64((observers + mergers) * perWorker)
	if dst.Count() != want {
		t.Fatalf("count = %d, want %d (lost updates under contention)", dst.Count(), want)
	}
	var bucketSum uint64
	for _, c := range dst.BucketCounts() {
		bucketSum += c
	}
	if bucketSum != want {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, want)
	}
	// Values were ≤ 1e6 each; the sum must equal count-weighted mean
	// bounds-wise — just check it is positive and finite (exact value is
	// seed-dependent but addFloatBits must never lose a CAS).
	if s := dst.Sum(); math.IsNaN(s) || s <= 0 {
		t.Fatalf("sum = %g, want positive finite", s)
	}
}

func TestLocalHistFlush(t *testing.T) {
	local := NewLocalHist(LatencyLayout)
	shared := NewLogLinearHistogram(LatencyLayout)
	for i := 0; i < 50; i++ {
		local.Observe(float64(i) * 2048)
	}
	local.ObserveN(4096, 10)
	if local.Count() != 60 {
		t.Fatalf("local count = %d, want 60", local.Count())
	}
	local.FlushInto(shared)
	if local.Count() != 0 {
		t.Fatalf("local count after flush = %d, want 0", local.Count())
	}
	if shared.Count() != 60 {
		t.Fatalf("shared count = %d, want 60", shared.Count())
	}
	// Flushing an empty local is a no-op.
	local.FlushInto(shared)
	if shared.Count() != 60 {
		t.Fatalf("empty flush changed count to %d", shared.Count())
	}
	// LocalHist and Histogram agree bucket-for-bucket.
	direct := NewLogLinearHistogram(LatencyLayout)
	for i := 0; i < 50; i++ {
		direct.Observe(float64(i) * 2048)
	}
	for i := 0; i < 10; i++ {
		direct.Observe(4096)
	}
	got, want := shared.BucketCounts(), direct.BucketCounts()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("bucket %d: flushed %d, direct %d", i, got[i], want[i])
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewLogLinearHistogram(LatencyLayout)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 1000 uniform values in [1000, 1000000): quantiles should be
	// monotone and within the layout's relative error of the true value.
	rng := rand.New(rand.NewSource(2))
	var vals []float64
	for i := 0; i < 1000; i++ {
		v := 1000 + rng.Float64()*999000
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := vals[int(q*float64(len(vals)))-1]
		if got < want/2 || got > want*2 {
			t.Fatalf("q%g = %g, true %g — outside layout error bound", q, got, want)
		}
	}
	if p50, p99 := h.Quantile(0.5), h.Quantile(0.99); p99 < p50 {
		t.Fatalf("quantiles not monotone: p50=%g p99=%g", p50, p99)
	}
}

func TestAttachHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := NewLogLinearHistogram(LatencyLayout)
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) * 10000)
	}
	r.AttachHistogram("test_latency_nanoseconds", "attached", h, L("core", "0"))
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("attached histogram exposition invalid: %v\n%s", err, buf.String())
	}
	samples, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sawCount, sawInf bool
	for _, s := range samples {
		switch s.Name {
		case "test_latency_nanoseconds_count":
			sawCount = true
			if s.Value != 10 {
				t.Fatalf("_count = %g, want 10", s.Value)
			}
			if s.Label("core") != "0" {
				t.Fatalf("missing core label: %+v", s)
			}
		case "test_latency_nanoseconds_bucket":
			if s.Label("le") == "+Inf" {
				sawInf = true
				if s.Value != 10 {
					t.Fatalf("+Inf bucket = %g, want 10", s.Value)
				}
			}
		}
	}
	if !sawCount || !sawInf {
		t.Fatalf("exposition missing histogram series (count=%v inf=%v)", sawCount, sawInf)
	}
}

func TestParseExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_pkts_total", "packets", func() uint64 { return 42 }, L("core", "1"), L("q", `a"b\c`))
	r.GaugeFunc("test_depth", "ring depth", func() float64 { return -7 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ParsedSample{}
	for _, s := range samples {
		byName[s.Name] = s
	}
	p, ok := byName["test_pkts_total"]
	if !ok || p.Value != 42 || p.Label("core") != "1" {
		t.Fatalf("counter round-trip failed: %+v", p)
	}
	if p.Label("q") != `a"b\c` {
		t.Fatalf("escaped label round-trip failed: %q", p.Label("q"))
	}
	if d := byName["test_depth"]; d.Value != -7 {
		t.Fatalf("gauge round-trip failed: %+v", d)
	}
}

func BenchmarkLogLinearIndex(b *testing.B) {
	l := LatencyLayout
	bounds := l.Bounds()
	vals := make([]float64, 1024)
	rng := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = math.Ldexp(rng.Float64()*2, l.MinExp+rng.Intn(l.MaxExp-l.MinExp))
	}
	b.Run("frexp", func(b *testing.B) {
		var sink int
		for i := 0; i < b.N; i++ {
			sink += l.Index(vals[i&1023])
		}
		_ = sink
	})
	b.Run("search", func(b *testing.B) {
		var sink int
		for i := 0; i < b.N; i++ {
			sink += sort.SearchFloat64s(bounds, vals[i&1023])
		}
		_ = sink
	})
}
