package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.CounterFunc("test_events_total", "events", c.Value, L("kind", "a"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Same name+labels reuses the series.
	r.CounterFunc("test_events_total", "events", c.Value, L("kind", "a"))
	depth := int64(7)
	r.GaugeFunc("test_depth", "depth", func() float64 { return float64(depth) })
	depth -= 2
	got := map[string]float64{}
	for _, s := range r.Samples() {
		got[s.Name] += s.Value
	}
	if len(r.Samples()) != 2 || got["test_events_total"] != 5 || got["test_depth"] != 5 {
		t.Fatalf("samples %v, want one series each reading 5", r.Samples())
	}
}

func TestRankDropsLargestFirstNameTieBreak(t *testing.T) {
	drops := map[string]uint64{
		DropTableFull:    7,
		DropSWFilter:     40,
		DropConnRejected: 7,
		DropRSSSink:      7,
		DropMalformed:    1,
	}
	got := strings.Join(RankDrops(drops), " ")
	want := "sw_filter conn_rejected rss_sink table_full malformed"
	if got != want {
		t.Fatalf("RankDrops = %q, want %q", got, want)
	}
	if n := len(RankDrops(nil)); n != 0 {
		t.Fatalf("RankDrops(nil) has %d reasons", n)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_x_total", "x", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	r.GaugeFunc("test_x_total", "x", func() float64 { return 0 })
}

func TestHistogramBucketsAndSum(t *testing.T) {
	h := NewHistogramBuckets([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 560.5 {
		t.Fatalf("sum = %v", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_drops_total", "dropped frames", func() uint64 { return 3 }, L("reason", "ring_overflow"))
	r.CounterFunc("test_drops_total", "dropped frames", func() uint64 { return 1 }, L("reason", `weird"value`+"\n"))
	r.GaugeFunc("test_conns", "live connections", func() float64 { return 42 })
	r.GaugeFunc("test_pull", "pulled value", func() float64 { return 1.5 })
	h := NewHistogramBuckets([]float64{1, 2})
	h.Observe(1.5)
	r.AttachHistogram("test_latency", "latency", h)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_drops_total counter",
		`test_drops_total{reason="ring_overflow"} 3`,
		`test_drops_total{reason="weird\"value\n"} 1`,
		"# TYPE test_conns gauge",
		"test_conns 42",
		"test_pull 1.5",
		"# TYPE test_latency histogram",
		`test_latency_bucket{le="1"} 0`,
		`test_latency_bucket{le="2"} 1`,
		`test_latency_bucket{le="+Inf"} 1`,
		"test_latency_sum 1.5",
		"test_latency_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("own exposition fails validation: %v\n%s", err, out)
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no newline":         "# TYPE a counter\na 1",
		"sample before type": "a_total 1\n",
		"bad value":          "# TYPE a counter\na bogus\n",
		"bad name":           "# TYPE a counter\n0a 1\n",
		"dup series":         "# TYPE a counter\na 1\na 2\n",
		"unterminated label": "# TYPE a counter\na{x=\"y 1\n",
		"unknown type":       "# TYPE a widget\na 1\n",
		"empty":              "",
	}
	for name, in := range cases {
		if err := ValidateExposition([]byte(in)); err == nil {
			t.Errorf("%s: expected validation error for %q", name, in)
		}
	}
}

func TestValidateExpositionAcceptsValid(t *testing.T) {
	in := "# HELP a_total things\n# TYPE a_total counter\na_total{x=\"esc\\\"aped\",y=\"2\"} 10\na_total 2 1700000000\n\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 0.5\nh_count 1\n"
	if err := ValidateExposition([]byte(in)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
}

func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	var counters [4]Counter
	h := NewHistogramBuckets([]float64{10, 100})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := &counters[g%4]
			r.CounterFunc("test_par_total", "p", c.Value, L("g", string(rune('a'+g%4))))
			r.AttachHistogram("test_par_hist", "p", h)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 200))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	total, histCount := uint64(0), uint64(0)
	for _, s := range r.Samples() {
		switch s.Name {
		case "test_par_total":
			total += uint64(s.Value)
		case "test_par_hist_count":
			histCount += uint64(s.Value)
		}
	}
	if total != 8000 {
		t.Fatalf("concurrent counter total = %d, want 8000", total)
	}
	if histCount != 8000 {
		t.Fatalf("histogram count = %d, want 8000", histCount)
	}
	if math.IsNaN(h.Sum()) {
		t.Fatal("histogram sum is NaN")
	}
}

func TestConnTracerSampling(t *testing.T) {
	tr := NewConnTracer(4, 10)
	var spans []*ConnTrace
	for i := 0; i < 16; i++ {
		if sp := tr.Start(0, uint64(i), "t", uint64(i)); sp != nil {
			spans = append(spans, sp)
		}
	}
	if len(spans) != 4 {
		t.Fatalf("sampled %d of 16 with N=4, want 4", len(spans))
	}
	for _, sp := range spans {
		sp.EventDetail("identified", "tls", 5)
		sp.EventOnce("first_parse", "", 6)
		sp.EventOnce("first_parse", "", 7) // must not duplicate
		sp.EventDetail("expire", "termination", 9)
		tr.Finish(sp)
	}
	got := tr.Traces()
	if len(got) != 4 {
		t.Fatalf("finished %d spans, want 4", len(got))
	}
	ev := got[0].Events
	if len(ev) != 4 || ev[0].Name != "first_packet" || ev[1].Detail != "tls" || ev[2].Name != "first_parse" || ev[3].Name != "expire" {
		t.Fatalf("unexpected event sequence: %+v", ev)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"first_packet"`) {
		t.Fatalf("JSON dump missing events:\n%s", buf.String())
	}
}

func TestConnTracerRetentionBound(t *testing.T) {
	tr := NewConnTracer(1, 2)
	for i := 0; i < 5; i++ {
		tr.Finish(tr.Start(0, uint64(i), "t", 0))
	}
	if len(tr.Traces()) != 2 {
		t.Fatalf("retained %d spans, want 2", len(tr.Traces()))
	}
	_, started, dropped := tr.Stats()
	if started != 5 || dropped != 3 {
		t.Fatalf("started=%d dropped=%d, want 5/3", started, dropped)
	}
	// Nil tracer is a no-op everywhere.
	var nilT *ConnTracer
	if nilT.Start(0, 0, "", 0) != nil {
		t.Fatal("nil tracer sampled")
	}
	nilT.Finish(nil)
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r1 := NewRegistry()
	r1.CounterFunc("test_ev_total", "x", func() uint64 { return 1 })
	PublishExpvar("retina_test_metrics", r1)
	r2 := NewRegistry()
	r2.CounterFunc("test_ev_total", "x", func() uint64 { return 9 })
	PublishExpvar("retina_test_metrics", r2) // must not panic; r2 wins
}
