// Package telemetry is Retina's observability substrate (paper §5.3):
// always-on atomic counters and histograms, and a central registry of
// readers over them with static label support, exposed in Prometheus
// text format and via expvar.
//
// Design constraints, in order:
//
//  1. Hot-path cost: instrumented code paths touch a single atomic add.
//     No map lookups, no label rendering, no locking on update — each
//     layer owns its *Counter and *Histogram values and updates them
//     directly.
//  2. Pull collectors: the registry only reads. Layers register their
//     counts as CounterFunc/GaugeFunc closures and their histograms with
//     AttachHistogram, so state is never duplicated and never drifts.
//  3. Deterministic exposition: families and series render in
//     registration order so scrapes diff cleanly and tests can assert on
//     output.
//
// The drop-reason taxonomy (the label values every dropped frame is
// accounted under) lives here so all layers agree on the vocabulary.
package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Drop reasons: every frame offered to the port that does not reach a
// callback is accounted under exactly one of these. The conservation
// invariant (asserted by tests) is
//
//	RxFrames == delivered + Σ(per-reason drops) + still-buffered.
const (
	// DropMalformed: the hardware parser could not read the frame.
	DropMalformed = "malformed"
	// DropHWFilter: dropped by the installed hardware flow rules.
	DropHWFilter = "hw_filter"
	// DropRSSSink: diverted to the sink queue by RSS sampling.
	DropRSSSink = "rss_sink"
	// DropRingOverflow: a receive descriptor ring was full.
	DropRingOverflow = "ring_overflow"
	// DropPoolExhausted: no packet buffer was available.
	DropPoolExhausted = "pool_exhausted"
	// DropSWFilter: rejected by the software packet filter.
	DropSWFilter = "sw_filter"
	// DropNotTrackable: matched non-terminally but carries no trackable
	// five-tuple, so no stateful stage can ever deliver it.
	DropNotTrackable = "not_trackable"
	// DropTableFull: the connection table was at MaxConns.
	DropTableFull = "table_full"
	// DropConnRejected: the packet's connection failed the filter
	// (tombstoned connections and the packet that triggered rejection).
	DropConnRejected = "conn_rejected"
	// DropPktBufOverflow: the per-connection packet buffer was full while
	// the filter verdict was pending.
	DropPktBufOverflow = "pkt_buffer_overflow"
	// DropPendingDiscard: packets buffered awaiting a verdict that never
	// arrived (the connection expired or was rejected before matching).
	DropPendingDiscard = "pending_discard"
	// DropStreamBufOverflow: byte-stream chunks discarded because the
	// pre-verdict stream buffer hit its bound.
	DropStreamBufOverflow = "stream_buffer_overflow"
	// DropReasmBufferFull: TCP segments dropped because the per-direction
	// out-of-order buffer was at capacity.
	DropReasmBufferFull = "reassembly_buffer_full"
	// DropReasmBudget: TCP segments refused or retroactively shed because
	// the per-core reassembly byte budget (or a pool/ring low-watermark)
	// ruled out parking them.
	DropReasmBudget = "reasm_budget"
	// DropPktBufBudget: packets not buffered — or buffered packets
	// discarded from another connection — because the per-core packet-
	// buffer byte budget was exhausted.
	DropPktBufBudget = "pktbuf_budget"
	// DropShedLowPool: packets not buffered because the mbuf pool or a
	// receive ring crossed its overload watermark.
	DropShedLowPool = "shed_low_pool"
	// DropEvictedPressure: buffered packets discarded when their
	// connection was evicted under table pressure (MaxConns reached).
	DropEvictedPressure = "evicted_pressure"
	// DropHWOffload: dropped by a dynamic per-flow offload rule — the
	// connection already reached a terminal software verdict (rejected,
	// parsed-and-done, or closed) and its remaining packets are discarded
	// in "hardware" at zero CPU cost.
	DropHWOffload = "hw_offload_drop"
	// DropOversize: the frame exceeds the packet buffer capacity and
	// could not be stored (distinct from pool exhaustion: buffers were
	// available, the frame just does not fit one).
	DropOversize = "oversize_frame"
)

// FrameDropReasons lists every reason that accounts whole received
// frames. These — and only these — participate in the frame conservation
// invariant above. The remaining reasons (stream_buffer_overflow,
// reassembly_buffer_full, reasm_budget) count payload-level units (TCP
// segments, stream chunks) carried by frames that are already accounted
// elsewhere, so including them would double-count.
func FrameDropReasons() []string {
	return []string{
		DropMalformed, DropHWFilter, DropHWOffload, DropRSSSink,
		DropRingOverflow, DropPoolExhausted, DropOversize, DropSWFilter,
		DropNotTrackable, DropTableFull, DropConnRejected,
		DropPktBufOverflow, DropPendingDiscard, DropPktBufBudget,
		DropShedLowPool, DropEvictedPressure,
	}
}

// RankDrops orders a drop-reason breakdown for display: largest count
// first, ties broken by reason name.
func RankDrops(drops map[string]uint64) []string {
	reasons := make([]string, 0, len(drops))
	for k := range drops {
		reasons = append(reasons, k)
	}
	sort.Slice(reasons, func(i, j int) bool {
		if drops[reasons[i]] != drops[reasons[j]] {
			return drops[reasons[i]] > drops[reasons[j]]
		}
		return reasons[i] < reasons[j]
	})
	return reasons
}

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram safe for concurrent Observe.
// Buckets are cumulative in exposition (Prometheus semantics).
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS (see addFloatBits)
	// index, when set, computes the bucket index in O(1) instead of a
	// binary search — installed by NewLogLinearHistogram. Must agree
	// with sort.SearchFloat64s(bounds, v) exactly.
	index func(float64) int
}

// NewHistogramBuckets builds a histogram with the given ascending upper
// bounds.
func NewHistogramBuckets(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	var i int
	if h.index != nil {
		i = h.index(v)
	} else {
		i = sort.SearchFloat64s(h.bounds, v)
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloatBits(&h.sum, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Label is one static metric dimension.
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

type series struct {
	labels   []Label
	rendered string // `{k="v",...}` or ""

	// A histogram family's series reads hist; every other series reads
	// the pull collector fn.
	hist  *Histogram
	fn    func() float64
	isInt bool // render fn results as integers
}

type family struct {
	name, help string
	kind       metricKind
	series     []*series
	byLabels   map[string]*series
}

// Registry holds metric families. All methods are safe for concurrent
// use; registering the same name + labels again reuses the series.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes a label value for the exposition format. A
// Replacer is safe for concurrent use, so one serves every label.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

// getFamily finds or creates a family, panicking on invalid names or a
// kind conflict — both are programmer errors caught in tests.
func (r *Registry) getFamily(name, help string, kind metricKind) *family {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byLabels: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// seriesLocked finds or creates a series. Callers must hold r.mu.
func (r *Registry) seriesLocked(name, help string, kind metricKind, labels []Label) *series {
	for _, l := range labels {
		if !labelNameRe.MatchString(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l.Key, name))
		}
	}
	f := r.getFamily(name, help, kind)
	key := renderLabels(labels)
	if s, ok := f.byLabels[key]; ok {
		return s
	}
	s := &series{labels: append([]Label(nil), labels...), rendered: key}
	f.byLabels[key] = s
	f.series = append(f.series, s)
	return s
}

// CounterFunc registers a pull collector rendered as a counter — for
// layers that already maintain their own atomic counts.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(name, help, kindCounter, labels)
	s.fn = func() float64 { return float64(fn()) }
	s.isInt = true
}

// GaugeFunc registers a pull collector rendered as a gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(name, help, kindGauge, labels)
	s.fn = fn
}

// Sample is one (name, labels, value) point from a registry snapshot.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label returns the value of the named label ("" when absent).
func (s Sample) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Samples snapshots every series. Histograms contribute name_count and
// name_sum samples.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Sample
	for _, f := range r.families {
		for _, s := range f.series {
			if f.kind == kindHistogram && s.hist != nil {
				out = append(out, Sample{Name: f.name + "_count", Labels: s.labels, Value: float64(s.hist.Count())})
				out = append(out, Sample{Name: f.name + "_sum", Labels: s.labels, Value: s.hist.Sum()})
				continue
			}
			out = append(out, Sample{Name: f.name, Labels: s.labels, Value: s.fn()})
		}
	}
	return out
}

func formatValue(v float64, isInt bool) string {
	if isInt && v == math.Trunc(v) && !math.IsInf(v, 0) {
		if v < 0 {
			// Gauges may go negative; uint64 conversion would wrap.
			return strconv.FormatInt(int64(v), 10)
		}
		return strconv.FormatUint(uint64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4), families in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, f := range r.families {
		if len(f.series) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			if f.kind == kindHistogram && s.hist != nil {
				writeHistogram(&b, f.name, s)
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.name, s.rendered, formatValue(s.fn(), s.isInt))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.hist
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLE(s, strconv.FormatFloat(bound, 'g', -1, 64)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLE(s, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.rendered, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.rendered, h.Count())
}

// mergeLE splices le="bound" into a series' rendered label set.
func mergeLE(s *series, bound string) string {
	if s.rendered == "" {
		return `{le="` + bound + `"}`
	}
	return strings.TrimSuffix(s.rendered, "}") + `,le="` + bound + `"}`
}

// expvar integration. expvar.Publish panics on duplicate names and
// offers no unpublish, so registries are exposed through an indirection
// map: re-publishing a name atomically swaps which registry it reads.
var (
	expvarMu   sync.Mutex
	expvarRegs = map[string]*Registry{}
)

// PublishExpvar exposes the registry's samples under the given expvar
// name (e.g. on /debug/vars). Safe to call repeatedly and across
// registries; the latest registry wins.
func PublishExpvar(name string, r *Registry) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	_, republish := expvarRegs[name]
	expvarRegs[name] = r
	if republish || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any {
		expvarMu.Lock()
		reg := expvarRegs[name]
		expvarMu.Unlock()
		if reg == nil {
			return nil
		}
		out := make(map[string]any)
		for _, s := range reg.Samples() {
			key := s.Name
			if lbl := renderLabels(s.Labels); lbl != "" {
				key += lbl
			}
			out[key] = s.Value
		}
		return out
	}))
}
