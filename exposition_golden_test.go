package retina

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// goldenExposition is the /metrics layout (families, HELP/TYPE lines,
// series label sets, in order; values stripped) and the /status JSON key
// set of goldenRuntime.
const goldenExposition = "testdata/exposition.golden"

// goldenRuntime builds a runtime with every optional metric family on —
// two cores, latency tracking, flow offload, the rebalancer, connection
// tracing, a bounded table, an aggregation query and a subscription
// whose protocol enters the parser set after construction — and runs a
// short offline trace through it so the /status slices that appear only
// after traffic are populated.
func goldenRuntime(t *testing.T) *Runtime {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Filter = "tls or http or dns or quic"
	cfg.Cores = 2
	cfg.LatencyTracking = true
	cfg.FlowOffload = FlowOffloadConfig{Enable: true}
	cfg.Rebalance = RebalanceConfig{Enable: true}
	cfg.TraceSample = 4
	cfg.MaxConns = 4096
	rt, err := New(cfg, Sessions(func(*SessionEvent) {}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddSubscriptionSpec(SubscriptionSpec{Name: "top-src", Filter: "ipv4", Callback: "packets",
		Aggregate: &AggregateSpec{Op: "topk", Key: "src_ip", Window: "1ms", K: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddSubscription("ssh", "ssh", Connections(func(*ConnRecord) {})); err != nil {
		t.Fatal(err)
	}
	rt.RunOffline(campusTrace(5, 200).Replay())
	return rt
}

// renderGolden renders rt's exposition with values stripped and each
// histogram's bucket lines folded into one, followed by the sorted
// /status key paths.
func renderGolden(t *testing.T, rt *Runtime) string {
	t.Helper()
	var prom bytes.Buffer
	if err := rt.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	out.WriteString("# /metrics\n")
	var bucketSeries string
	buckets := 0
	flush := func() {
		if buckets > 0 {
			fmt.Fprintf(&out, "%s x%d\n", bucketSeries, buckets)
		}
		buckets = 0
	}
	for _, line := range strings.Split(strings.TrimSuffix(prom.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			flush()
			out.WriteString(line + "\n")
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		if name, labels, ok := strings.Cut(series, "{"); ok && strings.HasSuffix(name, "_bucket") {
			// Drop the le label: one folded line per histogram series.
			i := strings.Index(labels, `le="`)
			folded := name + "{" + strings.TrimSuffix(labels[:i], ",") + "}"
			if folded != bucketSeries {
				flush()
				bucketSeries = folded
			}
			buckets++
			continue
		}
		flush()
		out.WriteString(series + "\n")
	}
	flush()

	raw, err := json.Marshal(rt.Status())
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	collectKeys(doc, "", keys)
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	out.WriteString("# /status\n")
	for _, k := range sorted {
		out.WriteString(k + "\n")
	}
	return out.String()
}

// collectKeys adds every object key path under v to keys; array
// elements share their array's path with a "[]" suffix.
func collectKeys(v any, prefix string, keys map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			path := k
			if prefix != "" {
				path = prefix + "." + k
			}
			keys[path] = true
			collectKeys(child, path, keys)
		}
	case []any:
		for _, child := range v {
			collectKeys(child, prefix+"[]", keys)
		}
	}
}

// TestExpositionGolden pins the /metrics layout and the /status key set
// against testdata/exposition.golden. Series render in registration
// order, so any family registered by ranging over a map shows up here as
// a flaky diff; CI runs this test several times for that reason. After
// an intended change to the exposition, replace the file with the full
// output the failure prints.
func TestExpositionGolden(t *testing.T) {
	got := renderGolden(t, goldenRuntime(t))
	want, err := os.ReadFile(goldenExposition)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("exposition differs from %s at line %d:\n got: %q\nwant: %q\n\nfull output:\n%s",
				goldenExposition, i+1, g, w, got)
		}
	}
}
