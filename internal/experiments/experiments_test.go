package experiments

import (
	"bytes"
	"strings"
	"testing"

	"retina/internal/telemetry"
)

// The experiment entry points are exercised at tiny scale: the point is
// that every figure's pipeline runs end-to-end and preserves its
// qualitative shape, not the absolute numbers.

func TestFig5Small(t *testing.T) {
	cfg := Fig5Config{
		Cores:     []int{1, 2},
		Cycles:    []uint64{0, 100_000},
		Subs:      []Fig5SubType{Fig5RawPackets, Fig5TLSHandshakes},
		FlowsBase: 600,
		Seed:      1,
	}
	pts := RunFig5(cfg, 0.2)
	if len(pts) != 8 {
		t.Fatalf("points = %d, want 8", len(pts))
	}
	byKey := map[string]Fig5Point{}
	for _, p := range pts {
		byKey[key5(p)] = p
		if p.Gbps <= 0 {
			t.Fatalf("zero throughput for %+v", p)
		}
	}
	// More callback cycles must not raise throughput (raw packets run
	// the callback per packet, so 100K cycles/pkt is crushing).
	raw0 := byKey["0/1/0"]
	rawHeavy := byKey["0/1/100000"]
	if rawHeavy.Gbps > raw0.Gbps*0.8 {
		t.Fatalf("100K-cycle callback did not reduce packet throughput: %v vs %v", rawHeavy.Gbps, raw0.Gbps)
	}
	var buf bytes.Buffer
	PrintFig5(&buf, pts)
	if !strings.Contains(buf.String(), "Raw Packets") {
		t.Fatal("PrintFig5 output incomplete")
	}
}

func key5(p Fig5Point) string {
	return strings.Join([]string{
		string(rune('0' + int(p.Sub))),
		itoa(p.Cores),
		itoa(int(p.Cycles)),
	}, "/")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestFig6Small(t *testing.T) {
	res := RunFig6(DefaultFig6(), 0.1)
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	byName := map[string]Fig6Result{}
	for _, r := range res {
		byName[r.System] = r
		if r.Gbps <= 0 {
			t.Fatalf("%s: zero throughput", r.System)
		}
		if r.Matches == 0 {
			t.Fatalf("%s found no matches", r.System)
		}
	}
	// The paper's ordering: Retina fastest, Snort slowest.
	if byName["Retina"].Gbps <= byName["Snort-like"].Gbps {
		t.Fatalf("Retina (%.2f) not faster than Snort-like (%.2f)",
			byName["Retina"].Gbps, byName["Snort-like"].Gbps)
	}
	if byName["Suricata-like"].Gbps <= byName["Snort-like"].Gbps {
		t.Fatalf("Suricata-like (%.2f) not faster than Snort-like (%.2f)",
			byName["Suricata-like"].Gbps, byName["Snort-like"].Gbps)
	}
	var buf bytes.Buffer
	PrintFig6(&buf, res)
	if !strings.Contains(buf.String(), "Retina") {
		t.Fatal("PrintFig6 output incomplete")
	}
}

func TestFig7Small(t *testing.T) {
	r := RunFig7(1, 400)
	if r.Ingress == 0 {
		t.Fatal("no ingress")
	}
	// Hierarchical reduction: every stage sees at most as much as its
	// predecessor, and the callback sees a tiny fraction.
	last := 1.1
	for _, s := range r.Stages {
		if s.Fraction > last+1e-9 {
			t.Fatalf("stage %s fraction %.4f exceeds predecessor %.4f", s.Name, s.Fraction, last)
		}
		last = s.Fraction
	}
	cb := r.Stages[len(r.Stages)-1]
	if cb.Name != "Run Callback" || cb.Fraction > 0.01 {
		t.Fatalf("callback fraction %.5f too large", cb.Fraction)
	}
	var buf bytes.Buffer
	PrintFig7(&buf, r)
	if !strings.Contains(buf.String(), "Hardware Filter") {
		t.Fatal("PrintFig7 output incomplete")
	}
}

func TestFig8Small(t *testing.T) {
	cfg := DefaultFig8()
	cfg.Flows = 8000
	cfg.MemBudget = 3 << 20
	res := RunFig8(cfg, 1)
	if len(res) != 3 {
		t.Fatalf("schemes = %d", len(res))
	}
	def, inact, none := res[0], res[1], res[2]
	if def.SteadyConns == 0 {
		t.Fatal("default scheme tracked nothing")
	}
	// The paper's ordering: default << inactivity-only <= none.
	if def.SteadyConns >= inact.SteadyConns {
		t.Fatalf("default steady conns (%d) not below inactivity-only (%d)",
			def.SteadyConns, inact.SteadyConns)
	}
	if !none.OOM && none.SteadyConns < inact.SteadyConns {
		t.Fatalf("no-timeout scheme below inactivity-only: %d vs %d",
			none.SteadyConns, inact.SteadyConns)
	}
	var buf bytes.Buffer
	PrintFig8(&buf, res)
	if !strings.Contains(buf.String(), "steady state") {
		t.Fatal("PrintFig8 output incomplete")
	}
}

func TestFig9Small(t *testing.T) {
	res := RunFig9(DefaultFig9(), 0.15)
	if len(res) != 2 {
		t.Fatalf("services = %d", len(res))
	}
	for _, r := range res {
		if r.Sessions == 0 {
			t.Fatalf("%s: no sessions", r.Service)
		}
		// Downstream must dominate upstream (video).
		if r.DownMB.Percentile(50) <= r.UpMB.Percentile(50) {
			t.Fatalf("%s: downstream P50 (%.2f) not above upstream (%.2f)",
				r.Service, r.DownMB.Percentile(50), r.UpMB.Percentile(50))
		}
	}
	var buf bytes.Buffer
	PrintFig9(&buf, res)
	if !strings.Contains(buf.String(), "Netflix") {
		t.Fatal("PrintFig9 output incomplete")
	}
}

func TestFig12Small(t *testing.T) {
	cfg := Fig12Config{FlowsPerTrace: 250}
	pts := RunFig12(cfg, 1)
	if len(pts) != 20 { // 4 traces × 5 filters
		t.Fatalf("points = %d, want 20", len(pts))
	}
	faster := 0
	for _, p := range pts {
		if p.CompiledSec <= 0 || p.InterpSec <= 0 {
			t.Fatalf("degenerate timing: %+v", p)
		}
		if p.Speedup > 1 {
			faster++
		}
	}
	// Compiled should win in the clear majority of cells (timing noise
	// allows an occasional tie at tiny scale).
	if faster < len(pts)*3/5 {
		t.Fatalf("compiled faster in only %d/%d cells", faster, len(pts))
	}
	var buf bytes.Buffer
	PrintFig12(&buf, pts)
	if !strings.Contains(buf.String(), "Netflix traffic") {
		t.Fatal("PrintFig12 output incomplete")
	}
}

func TestTable2Small(t *testing.T) {
	r := RunTable2(1, 1500)
	if r.AvgPacketSize < 400 || r.AvgPacketSize > 1400 {
		t.Fatalf("avg packet size = %.0f, outside sane range", r.AvgPacketSize)
	}
	if r.TCPConnFrac < 0.55 || r.TCPConnFrac > 0.85 {
		t.Fatalf("TCP conn fraction = %.2f, want ≈0.70", r.TCPConnFrac)
	}
	if r.SingleSYNFrac < 0.55 || r.SingleSYNFrac > 0.75 {
		t.Fatalf("single-SYN fraction = %.2f, want ≈0.65", r.SingleSYNFrac)
	}
	if r.PktsPerConn <= 1 {
		t.Fatalf("packets per connection = %.1f", r.PktsPerConn)
	}
	var buf bytes.Buffer
	PrintTable2(&buf, r)
	if !strings.Contains(buf.String(), "single SYN") {
		t.Fatal("PrintTable2 output incomplete")
	}
}

// TestFigure13Buckets pins Figure 13's bucket rule: a size equal to a
// bound counts in that bound's row, one byte more in the next, and a
// frame above 1,514 bytes in +Inf.
func TestFigure13Buckets(t *testing.T) {
	h := telemetry.NewHistogramBuckets(packetSizeBounds)
	for _, size := range []float64{56, 57, 1514, 1515} {
		h.Observe(size)
	}
	want := map[string]string{"56.00": "25.0%", "218": "25.0%", "1514": "25.0%", "+Inf": "25.0%"}
	rows := sizeTable(h).Rows
	if len(rows) != len(packetSizeBounds)+1 {
		t.Fatalf("%d rows, want %d", len(rows), len(packetSizeBounds)+1)
	}
	for _, r := range rows {
		w, ok := want[r[0]]
		if !ok {
			w = "0%"
		}
		if r[1] != w {
			t.Errorf("size <= %s: %s, want %s", r[0], r[1], w)
		}
	}
	if last := rows[len(rows)-1][0]; last != "+Inf" {
		t.Fatalf("last row %q, want +Inf", last)
	}
}

func TestAblationsSmall(t *testing.T) {
	hw := RunHWFilterAblation(1, 200)
	if hw.OnGbps <= 0 || hw.OffGbps <= 0 {
		t.Fatalf("degenerate ablation: %+v", hw)
	}
	lazy := RunLazyParsingAblation(1, 200)
	if lazy.OnGbps <= 0 || lazy.OffGbps <= 0 {
		t.Fatalf("degenerate ablation: %+v", lazy)
	}
	var buf bytes.Buffer
	PrintAblations(&buf, []AblationResult{hw, lazy})
	if !strings.Contains(buf.String(), "ratio") {
		t.Fatal("PrintAblations output incomplete")
	}
}
