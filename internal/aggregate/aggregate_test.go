package aggregate

import (
	"strings"
	"testing"
)

func compileQ(t *testing.T, spec *Spec, env Env) *Instance {
	t.Helper()
	inst, err := Compile("q", spec, env)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return inst
}

func packetEnv() Env { return Env{Source: SourcePacket, PacketDecidable: true} }

func TestParseShorthand(t *testing.T) {
	cases := []struct {
		in      string
		want    Spec
		wantErr bool
	}{
		{in: "count", want: Spec{Op: "count"}},
		{in: "topk:src_ip:1s:5", want: Spec{Op: "topk", Key: "src_ip", Window: "1s", K: 5}},
		{in: "distinct:dst_ip:500ms", want: Spec{Op: "distinct", Key: "dst_ip", Window: "500ms"}},
		{in: "sum:dst_port", want: Spec{Op: "sum", Key: "dst_port"}},
		{in: `{"op":"count","key":"proto","window":"2s"}`, want: Spec{Op: "count", Key: "proto", Window: "2s"}},
		{in: "", wantErr: true},
		{in: "topk:src_ip:1s:notanum", wantErr: true},
		{in: "a:b:c:1:extra", wantErr: true},
		{in: "{bad json", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseShorthand(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseShorthand(%q): want error, got %+v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseShorthand(%q): %v", tc.in, err)
			continue
		}
		if *got != tc.want {
			t.Errorf("ParseShorthand(%q) = %+v, want %+v", tc.in, *got, tc.want)
		}
	}
}

func TestValidateSpec(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		wantErr string
	}{
		{name: "ok count", spec: Spec{Op: "count"}},
		{name: "ok topk", spec: Spec{Op: "topk", Key: "src_ip", Window: "1s", K: 3}},
		{name: "bad op", spec: Spec{Op: "avg"}, wantErr: "unknown op"},
		{name: "bad key", spec: Spec{Op: "count", Key: "ttl"}, wantErr: "unknown key"},
		{name: "bad value", spec: Spec{Op: "sum", Value: "flows"}, wantErr: "unknown value"},
		{name: "bad window", spec: Spec{Op: "count", Window: "five sec"}, wantErr: "bad window"},
		{name: "negative window", spec: Spec{Op: "count", Window: "-1s"}, wantErr: "negative window"},
		{name: "negative k", spec: Spec{Op: "topk", Key: "src_ip", K: -1}, wantErr: "negative k"},
		{name: "bad stage", spec: Spec{Op: "count", Stage: "wire"}, wantErr: "unknown stage"},
	}
	for _, tc := range cases {
		err := ValidateSpec(&tc.spec)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestCompileStageAssignment(t *testing.T) {
	cases := []struct {
		name      string
		spec      Spec
		env       Env
		wantStage Stage
		wantErr   string
	}{
		{name: "packet pushdown", spec: Spec{Op: "count", Key: "src_ip"},
			env: packetEnv(), wantStage: StagePacket},
		{name: "packet needs decidable filter", spec: Spec{Op: "count"},
			env: Env{Source: SourcePacket}, wantErr: "packet-decidable"},
		{name: "sni not at packet stage", spec: Spec{Op: "distinct", Key: "sni"},
			env: packetEnv(), wantErr: "not extractable"},
		{name: "conn stage", spec: Spec{Op: "sum", Key: "5tuple", Value: "bytes"},
			env: Env{Source: SourceConn}, wantStage: StageConn},
		{name: "conn rejects sni", spec: Spec{Op: "distinct", Key: "sni"},
			env: Env{Source: SourceConn}, wantErr: "session-level"},
		{name: "session sni", spec: Spec{Op: "distinct", Key: "sni"},
			env: Env{Source: SourceSession}, wantStage: StageSession},
		{name: "session rejects sum", spec: Spec{Op: "sum", Key: "sni"},
			env: Env{Source: SourceSession}, wantErr: "not defined for session"},
		{name: "stream unsupported", spec: Spec{Op: "count"},
			env: Env{Source: SourceStream}, wantErr: "stream subscriptions"},
		{name: "nic pushdown", spec: Spec{Op: "count", Stage: "nic"},
			env: Env{Source: SourcePacket, PacketDecidable: true, NICExact: true}, wantStage: StageNIC},
		{name: "nic needs exact rules", spec: Spec{Op: "count", Stage: "nic"},
			env: packetEnv(), wantErr: "exactly expressible"},
		{name: "nic rejects keys", spec: Spec{Op: "count", Key: "src_ip", Stage: "nic"},
			env: Env{Source: SourcePacket, PacketDecidable: true, NICExact: true}, wantErr: "scalar"},
		{name: "stage assertion mismatch", spec: Spec{Op: "count", Stage: "conn"},
			env: packetEnv(), wantErr: "compiles to stage"},
		{name: "distinct needs key", spec: Spec{Op: "distinct"},
			env: packetEnv(), wantErr: "needs a key"},
	}
	for _, tc := range cases {
		inst, err := Compile("q", &tc.spec, tc.env)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if inst.Q.Stage != tc.wantStage {
			t.Errorf("%s: stage = %v, want %v", tc.name, inst.Q.Stage, tc.wantStage)
		}
	}
}

func TestScalarCountWindows(t *testing.T) {
	inst := compileQ(t, &Spec{Op: "count", Window: "1ms"}, packetEnv())
	cs := inst.StateFor(0)
	// 1ms window = 1000 ticks. Three events in window 0, two in window 3.
	for _, tick := range []uint64{10, 500, 999, 3000, 3999} {
		cs.UpdateScalar(100, tick)
	}
	cs.Advance(10_000) // well past both windows' grace
	rep := inst.Snapshot()
	if len(rep.Windows) != 2 {
		t.Fatalf("windows = %d, want 2: %+v", len(rep.Windows), rep.Windows)
	}
	if rep.Windows[0].Seq != 0 || rep.Windows[0].Count != 3 {
		t.Errorf("window 0 = %+v, want seq 0 count 3", rep.Windows[0])
	}
	if rep.Windows[1].Seq != 3 || rep.Windows[1].Count != 2 {
		t.Errorf("window 1 = %+v, want seq 3 count 2", rep.Windows[1])
	}
	if rep.Totals.Events != 5 {
		t.Errorf("events = %d, want 5", rep.Totals.Events)
	}
}

func TestWholeRunWindowAndFinalSeal(t *testing.T) {
	inst := compileQ(t, &Spec{Op: "count"}, packetEnv())
	cs := inst.StateFor(0)
	cs.UpdateScalar(1, 5)
	cs.UpdateScalar(1, 50_000_000)
	if got := len(inst.Snapshot().Windows); got != 0 {
		t.Fatalf("open whole-run window leaked into snapshot: %d windows", got)
	}
	cs.FinalSeal()
	rep := inst.Snapshot()
	if len(rep.Windows) != 1 || rep.Windows[0].Count != 2 {
		t.Fatalf("after FinalSeal: %+v, want one window with count 2", rep.Windows)
	}
	if !rep.Windows[0].Complete {
		t.Errorf("whole-run window not complete after all participants finalized")
	}
	// Idempotent; stragglers count late, never resurrect windows.
	cs.FinalSeal()
	cs.UpdateScalar(1, 99)
	if got := inst.LateTotal(); got != 1 {
		t.Errorf("late = %d, want 1", got)
	}
	if got := inst.Snapshot().Windows[0].Count; got != 2 {
		t.Errorf("straggler mutated sealed window: count %d", got)
	}
}

func TestLateEventsCounted(t *testing.T) {
	inst := compileQ(t, &Spec{Op: "count", Window: "1ms"}, packetEnv())
	cs := inst.StateFor(0)
	cs.UpdateScalar(1, 100)
	cs.Advance(100_000) // seals window 0
	cs.UpdateScalar(1, 200)
	if got := inst.LateTotal(); got != 1 {
		t.Fatalf("late = %d, want 1", got)
	}
	rep := inst.Snapshot()
	if rep.Windows[0].Count != 1 {
		t.Errorf("sealed window count = %d, want 1", rep.Windows[0].Count)
	}
}

func TestGroupedCountAndOverflow(t *testing.T) {
	inst := compileQ(t, &Spec{Op: "count", Key: "dst_port", MaxGroups: 2}, packetEnv())
	cs := inst.StateFor(0)
	ports := []uint16{80, 443, 80, 8080, 443, 80}
	for i, p := range ports {
		var buf [keyBufCap]byte
		b := append(buf[:0], tagPort, byte(p>>8), byte(p))
		k := keyRef{b: b, h: hashBytes(b)}
		cs.update(&k, 1, 0, uint64(i))
	}
	cs.FinalSeal()
	rep := inst.Snapshot()
	w := rep.Windows[0]
	if w.Count != 6 {
		t.Errorf("count = %d, want 6", w.Count)
	}
	// Port 8080 arrived when the 2-entry table was full: unattributed.
	if w.OverflowCount != 1 {
		t.Errorf("overflow = %d, want 1", w.OverflowCount)
	}
	want := map[string]uint64{"80": 3, "443": 2}
	if len(w.Groups) != len(want) {
		t.Fatalf("groups = %+v, want keys %v", w.Groups, want)
	}
	for _, g := range w.Groups {
		if want[g.Key] != g.Count {
			t.Errorf("group %q = %d, want %d", g.Key, g.Count, want[g.Key])
		}
	}
	if rep.Totals.GroupOverflow != 1 {
		t.Errorf("totals.GroupOverflow = %d, want 1", rep.Totals.GroupOverflow)
	}
}

func TestDistinctEstimateWithinBound(t *testing.T) {
	inst := compileQ(t, &Spec{Op: "distinct", Key: "src_ip"}, packetEnv())
	cs := inst.StateFor(0)
	const n = 10_000
	for i := 0; i < n; i++ {
		var buf [keyBufCap]byte
		b := append(buf[:0], tagIP, 4, byte(i>>24), byte(i>>16), byte(i>>8), byte(i))
		k := keyRef{b: b, h: hashBytes(b)}
		cs.update(&k, 1, 0, 0)
		cs.update(&k, 1, 0, 0) // duplicates must not inflate
	}
	cs.FinalSeal()
	got := inst.Snapshot().Windows[0].Distinct
	// Standard error at p=12 is ~1.6%; 5σ ≈ 8%.
	lo, hi := uint64(n*0.92), uint64(n*1.08)
	if got < lo || got > hi {
		t.Errorf("distinct = %d, want within [%d, %d]", got, lo, hi)
	}
}

func TestTopKExactWithinCapacity(t *testing.T) {
	inst := compileQ(t, &Spec{Op: "topk", Key: "dst_port", K: 3}, packetEnv())
	cs := inst.StateFor(0)
	// Weights: port p occurs p times, ports 1..20.
	for p := uint16(1); p <= 20; p++ {
		var buf [keyBufCap]byte
		b := append(buf[:0], tagPort, byte(p>>8), byte(p))
		k := keyRef{b: b, h: hashBytes(b)}
		for i := uint16(0); i < p; i++ {
			cs.update(&k, 1, 0, 0)
		}
	}
	cs.FinalSeal()
	top := inst.Snapshot().Windows[0].TopK
	if len(top) != 3 {
		t.Fatalf("topk len = %d, want 3: %+v", len(top), top)
	}
	wantKeys := []string{"20", "19", "18"}
	for i, g := range top {
		if g.Key != wantKeys[i] || g.Count != uint64(20-i) {
			t.Errorf("topk[%d] = %+v, want key %s count %d", i, g, wantKeys[i], 20-i)
		}
	}
}

func TestRenderKey(t *testing.T) {
	cases := []struct {
		in   []byte
		want string
	}{
		{[]byte{tagIP, 4, 10, 0, 0, 1}, "10.0.0.1"},
		{[]byte{tagPort, 0x01, 0xBB}, "443"},
		{[]byte{tagProto, 6}, "tcp"},
		{[]byte{tagProto, 17}, "udp"},
		{[]byte{tagProto, 99}, "99"},
		{append([]byte{tagString}, "example.com"...), "example.com"},
	}
	for _, tc := range cases {
		if got := renderKey(string(tc.in)); got != tc.want {
			t.Errorf("renderKey(%x) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestQueryString(t *testing.T) {
	inst := compileQ(t, &Spec{Op: "topk", Key: "src_ip", Window: "1s", K: 5}, packetEnv())
	got := inst.Q.String()
	want := "topk(src_ip) value=packets k=5 window=1s stage=packet"
	if got != want {
		t.Errorf("Q.String() = %q, want %q", got, want)
	}
}

func TestReportWriteText(t *testing.T) {
	cases := []struct {
		name string
		rep  Report
		want string
	}{
		{"topk with late and overflow", Report{
			Query:  QueryInfo{Name: "top", Op: "topk", Key: "src_ip", Window: "1000000us", K: 2, Stage: "packet"},
			Totals: Totals{Events: 9, WindowsSealed: 2, Late: 1, GroupOverflow: 3},
			Windows: []WindowResult{{Seq: 0, StartTick: 0, EndTick: 1000000,
				TopK: []GroupResult{{Key: "10.0.0.1", Count: 5}, {Key: "10.0.0.2", Count: 4}}}},
		}, `
aggregate top: topk(src_ip) window=1000000us stage=packet — 9 events, 2 windows sealed
  (1 late events dropped, 3 group-table overflows)
  window 0 [0..1000000)us:
    #1 10.0.0.1                                 5
    #2 10.0.0.2                                 4
`},
		{"grouped count", Report{
			Query:   QueryInfo{Name: "ports", Op: "count", Key: "dst_port", Stage: "conn"},
			Totals:  Totals{Events: 3, WindowsSealed: 1},
			Windows: []WindowResult{{Count: 3, Groups: []GroupResult{{Key: "443", Count: 2}, {Key: "53", Count: 1}}}},
		}, `
aggregate ports: count(dst_port) stage=conn — 3 events, 1 windows sealed
  window 0 [0..0)us: 2 groups
    443                                        2
    53                                         1
`},
		{"grouped sum", Report{
			Query:   QueryInfo{Name: "bytes", Op: "sum", Key: "proto", Value: "bytes", Stage: "packet"},
			Totals:  Totals{Events: 4, WindowsSealed: 1},
			Windows: []WindowResult{{Count: 4, Sum: 900, Groups: []GroupResult{{Key: "tcp", Count: 3, Sum: 800}, {Key: "udp", Count: 1, Sum: 100}}}},
		}, `
aggregate bytes: sum(proto) stage=packet — 4 events, 1 windows sealed
  window 0 [0..0)us: 2 groups
    tcp                                        count=3 sum=800
    udp                                        count=1 sum=100
`},
		{"distinct and scalar sum", Report{
			Query:   QueryInfo{Name: "d", Op: "distinct", Key: "dst_ip", Window: "500000us", Stage: "nic"},
			Totals:  Totals{Events: 12, WindowsSealed: 2},
			Windows: []WindowResult{{Seq: 0, EndTick: 500000, Distinct: 7}, {Seq: 1, StartTick: 500000, EndTick: 1000000, Distinct: 2}},
		}, `
aggregate d: distinct(dst_ip) window=500000us stage=nic — 12 events, 2 windows sealed
  window 0 [0..500000)us: distinct≈7
  window 1 [500000..1000000)us: distinct≈2
`},
		{"scalar sum", Report{
			Query:   QueryInfo{Name: "s", Op: "sum", Key: "none", Value: "payload", Stage: "packet"},
			Totals:  Totals{Events: 2, WindowsSealed: 1},
			Windows: []WindowResult{{Count: 2, Sum: 1400}},
		}, `
aggregate s: sum stage=packet — 2 events, 1 windows sealed
  window 0 [0..0)us: count=2 sum=1400
`},
		{"scalar count, late only", Report{
			Query:   QueryInfo{Name: "c", Op: "count", Stage: "session"},
			Totals:  Totals{Events: 6, WindowsSealed: 1, Late: 2},
			Windows: []WindowResult{{Count: 6}},
		}, `
aggregate c: count stage=session — 6 events, 1 windows sealed
  (2 late events dropped, 0 group-table overflows)
  window 0 [0..0)us: count=6
`},
	}
	for _, tc := range cases {
		var b strings.Builder
		tc.rep.WriteText(&b)
		if got := b.String(); got != tc.want {
			t.Errorf("%s:\ngot:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}
