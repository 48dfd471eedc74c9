package traffic

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"retina/internal/layers"
)

func decodeAll(t *testing.T, m *Mixer, max int) (frames int, bytes int, parsedStats map[string]int, sizes []int) {
	t.Helper()
	parsedStats = map[string]int{}
	var p layers.Parsed
	lastTick := uint64(0)
	for frames < max {
		frame, tick, ok := m.Next()
		if !ok {
			break
		}
		if tick < lastTick {
			t.Fatalf("ticks not monotonic: %d then %d", lastTick, tick)
		}
		lastTick = tick
		if err := p.DecodeLayers(frame); err != nil {
			t.Fatalf("frame %d does not decode: %v", frames, err)
		}
		parsedStats[p.L4.String()]++
		sizes = append(sizes, len(frame))
		frames++
		bytes += len(frame)
	}
	return
}

func TestCampusMixDecodesAndMixes(t *testing.T) {
	m := NewCampusMix(CampusConfig{Seed: 1, Flows: 400, Gbps: 10})
	frames, bytes, stats, _ := decodeAll(t, m, 1<<20)
	if frames < 1000 {
		t.Fatalf("frames = %d, too few", frames)
	}
	if stats["tcp"] == 0 || stats["udp"] == 0 {
		t.Fatalf("mix missing protocols: %v", stats)
	}
	// TCP should dominate bytes-wise; sanity only.
	if bytes == 0 {
		t.Fatal("no bytes")
	}
	ef, eb := m.Emitted()
	if ef != uint64(frames) || eb != uint64(bytes) {
		t.Fatalf("Emitted() = %d/%d, counted %d/%d", ef, eb, frames, bytes)
	}
}

func TestCampusMixDeterministic(t *testing.T) {
	m1 := NewCampusMix(CampusConfig{Seed: 7, Flows: 50, Gbps: 10})
	m2 := NewCampusMix(CampusConfig{Seed: 7, Flows: 50, Gbps: 10})
	for i := 0; i < 500; i++ {
		f1, t1, ok1 := m1.Next()
		f2, t2, ok2 := m2.Next()
		if ok1 != ok2 || t1 != t2 || string(f1) != string(f2) {
			t.Fatalf("streams diverge at frame %d", i)
		}
		if !ok1 {
			break
		}
	}
}

func TestCampusMixPacing(t *testing.T) {
	// At 10 Gbps, emitting B bytes must advance the clock ~B*8/10000 µs.
	m := NewCampusMix(CampusConfig{Seed: 3, Flows: 200, Gbps: 10})
	var lastTick uint64
	var bytes int
	for {
		frame, tick, ok := m.Next()
		if !ok {
			break
		}
		bytes += len(frame)
		lastTick = tick
	}
	wantTicks := float64(bytes*8) / (10 * 1000)
	got := float64(lastTick)
	if got < wantTicks*0.95 || got > wantTicks*1.05 {
		t.Fatalf("pacing off: %v ticks for %d bytes (want ~%v)", got, bytes, wantTicks)
	}
}

func TestCampusSingleSYNFraction(t *testing.T) {
	cfg := CampusConfig{Seed: 11, Flows: 3000, Gbps: 50}
	cfg.defaults()
	factory := CampusFlowFactory(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	syn, tcp := 0, 0
	for i := 0; i < cfg.Flows; i++ {
		s := factory(rng, i)
		switch s.Kind {
		case KindSingleSYN:
			syn++
			tcp++
		case KindTLS, KindHTTP, KindSSH, KindPlainTCP:
			tcp++
		}
	}
	frac := float64(syn) / float64(tcp)
	if frac < 0.58 || frac > 0.72 {
		t.Fatalf("single-SYN fraction = %.2f, want ≈0.65", frac)
	}
}

func TestFlowScriptTLSParses(t *testing.T) {
	var b layers.Builder
	rng := rand.New(rand.NewSource(1))
	spec := &FlowSpec{
		Kind: KindTLS, CliIP: [4]byte{10, 0, 0, 1}, SrvIP: [4]byte{1, 2, 3, 4},
		CliPort: 1234, SrvPort: 443, SNI: "x.example.com",
		DataSegments: 3, Teardown: true,
	}
	s := BuildScript(&b, spec, rng)
	// 3 handshake + >=1 CH + >=1 SH + 3 data + 2 FIN.
	if len(s.Frames) < 9 {
		t.Fatalf("frames = %d", len(s.Frames))
	}
	var p layers.Parsed
	for i, fr := range s.Frames {
		if err := p.DecodeLayers(fr); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if p.L4 != layers.LayerTypeTCP {
			t.Fatalf("frame %d not TCP", i)
		}
	}
	// First frame is SYN, last is FIN.
	p.DecodeLayers(s.Frames[0])
	if !p.TCP.SYN() {
		t.Fatal("first frame not SYN")
	}
	p.DecodeLayers(s.Frames[len(s.Frames)-1])
	if !p.TCP.FIN() {
		t.Fatal("last frame not FIN")
	}
}

func TestFlowScriptReorder(t *testing.T) {
	var b layers.Builder
	spec := &FlowSpec{
		Kind: KindPlainTCP, CliIP: [4]byte{10, 0, 0, 1}, SrvIP: [4]byte{1, 2, 3, 4},
		CliPort: 1, SrvPort: 2, DataSegments: 10, Reorder: true, Teardown: true,
	}
	// With a fixed seed the swap is deterministic; verify sequence
	// numbers are NOT monotonic in at least one direction.
	s := BuildScript(&b, spec, rand.New(rand.NewSource(5)))
	var p layers.Parsed
	lastSeq := map[bool]uint32{}
	monotonic := true
	for _, fr := range s.Frames {
		p.DecodeLayers(fr)
		if p.L4 != layers.LayerTypeTCP || len(p.Payload()) == 0 {
			continue
		}
		fromCli := p.TCP.SrcPort == 1
		if last, ok := lastSeq[fromCli]; ok && int32(p.TCP.Seq-last) < 0 {
			monotonic = false
		}
		lastSeq[fromCli] = p.TCP.Seq
	}
	if monotonic {
		t.Fatal("Reorder produced a fully in-order flow")
	}
}

func TestHTTPSWorkloadShape(t *testing.T) {
	m := NewHTTPSWorkload(1, 5, 4, 1.0, "bench.test")
	var p layers.Parsed
	down := 0
	total := 0
	for {
		frame, _, ok := m.Next()
		if !ok {
			break
		}
		total++
		p.DecodeLayers(frame)
		if p.L4 == layers.LayerTypeTCP && p.TCP.SrcPort == 443 && len(p.Payload()) > 0 {
			down++
		}
	}
	// 5 requests × ~181 MTU segments each ≈ 900 downstream frames.
	if down < 800 {
		t.Fatalf("downstream data frames = %d, want ≈900", down)
	}
}

func TestVideoWorkloadSNIs(t *testing.T) {
	m := NewVideoWorkload(2, 10, ServiceNetflix, 20)
	var p layers.Parsed
	sawNflx := false
	for i := 0; i < 200000; i++ {
		frame, _, ok := m.Next()
		if !ok {
			break
		}
		p.DecodeLayers(frame)
		if pl := p.Payload(); len(pl) > 10 && pl[0] == 0x16 {
			if containsBytes(pl, []byte("nflxvideo.net")) {
				sawNflx = true
				break
			}
		}
	}
	if !sawNflx {
		t.Fatal("no nflxvideo.net SNI in Netflix workload")
	}
}

func containsBytes(haystack, needle []byte) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		match := true
		for j := range needle {
			if haystack[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func TestStratosphereProfilesDiffer(t *testing.T) {
	counts := map[StratosphereProfile]int{}
	for _, prof := range []StratosphereProfile{Norm7, Norm12, Norm20, Norm30} {
		m := NewStratosphereLike(prof, 300)
		frames := 0
		for {
			_, _, ok := m.Next()
			if !ok {
				break
			}
			frames++
		}
		counts[prof] = frames
		if frames == 0 {
			t.Fatalf("profile %s emitted nothing", prof.Name())
		}
	}
	if counts[Norm7] == counts[Norm30] {
		t.Fatal("profiles produced identical frame counts (suspicious)")
	}
}

// TestPcapRoundTrip writes a trace to a pcap file and collects it back.
// The reader's Next reuses one buffer, so the collected trace equals
// the written one only if Collect copies each frame.
func TestPcapRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.pcap")
	orig := Collect(NewCampusMix(CampusConfig{Seed: 4, Flows: 30, Gbps: 10}), 0)
	w, err := NewPcapWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, frame := range orig.Frames {
		if err := w.Write(frame, orig.Ticks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenPcap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := Collect(r, 0)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("read back %d frames (%d bytes), wrote %d (%d bytes), or their contents differ",
			len(got.Frames), got.Bytes, len(orig.Frames), orig.Bytes)
	}
	if r.Frames() != uint64(len(orig.Frames)) {
		t.Fatalf("Frames() = %d, want %d", r.Frames(), len(orig.Frames))
	}
}

// TestTraceReplay: Next and NextBurst replay the same frames in the same
// order, and hand out the trace's own frames rather than copies; Collect
// stops at its limit and Slice counts its own bytes.
func TestTraceReplay(t *testing.T) {
	tr := Collect(NewCampusMix(CampusConfig{Seed: 3, Flows: 100, Gbps: 10}), 500)
	if len(tr.Frames) != 500 || len(tr.Ticks) != 500 {
		t.Fatalf("collected %d frames, %d ticks, want 500 at the limit", len(tr.Frames), len(tr.Ticks))
	}
	half := tr.Slice(0, 250)
	if rest := tr.Slice(250, 500); half.Bytes+rest.Bytes != tr.Bytes || half.Bytes == 0 {
		t.Fatalf("slices hold %d + %d bytes, trace %d", half.Bytes, rest.Bytes, tr.Bytes)
	}
	one, burst := tr.Replay(), tr.Replay()
	frames, ticks := make([][]byte, 7), make([]uint64, 7)
	i := 0
	for n := burst.NextBurst(frames, ticks); n > 0; n = burst.NextBurst(frames, ticks) {
		for k := range frames[:n] {
			f, tick, ok := one.Next()
			if !ok || &f[0] != &tr.Frames[i][0] || &frames[k][0] != &tr.Frames[i][0] || tick != ticks[k] || tick != tr.Ticks[i] {
				t.Fatalf("frame %d: Next and NextBurst disagree with the trace", i)
			}
			i++
		}
	}
	if _, _, ok := one.Next(); ok || i != len(tr.Frames) {
		t.Fatalf("replayed %d of %d frames", i, len(tr.Frames))
	}
}

func TestOpenPcapBadMagic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.pcap")
	os.WriteFile(path, []byte("this is not a pcap file at all......"), 0o644)
	if _, err := OpenPcap(path); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestWriteSourceToPcap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gen.pcap")
	m := NewCampusMix(CampusConfig{Seed: 9, Flows: 20, Gbps: 10})
	n, err := WriteSourceToPcap(m, path)
	if err != nil || n == 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	r, err := OpenPcap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	count := uint64(0)
	for {
		_, _, ok := r.Next()
		if !ok {
			break
		}
		count++
	}
	if count != n {
		t.Fatalf("wrote %d, read %d", n, count)
	}
}

func BenchmarkCampusMixGenerate(b *testing.B) {
	m := NewCampusMix(CampusConfig{Seed: 1, Flows: 1 << 30, Gbps: 100})
	b.ReportAllocs()
	var bytes int64
	for i := 0; i < b.N; i++ {
		frame, _, ok := m.Next()
		if !ok {
			b.Fatal("source exhausted")
		}
		bytes += int64(len(frame))
	}
	b.SetBytes(bytes / int64(b.N))
}
