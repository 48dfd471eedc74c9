// Command perfbench is the repository's benchmark. From the seed it
// generates a sequence of traces of one workload; each trace is replayed
// through the public entry points — Runtime.Run (live: the simulated
// NIC producer plus one core goroutine) and Runtime.RunOffline (the host
// pipeline alone) — on fresh runtimes, every output is checked, and the
// medians over all traces are printed by name and unit. With --trace 1
// it instead drives the pipeline on one goroutine through the calls
// Runtime.Run makes, timing each (the per-layer trace), and times single
// layers alone (the isolation ladder).
//
//	bash perfbench/run.sh --workload campus_tls --seed 1 --seconds 30 --trace 0
//	cd perfbench && go test .    # self-test: tiny pass over every workload
//
// The last line of standard output is one JSON object: correct,
// attempted and failed (frames; a frame fails when the device loses it
// or when its run fails a check), and the metrics. BENCHMARK.json at the
// repository root lists the workloads and metrics; perLayer below adds
// which end-to-end metric each per-layer metric should move.
//
// The device's loss share (loss_frac) is zero by construction of the
// lossless source, so it is reported through failed and on its own line
// rather than as a bounded metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"retina/internal/core"
)

// metricDef names one reported metric. For per-layer metrics, moves is
// the end-to-end metric the layer should move, and on which workloads.
type metricDef struct {
	name, unit, better, moves string
}

var endToEnd = []metricDef{
	{name: "live_mpps", unit: "Mpps", better: "higher"},
	{name: "host_mpps", unit: "Mpps", better: "higher"},
	{name: "allocs_per_kpkt", unit: "allocs/kpkt", better: "lower"},
	{name: "alloc_bytes_per_pkt", unit: "B/pkt", better: "lower"},
	{name: "mem_mb", unit: "MiB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

var perLayer = []metricDef{
	{"source.ns_per_pkt", "ns/pkt", "lower", "live_mpps: the benchmark's replay runs on the live producer goroutine"},
	{"nic.deliver_ns_per_pkt", "ns/pkt", "lower", "live_mpps on all workloads; on video_offload it is decode plus flow-table match only"},
	{"nic.ring_ns_per_pkt", "ns/pkt", "lower", "live_mpps on campus_*"},
	{"core.process_ns_per_pkt", "ns/pkt", "lower", "host_mpps, mostly on campus_tls (self time, callback excluded)"},
	{"core.flush_ns_per_pkt", "ns/pkt", "lower", "host_mpps on campus_tls"},
	{"callback.ns_per_delivery", "ns", "lower", "host_mpps on campus_packets"},
	{"trace.unattributed_frac", "ratio", "lower", "none: wall time outside every span, must stay under 5%"},
	{"trace.overhead_frac", "ratio", "lower", "none: cost of the spans themselves"},
	{"layers.decode_ns_per_pkt", "ns/pkt", "lower", "live_mpps and host_mpps: frames are decoded in the device and again in the core"},
	{"nic.rss_ns_per_pkt", "ns/pkt", "lower", "live_mpps on campus_*, not on video_offload"},
	{"mbuf.alloc_copy_ns_per_pkt", "ns/pkt", "lower", "live_mpps on campus_*, not on video_offload"},
	{"filter.packet_ns_per_pkt", "ns/pkt", "lower", "host_mpps"},
	{"core.stage.sw_filter.per_kpkt", "1/kpkt", "lower", "host_mpps"},
	{"core.stage.conntrack.per_kpkt", "1/kpkt", "lower", "host_mpps on campus_tls"},
	{"core.stage.reassembly.per_kpkt", "1/kpkt", "lower", "host_mpps on campus_tls"},
	{"core.stage.parsing.per_kpkt", "1/kpkt", "lower", "host_mpps on campus_tls"},
	{"core.stage.session_filter.per_kpkt", "1/kpkt", "lower", "host_mpps on campus_tls"},
	{"core.stage.callback.per_kpkt", "1/kpkt", "lower", "host_mpps on campus_packets"},
	{"nic.offload_drop_frac", "ratio", "higher", "live_mpps on video_offload"},
	{"core.filter_drop_frac", "ratio", "lower", "host_mpps: work on frames the filter then discards"},
	{"core.tombstone_frac", "ratio", "lower", "host_mpps: work on frames of rejected connections"},
	{"conntrack.conns_per_kpkt", "1/kpkt", "lower", "allocs_per_kpkt, alloc_bytes_per_pkt, mem_mb and host_mpps on campus_tls"},
	{"conntrack.bytes_per_conn", "B/conn", "lower", "mem_mb and host_mpps on campus_tls"},
	{"core.allocs_per_conn", "allocs/conn", "lower", "allocs_per_kpkt, alloc_bytes_per_pkt and host_mpps on campus_tls"},
	{"reassembly.ooo_frac", "ratio", "lower", "host_mpps on campus_tls"},
	{"offload.peak_rules", "count", "lower", "live_mpps on video_offload"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is a result plus what the human-readable lines show.
type report struct {
	result
	lines    []string // provenance and notes, printed before the metrics
	problems []string
}

func (r *report) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: metric not in the catalog: " + name)
}

// account adds a run to the attempted/failed tallies: frames lost by the
// device fail, and so does every frame of a run whose checks failed.
func (r *report) account(o *outcome) {
	r.Attempted += o.offered
	if len(o.problems) > 0 {
		r.Failed += o.offered
		r.problems = append(r.problems, o.problems...)
	} else {
		r.Failed += o.lost
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// inputs generates the run's traces, one per measured repetition: the
// i-th is generated from the i-th draw of a generator seeded with the
// run's seed. A trace carries only a dozen or so heavy flows, so one
// trace's per-frame cost varies by tens of percent from seed to seed;
// the median over the many traces of a run is what stays put.
type inputs struct {
	w        *workload
	scale    scale
	seed     int64
	rng      *rand.Rand
	traces   int
	frames   uint64
	bytes    uint64
	first    uint64 // checksum of the first trace
	combined uint64 // FNV-1a over every trace's checksum, in order
}

func newInputs(w *workload, seed int64, s scale) *inputs {
	return &inputs{w: w, scale: s, seed: seed, rng: rand.New(rand.NewSource(seed)), combined: fnvOffset}
}

func (in *inputs) next() (*trace, error) {
	tr, err := buildTrace(in.w, in.rng.Int63(), in.scale)
	if err != nil {
		return nil, err
	}
	if in.traces == 0 {
		in.first = tr.checksum
	}
	in.traces++
	in.frames += uint64(len(tr.frames))
	in.bytes += tr.bytes
	in.combined = (in.combined ^ tr.checksum) * fnvPrime
	return tr, nil
}

func (in *inputs) provenance() string {
	return fmt.Sprintf("input: workload=%s seed=%d traces=%d frames=%d mean_frame_bytes=%.1f first_trace_checksum=%#016x all_traces_checksum=%#016x",
		in.w.name, in.seed, in.traces, in.frames, ratio(float64(in.bytes), float64(in.frames)), in.first, in.combined)
}

func run(opts options) (*report, error) {
	w, err := findWorkload(opts.workload)
	if err != nil {
		return nil, err
	}
	if err := checkCPUClocks(); err != nil {
		return nil, err
	}
	// The collector runs only where a run calls runtime.GC, never inside
	// a timed interval. Off, it also keeps freed memory mapped, so every
	// retina.New reuses resident pages instead of faulting in fresh ones,
	// which made setup_s two to four times slower and as unsteady.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	in := newInputs(w, opts.seed, opts.scale)
	rep := &report{result: result{Metrics: map[string]metricValue{}}}
	deadline := time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	if opts.trace {
		err = measureLayers(rep, w, in, deadline)
	} else {
		err = measureEndToEnd(rep, w, in, deadline)
	}
	if err != nil {
		return nil, err
	}
	rep.lines = append([]string{in.provenance(), "host: " + hostFingerprint()}, rep.lines...)
	rep.Correct = len(rep.problems) == 0
	return rep, nil
}

// measureEndToEnd runs each trace live and offline, one fresh runtime
// per run, until the deadline. The first trace is also run through the
// traced driver so all three modes are checked against each other.
func measureEndToEnd(rep *report, w *workload, in *inputs, deadline time.Time) error {
	var live, host, mem, setup, step []float64
	var offered, lost uint64
	// Allocation counts repeat exactly for a trace, so they add up over
	// every trace rather than taking a median.
	var offlineFrames, mallocs, allocB uint64
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		tr, err := in.next()
		if err != nil {
			return err
		}
		step = append(step, calibrate())
		l, o := runLive(w, tr), runOffline(w, tr)
		if i == 0 {
			ref := runTraced(w, tr, false)
			rep.account(&ref.outcome)
			checkAgreement(ref.outcome, &l, &o)
		} else {
			checkAgreement(o, &l)
		}
		rep.account(&l)
		rep.account(&o)
		offered += l.offered
		lost += l.lost
		live = append(live, float64(l.offered)/l.elapsed.Seconds()/1e6)
		host = append(host, float64(o.offered)/o.elapsed.Seconds()/1e6)
		offlineFrames += o.offered
		mallocs += o.mallocs
		allocB += o.allocB
		mem = append(mem, float64(l.memBytes)/(1<<20))
		setup = append(setup, l.setup.Seconds(), o.setup.Seconds())
	}
	// slow is how much slower than the reference the guest ran this time.
	slow := median(step) / referenceStepNs
	rep.set(endToEnd, "live_mpps", median(live)*slow)
	rep.set(endToEnd, "host_mpps", median(host)*slow)
	rep.set(endToEnd, "allocs_per_kpkt", 1000*ratio(float64(mallocs), float64(offlineFrames)))
	rep.set(endToEnd, "alloc_bytes_per_pkt", ratio(float64(allocB), float64(offlineFrames)))
	rep.set(endToEnd, "mem_mb", median(mem))
	rep.set(endToEnd, "setup_s", median(setup)/slow)
	rep.lines = append(rep.lines,
		fmt.Sprintf("speed: calibration step %.4f ns, reference %.1f ns; unscaled medians live_mpps %.6g host_mpps %.6g setup_s %.6g",
			median(step), referenceStepNs, median(live), median(host), median(setup)),
		fmt.Sprintf("runs: %d live and %d offline, one per trace; times are medians, allocations totals", len(live), len(host)),
		fmt.Sprintf("loss_frac %.6g ratio (ring overflow + no_mbuf + oversize over %d live frames; counted in failed)",
			ratio(float64(lost), float64(offered)), offered))
	return nil
}

// unattributedLimit is the largest share of the traced wall time the
// spans may leave uncovered before the trace is considered broken.
const unattributedLimit = 0.05

// ladderShare is the part of a traced run's time given to the ladder.
const ladderShare = 0.4

// measureLayers runs each trace through the traced driver twice, with
// spans and without, until the deadline; the ladder runs over the first
// trace. The first trace is also run live and offline so all three
// modes are checked against each other.
func measureLayers(rep *report, w *workload, in *inputs, deadline time.Time) error {
	ladderEnd := time.Now().Add(time.Duration(ladderShare * float64(time.Until(deadline))))
	perPkt := map[string][]float64{}
	var onCPU, offCPU []float64
	var first tracedRun
	var ladderFrames int
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		tr, err := in.next()
		if err != nil {
			return err
		}
		on, off := runTraced(w, tr, true), runTraced(w, tr, false)
		checkAgreement(off.outcome, &on.outcome)
		rep.account(&on.outcome)
		rep.account(&off.outcome)
		if i == 0 {
			first = on
			l, o := runLive(w, tr), runOffline(w, tr)
			checkAgreement(off.outcome, &l, &o)
			rep.account(&l)
			rep.account(&o)
			lad := newLadder(tr, on.prog)
			ladderFrames = len(lad.frames)
			for j := 0; j == 0 || time.Now().Before(ladderEnd); j++ {
				for _, s := range ladderSteps {
					perPkt[s.metric] = append(perPkt[s.metric], lad.time(s))
				}
			}
		}
		onCPU = append(onCPU, float64(on.cpu))
		offCPU = append(offCPU, float64(off.cpu))
		sp, rx, wall := on.sp, float64(on.nic.RxFrames), int64(on.elapsed)
		unattributed := ratio(float64(wall-sp.source-sp.deliver-sp.ring-sp.process-sp.flush), float64(wall))
		if unattributed >= unattributedLimit {
			rep.problems = append(rep.problems, fmt.Sprintf("traced: %.1f%% of wall time outside every span (limit %.0f%%)",
				100*unattributed, 100*unattributedLimit))
		}
		for name, v := range map[string]float64{
			"source.ns_per_pkt":        ratio(float64(sp.source), rx),
			"nic.deliver_ns_per_pkt":   ratio(float64(sp.deliver), rx),
			"nic.ring_ns_per_pkt":      ratio(float64(sp.ring), rx),
			"core.process_ns_per_pkt":  ratio(float64(sp.process-sp.callback), rx),
			"core.flush_ns_per_pkt":    ratio(float64(sp.flush), rx),
			"callback.ns_per_delivery": ratio(float64(sp.callback), float64(on.delivered)),
			"trace.unattributed_frac":  unattributed,
		} {
			perPkt[name] = append(perPkt[name], v)
		}
	}
	for name, vs := range perPkt {
		rep.set(perLayer, name, median(vs))
	}
	rep.set(perLayer, "trace.overhead_frac", median(onCPU)/median(offCPU)-1)

	// Counts repeat exactly for a given trace; read them off the first.
	r := &first
	rx, cs := float64(r.nic.RxFrames), r.cs
	for _, st := range core.Stages() {
		rep.set(perLayer, "core.stage."+st.Slug()+".per_kpkt", 1000*ratio(float64(r.stages.Invocations(st)), rx))
	}
	rep.set(perLayer, "nic.offload_drop_frac", ratio(float64(r.nic.HWOffloadDrop), rx))
	rep.set(perLayer, "core.filter_drop_frac", ratio(float64(cs.FilterDropped), float64(cs.Processed)))
	rep.set(perLayer, "core.tombstone_frac", ratio(float64(cs.TombstonePkts), float64(cs.Processed)))
	rep.set(perLayer, "conntrack.conns_per_kpkt", 1000*ratio(float64(cs.ConnsCreated), rx))
	rep.set(perLayer, "conntrack.bytes_per_conn", ratio(float64(r.connBytes), float64(r.connsLive)))
	rep.set(perLayer, "core.allocs_per_conn", ratio(float64(r.mallocs), float64(cs.ConnsCreated)))
	rep.set(perLayer, "reassembly.ooo_frac", ratio(float64(cs.ReasmOutOfOrder), float64(cs.ReasmInOrder+cs.ReasmOutOfOrder)))
	rep.set(perLayer, "offload.peak_rules", float64(r.peakRules))
	rep.lines = append(rep.lines, fmt.Sprintf("runs: %d traced with spans and %d without, one pair per trace; counts from the first trace; ladder over its %d frames",
		len(onCPU), len(offCPU), ladderFrames))
	return nil
}

// hostFingerprint identifies the machine and build a result came from.
func hostFingerprint() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func (r *report) print(trace bool) error {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := r.Metrics[d.name]
		if trace {
			fmt.Printf("%-36s %14.6g %-12s moves %s\n", d.name, m.Value, m.Unit, d.moves)
		} else {
			fmt.Printf("%-36s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	const shown = 20
	for i, p := range r.problems {
		if i == shown {
			fmt.Printf("FAILED CHECK: ... and %d more\n", len(r.problems)-shown)
			break
		}
		fmt.Println("FAILED CHECK:", p)
	}
	out, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func main() {
	var opts options
	var traceFlag int
	flag.StringVar(&opts.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&opts.seed, "seed", 1, "seed the workload's trace is generated from")
	flag.Float64Var(&opts.seconds, "seconds", 30, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics of the traced run instead")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	opts.trace = traceFlag == 1
	opts.scale = fullScale
	rep, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := rep.print(opts.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}
