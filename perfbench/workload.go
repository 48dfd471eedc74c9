package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"retina"
	"retina/internal/nic"
	"retina/internal/traffic"
)

// burst is the datapath burst size (core.DefaultBurstSize), set
// explicitly so the sources and the traced driver agree with the runtime.
const burst = 32

// workload is one traffic mix with the subscription that consumes it.
type workload struct {
	name   string
	why    string
	filter string
	tls    bool // TLSHandshakes subscription; Packets otherwise
	// offload turns on the per-flow device rules (Config.FlowOffload).
	offload bool
	// gen builds the workload's traffic source from the seed. maxFrames
	// caps the frames kept (0 keeps the whole trace).
	gen       func(seed int64, s scale) retina.Source
	maxFrames func(s scale) int
}

// scale sizes each generated trace. The self-test shrinks it; the
// benchmark uses fullScale, which keeps a trace to about 20 MB (campus)
// or 36 MB (video): larger traces leave the last-level cache further
// behind and their timings follow the neighbours' memory traffic. The
// video generator builds every session's whole script (up to 58 MB)
// before its first frame, so the session count sets the peak memory,
// about 1 GB with eight; four halve the connections per trace, and the
// allocation counts then spread twice as wide from seed to seed.
type scale struct {
	campusFlows   int // traffic.CampusConfig.Flows
	videoSessions int // NewVideoWorkload sessions
	videoFrames   int // frames kept of the video trace
}

var fullScale = scale{campusFlows: 1000, videoSessions: 8, videoFrames: 24576}

func campusSource(seed int64, s scale) retina.Source {
	return traffic.NewCampusMix(traffic.CampusConfig{Seed: seed, Flows: s.campusFlows})
}

// workloads lists the benchmark's traffic mixes. The two campus
// workloads replay the same traces for a given seed, so their
// difference isolates the connection layers; video_offload is the one
// the device fast path serves.
var workloads = []workload{
	{
		name:   "campus_packets",
		why:    "campus mix, every frame on the per-packet fast path to a callback: conntrack, reassembly and parsing do no work",
		filter: "",
		gen:    campusSource,
	},
	{
		name:   "campus_tls",
		why:    "same trace, lazy connection path: conntrack, reassembly, TLS parsing and session filter plus per-connection allocations",
		filter: "tls",
		tls:    true,
		gen:    campusSource,
	},
	{
		name:    "video_offload",
		why:     "Netflix elephant flows of MTU frames; after the handshake a device flow rule drops the rest of each flow",
		filter:  "tls.sni matches 'nflxvideo'",
		tls:     true,
		offload: true,
		gen: func(seed int64, s scale) retina.Source {
			return traffic.NewVideoWorkload(seed, s.videoSessions, traffic.ServiceNetflix, 40)
		},
		maxFrames: func(s scale) int { return s.videoFrames },
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// config is the runtime configuration every mode of a workload uses:
// the paper's defaults on one core, so the live mode runs one producer
// and one core goroutine.
func (w *workload) config() retina.Config {
	cfg := retina.DefaultConfig()
	cfg.Cores = 1
	cfg.BurstSize = burst
	cfg.Filter = w.filter
	cfg.FlowOffload.Enable = w.offload
	return cfg
}

// trace is one generated input: frames and their ticks, replayed once
// by each run.
type trace struct {
	frames [][]byte
	ticks  []uint64
	bytes  uint64
	// checksum chains fnvWords over each frame's tick, length and bytes,
	// so two hosts can confirm they replayed the same input.
	checksum uint64
}

// buildTrace generates the workload's frames from the seed. Every
// generated frame is its own allocation, so keeping a prefix of a long
// trace frees the rest.
func buildTrace(w *workload, seed int64, s scale) (*trace, error) {
	src := w.gen(seed, s)
	limit := 0
	if w.maxFrames != nil {
		limit = w.maxFrames(s)
	}
	tr := &trace{checksum: fnvOffset}
	var hdr [12]byte
	for limit == 0 || len(tr.frames) < limit {
		f, t, ok := src.Next()
		if !ok {
			break
		}
		tr.frames = append(tr.frames, f)
		tr.ticks = append(tr.ticks, t)
		tr.bytes += uint64(len(f))
		binary.LittleEndian.PutUint64(hdr[:8], t)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(f)))
		tr.checksum = fnvWords(fnvWords(tr.checksum, hdr[:]), f)
	}
	if len(tr.frames) == 0 {
		return nil, fmt.Errorf("workload %s generated no frames at seed %d", w.name, seed)
	}
	return tr, nil
}

// replay serves a trace as a retina.BurstSource: RunOffline reads it
// through Next, Runtime.Run and the traced driver through NextBurst.
// With room set (live runs) NextBurst first waits until the ring can
// take a whole burst, so no frame is ever lost to overflow and the run
// has pcap-replay semantics however the OS schedules the two threads.
type replay struct {
	tr      *trace
	i       int
	room    func() error
	done    func() // called once, when NextBurst first finds the trace exhausted
	emitted uint64
	err     error
}

func (r *replay) Next() ([]byte, uint64, bool) {
	if r.i == len(r.tr.frames) {
		return nil, 0, false
	}
	r.i++
	r.emitted++
	return r.tr.frames[r.i-1], r.tr.ticks[r.i-1], true
}

func (r *replay) NextBurst(frames [][]byte, ticks []uint64) int {
	if r.err != nil || r.i == len(r.tr.frames) {
		if r.done != nil {
			r.done()
			r.done = nil
		}
		return 0
	}
	if r.room != nil {
		if r.err = r.room(); r.err != nil {
			return 0
		}
	}
	n := copy(frames, r.tr.frames[r.i:])
	copy(ticks, r.tr.ticks[r.i:r.i+n])
	r.i += n
	r.emitted += uint64(n)
	return n
}

// roomTimeout bounds the producer's wait; the core drains a full ring
// in milliseconds, so reaching it means the pipeline is stuck.
const roomTimeout = 10 * time.Second

// ringRoom returns the live source's wait, run on the producer
// goroutine: it polls until queue 0 has room for one more full burst,
// the most one DeliverBurst call publishes (the rest stays staged). It
// spins without yielding, since the core runs on the other P and a
// yield from the producer's locked thread would park the thread, and it
// adds the thread time spent spinning to *spun.
func ringRoom(dev *nic.NIC, spun *time.Duration) func() error {
	room := func() bool {
		used, capacity := dev.RingOccupancy(0)
		return capacity-used >= burst
	}
	return func() error {
		if room() {
			return nil
		}
		t0 := threadTime()
		defer func() { *spun += threadTime() - t0 }()
		deadline := time.Now().Add(roomTimeout)
		for spins := 1; !room(); spins++ {
			if spins&4095 == 0 && time.Now().After(deadline) {
				return fmt.Errorf("live source: ring still full after %v", roomTimeout)
			}
		}
		return nil
	}
}

// Compile-time check that replay feeds both entry points.
var _ retina.BurstSource = (*replay)(nil)
