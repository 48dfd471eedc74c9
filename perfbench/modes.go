package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"retina"
	"retina/internal/core"
	"retina/internal/filter"
	"retina/internal/mbuf"
	"retina/internal/nic"
	"retina/internal/telemetry"
)

// outcome is what one run of any mode delivered and how the pipeline
// accounted for the frames it was offered.
type outcome struct {
	mode      string
	offered   uint64 // frames the source handed out
	delivered uint64
	hash      uint64
	lost      uint64 // ring overflow + no_mbuf + oversize (live and traced)
	elapsed   time.Duration
	setup     time.Duration
	mallocs   uint64
	allocB    uint64
	memBytes  int64 // live: heap held at the end of the run
	problems  []string
}

func (o *outcome) failf(format string, args ...any) {
	o.problems = append(o.problems, o.mode+": "+fmt.Sprintf(format, args...))
}

// threadTime is the CPU time of the calling OS thread, and
// processTime that of every thread of the process. The end-to-end
// timings are built from them rather than from the wall clock: on a
// shared 2-vCPU guest the hypervisor takes 10-35% of wall time for
// other guests, shifting from minute to minute by more than any bound
// could absorb, and CPU clocks do not advance while a vCPU is taken.
// The timed goroutines hold their OS thread (runtime.LockOSThread) and
// do not block while timed.
func threadTime() time.Duration  { return cpuClock(clockThreadCPUTime) }
func processTime() time.Duration { return cpuClock(clockProcessCPUTime) }

// Linux clock IDs; both have nanosecond resolution, unlike the
// tick-sampled getrusage.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	// checkCPUClocks ran once before any timing; the call cannot fail
	// afterwards.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func checkCPUClocks() error {
	for _, id := range []uintptr{clockProcessCPUTime, clockThreadCPUTime} {
		var ts syscall.Timespec
		if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
			return fmt.Errorf("CPU clock %d unavailable: %w", id, errno)
		}
	}
	if runtime.GOMAXPROCS(0) < 2 {
		return fmt.Errorf("live mode needs GOMAXPROCS >= 2 (producer and core), have %d", runtime.GOMAXPROCS(0))
	}
	return nil
}

// The guest's clock speed drifts by ±10% over minutes as the host's
// load changes (turbo headroom, a busy SMT sibling), moving every
// timing together: setup, offline and live. calibrate measures it with
// a fixed dependent chain of multiply-adds that touches no memory and
// no code of the program; the end-to-end timings are scaled to a guest
// that runs one step in referenceStepNs, the typical speed of the 2.1
// GHz Xeon guest the bounds were set on.
const (
	calibrationSteps = 2_000_000
	referenceStepNs  = 1.6
)

var calibrationSink uint64

// calibrate returns the nanoseconds of thread CPU time one step took.
func calibrate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	x := uint64(1)
	t0 := threadTime()
	for i := 0; i < calibrationSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	calibrationSink += x
	return float64(threadTime()-t0) / calibrationSteps
}

// newRuntime builds the workload's runtime and times it: retina.New
// compiles the filter and installs the subscription. The caller holds
// its OS thread.
func newRuntime(w *workload, s *sink) (*retina.Runtime, time.Duration, error) {
	t0 := threadTime()
	rt, err := retina.New(w.config(), w.subscription(s))
	return rt, threadTime() - t0, err
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func allocCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// runLive times Runtime.Run over the trace with the lossless source,
// and measures the heap the runtime holds once it has finished.
//
// Run's time is the time of its busier side: the producer (this
// goroutine) less its waits for ring room, or the rest of the process —
// the core goroutine — over the same span, whichever is larger, plus
// all CPU spent after the source runs dry while the core drains the
// ring and flushes. A vCPU taken by the hypervisor then stalls neither
// side's clock, where with wall time a core descheduled for a few
// milliseconds would fill the ring and show up as producer time.
func runLive(w *workload, tr *trace) outcome {
	o := outcome{mode: "live"}
	s := &sink{}
	runtime.GC()
	before := heapAlloc()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rt, setup, err := newRuntime(w, s)
	if err != nil {
		o.failf("retina.New: %v", err)
		return o
	}
	o.setup = setup
	var spun, doneThread, doneProcess time.Duration
	src := &replay{tr: tr, room: ringRoom(rt.NIC(), &spun), done: func() {
		doneThread, doneProcess = threadTime(), processTime()
	}}
	thread0, process0 := threadTime(), processTime()
	st := rt.Run(src)
	tail := processTime() - doneProcess
	producer := doneThread - thread0
	rest := doneProcess - process0 - producer
	o.elapsed = max(producer-spun, rest) + tail
	runtime.GC()
	o.memBytes = int64(heapAlloc()) - int64(before)
	if src.err != nil {
		o.failf("%v", src.err)
	}
	o.offered, o.delivered, o.hash = src.emitted, s.count, s.hash
	o.lost = st.NIC.Loss()
	checkDevice(&o, st.NIC)
	checkCores(&o, w, rt, st.NIC.Delivered, st.Cores)
	runtime.KeepAlive(rt)
	return o
}

// runOffline times Runtime.RunOffline, the host pipeline alone, and
// counts the heap allocations it makes.
func runOffline(w *workload, tr *trace) outcome {
	o := outcome{mode: "offline"}
	s := &sink{}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rt, setup, err := newRuntime(w, s)
	if err != nil {
		o.failf("retina.New: %v", err)
		return o
	}
	o.setup = setup
	src := &replay{tr: tr}
	m0, b0 := allocCounters()
	t0 := threadTime()
	st := rt.RunOffline(src)
	o.elapsed = threadTime() - t0
	m1, b1 := allocCounters()
	o.mallocs, o.allocB = m1-m0, b1-b0
	o.offered, o.delivered, o.hash = src.emitted, s.count, s.hash
	checkCores(&o, w, rt, src.emitted, st.Cores)
	return o
}

// spans accumulates the traced run's per-layer wall time. Each span
// wraps one call the driver makes; the callback span is taken inside
// the subscription callback and nests in the process span.
type spans struct {
	source, deliver, ring, process, flush, callback int64
}

// clockEpoch anchors now: time.Since on a monotonic reading costs one
// clock read, half of time.Now.
var clockEpoch = time.Now()

func now() int64 { return int64(time.Since(clockEpoch)) }

// tracedRun is one pass of the traced driver plus the program's own
// counters read after it.
type tracedRun struct {
	outcome
	sp        spans
	nic       nic.Stats
	cs        core.CoreStats
	stages    *core.StageStats
	connBytes uint64 // conntrack memory before the final flush
	connsLive int
	peakRules int
	prog      *filter.Program
	// cpu is the pass's thread CPU time; elapsed is its wall time, the
	// base the spans add up against.
	cpu time.Duration
}

// runTraced drives the pipeline on the calling goroutine through the
// calls Runtime.Run makes — NIC.DeliverBurst, Ring.DequeueBurst,
// Core.ProcessBurst, and Core.Flush at the end — timing each call when
// timed is set. The source is the live one minus its waits: the driver
// empties the ring after every burst, so it never fills.
func runTraced(w *workload, tr *trace, timed bool) tracedRun {
	r := tracedRun{outcome: outcome{mode: "traced"}}
	s := &sink{timed: timed}
	runtime.GC()
	rt, setup, err := newRuntime(w, s)
	if err != nil {
		r.failf("retina.New: %v", err)
		return r
	}
	r.setup = setup
	dev, c := rt.NIC(), rt.Cores()[0]
	ring := dev.Queue(0)
	src := &replay{tr: tr}
	frames := make([][]byte, burst)
	ticks := make([]uint64, burst)
	buf := make([]*mbuf.Mbuf, burst)
	var sp spans
	// mark closes the span that began at t into acc and opens the next.
	mark := func(acc *int64, t int64) int64 {
		if !timed {
			return t
		}
		n := now()
		*acc += n - t
		return n
	}
	drain := func(t int64) int64 {
		for {
			n := ring.DequeueBurst(buf)
			t = mark(&sp.ring, t)
			if n == 0 {
				return t
			}
			c.ProcessBurst(buf[:n])
			t = mark(&sp.process, t)
		}
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rt.ControlPlane().Start()
	m0, b0 := allocCounters()
	cpu0 := threadTime()
	start := now()
	t := start
	for {
		n := src.NextBurst(frames, ticks)
		t = mark(&sp.source, t)
		if n == 0 {
			break
		}
		dev.DeliverBurst(frames[:n], ticks[:n])
		t = mark(&sp.deliver, t)
		t = drain(t)
	}
	dev.Close()
	t = mark(&sp.deliver, t)
	drain(t)
	r.connBytes, r.connsLive = c.Table().MemoryBytes(), c.Table().Len()
	t = now()
	c.Flush()
	end := mark(&sp.flush, t)
	if !timed {
		end = now()
	}
	r.cpu = threadTime() - cpu0
	m1, b1 := allocCounters()
	rt.ControlPlane().Stop()
	sp.callback = s.cbNs
	r.sp = sp
	r.elapsed = time.Duration(end - start)
	r.mallocs, r.allocB = m1-m0, b1-b0
	r.offered, r.delivered, r.hash = src.emitted, s.count, s.hash
	r.nic = dev.Stats()
	r.cs = c.Stats()
	r.stages = c.StageStats()
	r.prog = rt.Program()
	if m := rt.Offload(); m != nil {
		r.peakRules = m.Stats().PeakRules
	}
	r.lost = r.nic.Loss()
	checkDevice(&r.outcome, r.nic)
	checkCores(&r.outcome, w, rt, r.nic.Delivered, []core.CoreStats{r.cs})
	return r
}

// checkDevice asserts the device-side conservation identity: every
// frame offered is enqueued for a core or counted under exactly one
// device drop reason, and none is lost to overflow or buffer shortage.
func checkDevice(o *outcome, ns nic.Stats) {
	if ns.RxFrames != o.offered {
		o.failf("device rx %d != frames offered %d", ns.RxFrames, o.offered)
	}
	dropped := ns.Malformed + ns.HWDropped + ns.HWOffloadDrop + ns.Sunk + ns.Loss()
	if ns.Delivered+dropped != ns.RxFrames {
		o.failf("device conservation: enqueued %d + dropped %d != rx %d", ns.Delivered, dropped, ns.RxFrames)
	}
	if ns.RingDrops != 0 {
		o.failf("ring overflow %d: the lossless source let the ring fill", ns.RingDrops)
	}
	if l := ns.Loss(); l != 0 {
		o.failf("lost %d frames (ring overflow %d, no_mbuf %d, oversize %d)", l, ns.RingDrops, ns.NoMbuf, ns.Oversize)
	}
}

// checkCores asserts the core-side identities after a run: each core
// consumed every frame handed to it, a packet subscription disposed of
// each of them exactly once (session subscriptions keep tracked frames
// inside conntrack, outside the per-frame counters), and every mbuf is
// back in the pool.
func checkCores(o *outcome, w *workload, rt *retina.Runtime, handed uint64, cores []core.CoreStats) {
	var processed, delivered uint64
	for i, cs := range cores {
		processed += cs.Processed
		delivered += cs.DeliveredPackets
		if w.tls {
			continue
		}
		disposed := cs.FilterDropped + cs.TombstonePkts + cs.NotTrackable +
			cs.TableFull + cs.PktBufOverflow + cs.PendingDiscard +
			cs.PktBufBudget + cs.ShedLowPool + cs.EvictedPressure +
			cs.DeliveredPackets
		if disposed != cs.Processed {
			o.failf("core %d: delivered + drops %d != processed %d", i, disposed, cs.Processed)
		}
	}
	if processed != handed {
		o.failf("cores processed %d frames, %d were handed to them", processed, handed)
	}
	if !w.tls {
		drops := rt.DropBreakdown()
		var sum uint64
		for _, reason := range telemetry.FrameDropReasons() {
			sum += drops[reason]
		}
		if delivered+sum != o.offered {
			o.failf("conservation: delivered %d + drops %d != rx %d (%v)", delivered, sum, o.offered, drops)
		}
	}
	if n := rt.Pool().InUse(); n != 0 {
		o.failf("%d mbufs still in use after the run", n)
	}
}

// checkAgreement compares each run's deliveries with the reference run
// over the same trace: the same number of records with the same hash.
func checkAgreement(ref outcome, runs ...*outcome) {
	for _, o := range runs {
		if o.delivered != ref.delivered || o.hash != ref.hash {
			o.failf("delivered %d records (hash %#x); %s run: %d (hash %#x)",
				o.delivered, o.hash, ref.mode, ref.delivered, ref.hash)
		}
	}
}
