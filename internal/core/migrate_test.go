package core

import (
	"maps"
	"testing"

	"retina/internal/conntrack"
	"retina/internal/layers"
	"retina/internal/mbuf"
)

// TestRunMigrationHandoff drives Core.Run on two cores over scripted
// rings through one bucket migration, on a single goroutine: the
// destination fences first, and while it waits for the package its
// ring runs the whole source core, whose own ring posts the export
// between its two halves. Connection A (in the moved bucket) starts on
// the source and finishes on the destination; B stays put. The run
// must give identical counters with the duty-cycle clock on and off.
func TestRunMigrationHandoff(t *testing.T) {
	const bucket, retaSize = 7, 128

	type outcome struct {
		src, dst CoreStats
		moved    int64
		pkts     map[uint16]uint64 // record packets by client port
	}
	run := func(latency bool) outcome {
		out := outcome{pkts: map[uint16]uint64{}}
		sub := &Subscription{Level: LevelConnection, OnConn: func(r *ConnRecord) {
			port := r.Tuple.SrcPort
			if r.Tuple.DstPort > port {
				port = r.Tuple.DstPort
			}
			out.pkts[port] += r.PktsOrig + r.PktsResp
		}}
		ps := testSet(t, "ipv4 and tcp", sub)
		cores := make([]*Core, 2)
		for i := range cores {
			var err error
			cores[i], err = NewCore(i, Config{Set: ps, Conntrack: conntrack.DefaultConfig(), BurstSize: 8, Latency: latency})
			if err != nil {
				t.Fatal(err)
			}
		}
		src, dst := cores[0], cores[1]

		pool := mbuf.NewPool(64, mbuf.DefaultBufSize)
		tick := uint64(1000)
		mk := func(frame []byte, hash uint32) *mbuf.Mbuf {
			m, err := pool.AllocData(frame)
			if err != nil {
				t.Fatal(err)
			}
			tick += 100
			m.RxTick, m.RSSHash = tick, hash
			return m
		}
		a, b := newFlow(t, 43001, 443), newFlow(t, 43002, 443)
		data := func(f *flow, i int) []byte {
			return f.pkt(i%2 == 0, layers.TCPPsh|layers.TCPAck, []byte("payload"))
		}
		// Source ring, first half: both handshakes and some data; second
		// half: only B, since A's bucket now points at the destination.
		srcRing := &scriptedRing{t: t}
		for _, f := range []*flow{a, b} {
			hash := uint32(bucket)
			if f == b {
				hash = bucket + 1
			}
			for _, fr := range f.handshake() {
				srcRing.frames = append(srcRing.frames, mk(fr, hash))
			}
			for i := 0; i < 3; i++ {
				srcRing.frames = append(srcRing.frames, mk(data(f, i), hash))
			}
		}
		for i := 0; i < 10; i++ {
			srcRing.frames = append(srcRing.frames, mk(data(b, i), bucket+1))
		}
		for _, fr := range b.teardown() {
			srcRing.frames = append(srcRing.frames, mk(fr, bucket+1))
		}
		dstRing := &scriptedRing{t: t}
		for i := 0; i < 4; i++ {
			dstRing.frames = append(dstRing.frames, mk(data(a, i), bucket))
		}
		for _, fr := range a.teardown() {
			dstRing.frames = append(dstRing.frames, mk(fr, bucket))
		}

		m := NewMigration(bucket, retaSize, src.ID, dst.ID)
		srcRing.onWait = func() {
			switch srcRing.waited {
			case 1:
				src.PostMigration(m)
			case 2:
				if !m.Extracted() {
					t.Error("source did not export at the first burst boundary after the post")
				}
			}
		}
		dstRing.onWait = func() {
			switch {
			case dstRing.waited == 1:
				if !m.Acked() {
					t.Error("destination waited before fencing the migration")
				}
				src.Run(srcRing)
			case dstRing.waited > 100:
				t.Fatal("destination still waiting for the migration package")
			}
		}
		dst.PostMigration(m)
		dst.Run(dstRing)

		if !m.Imported() {
			t.Fatalf("latency=%v: migration not imported", latency)
		}
		if e := src.MigrationErrors() + dst.MigrationErrors(); e != 0 {
			t.Fatalf("latency=%v: %d migration errors", latency, e)
		}
		if n := pool.InUse(); n != 0 {
			t.Fatalf("latency=%v: %d mbufs still held after both cores flushed", latency, n)
		}
		checkInvariants(t, ps.Slots, src, dst)
		out.src, out.dst, out.moved = src.Stats(), dst.Stats(), m.Moved()
		return out
	}

	off, on := run(false), run(true)
	if off.moved != 1 {
		t.Fatalf("moved %d connections, want 1 (A)", off.moved)
	}
	if off.src.Processed != 24 || off.dst.Processed != 6 || off.dst.ConnsCreated != 0 {
		t.Fatalf("src processed %d, dst processed %d created %d; want 24, 6, 0",
			off.src.Processed, off.dst.Processed, off.dst.ConnsCreated)
	}
	if off.pkts[43001] != 12 || off.pkts[43002] != 18 {
		t.Fatalf("record packets %v, want A=12 across both cores and B=18", off.pkts)
	}
	if off.moved != on.moved {
		t.Fatalf("moved diverges: latency off %d, on %d", off.moved, on.moved)
	}
	if off.src != on.src || off.dst != on.dst {
		t.Fatalf("core stats diverge with latency on:\noff src %+v\non  src %+v\noff dst %+v\non  dst %+v",
			off.src, on.src, off.dst, on.dst)
	}
	if !maps.Equal(off.pkts, on.pkts) {
		t.Fatalf("records diverge: off %v, on %v", off.pkts, on.pkts)
	}
}
