package conntrack

import (
	"fmt"
	"testing"

	"retina/internal/layers"
)

var benchSink *Conn

// benchTuple derives the i-th distinct five-tuple, spreading bits into
// ports and host bytes so benchmarks cover many buckets.
func benchTuple(i int) layers.FiveTuple {
	f := ft("10.2.0.1", "10.3.0.2", uint16(i%63000+1), uint16((i/63000)%63000+1))
	f.SrcIP[2] = byte(i >> 16)
	f.DstIP[2] = byte(i >> 24)
	return f
}

// BenchmarkConntrackLookup measures the per-packet hot path — a
// GetOrCreate hit against a populated table, half of the packets from
// the responder side — on both backends. The flat backend must report
// 0 allocs/op.
func BenchmarkConntrackLookup(b *testing.B) {
	for _, backend := range []string{BackendFlat, BackendMap} {
		for _, n := range []int{1 << 10, 1 << 16} {
			b.Run(fmt.Sprintf("%s/conns=%d", backend, n), func(b *testing.B) {
				tbl, tuples := populated(b, backend, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, _, created, _ := tbl.GetOrCreate(&tuples[i&(n-1)], uint64(n))
					if created {
						b.Fatal("lookup miss")
					}
					benchSink = c
				}
			})
		}
	}
}

// BenchmarkConntrackChurn measures steady-state connection turnover —
// remove the oldest, admit a new flow, touch it — at a fixed live
// population. Timeouts are disabled so the numbers isolate index and
// slab work from timer-wheel scheduling. The flat backend must stay at
// 0 allocs/op: slab slots and bucket space are recycled, never
// reallocated.
func BenchmarkConntrackChurn(b *testing.B) {
	const livePop = 4096
	for _, backend := range []string{BackendFlat, BackendMap} {
		b.Run(backend, func(b *testing.B) {
			tbl := NewTable(Config{Backend: backend})
			ring := make([]*Conn, livePop)
			for i := range ring {
				tuple := benchTuple(i)
				c, _, _, ok := tbl.GetOrCreate(&tuple, uint64(i))
				if !ok {
					b.Fatalf("setup create %d failed", i)
				}
				ring[i] = c
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot := i % livePop
				tbl.Remove(ring[slot], ExpireTermination)
				tuple := benchTuple(livePop + i)
				c, orig, _, ok := tbl.GetOrCreate(&tuple, uint64(i))
				if !ok {
					b.Fatal("churn create failed")
				}
				tbl.Touch(c, orig, uint64(i), 100, 60, layers.TCPAck)
				ring[slot] = c
			}
		})
	}
}
