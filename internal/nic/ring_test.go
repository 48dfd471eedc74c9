package nic

import (
	"sync"
	"testing"

	"retina/internal/mbuf"
)

func TestRingBasicBurst(t *testing.T) {
	r := NewRing(8)
	pool := mbuf.NewPool(16, 256)
	in := make([]*mbuf.Mbuf, 5)
	if n := pool.AllocBulk(in); n != 5 {
		t.Fatal("short alloc")
	}
	if n := r.EnqueueBurst(in); n != 5 {
		t.Fatalf("EnqueueBurst = %d, want 5", n)
	}
	if used, capa := r.Occupancy(); used != 5 || capa != 8 {
		t.Fatalf("Occupancy = %d/%d, want 5/8", used, capa)
	}
	out := make([]*mbuf.Mbuf, 8)
	if n := r.DequeueBurst(out); n != 5 {
		t.Fatalf("DequeueBurst = %d, want 5", n)
	}
	for i := 0; i < 5; i++ {
		if out[i] != in[i] {
			t.Fatalf("out[%d] = %p, want %p (FIFO order broken)", i, out[i], in[i])
		}
	}
	if n := r.DequeueBurst(out); n != 0 {
		t.Fatalf("DequeueBurst on empty ring = %d", n)
	}
	mbuf.FreeBulk(in)
}

// A ring's usable capacity is exactly the requested size even though the
// backing array rounds up to a power of two.
func TestRingCapacityExact(t *testing.T) {
	r := NewRing(5)
	ms := make([]*mbuf.Mbuf, 9)
	for i := range ms {
		ms[i] = mbuf.FromBytes([]byte{byte(i)})
	}
	if n := r.EnqueueBurst(ms); n != 5 {
		t.Fatalf("EnqueueBurst = %d, want 5 (configured capacity)", n)
	}
	if r.EnqueueBurst(ms[5:6]) != 0 {
		t.Fatal("EnqueueBurst succeeded on a full ring")
	}
	if used, capa := r.Occupancy(); used != 5 || capa != 5 {
		t.Fatalf("Occupancy = %d/%d", used, capa)
	}
}

// Partial enqueue: the ring takes what fits and the caller keeps the
// tail, so each excess frame can be accounted exactly once.
func TestRingPartialEnqueue(t *testing.T) {
	r := NewRing(4)
	ms := make([]*mbuf.Mbuf, 6)
	for i := range ms {
		ms[i] = mbuf.FromBytes([]byte{byte(i)})
	}
	if n := r.EnqueueBurst(ms); n != 4 {
		t.Fatalf("EnqueueBurst = %d, want 4", n)
	}
	out := make([]*mbuf.Mbuf, 2)
	if n := r.DequeueBurst(out); n != 2 {
		t.Fatal("short dequeue")
	}
	// Freed slots become available again, wrapping the cursor.
	if n := r.EnqueueBurst(ms[4:]); n != 2 {
		t.Fatalf("EnqueueBurst after drain = %d, want 2", n)
	}
}

func TestRingCloseDrain(t *testing.T) {
	r := NewRing(4)
	m := mbuf.FromBytes([]byte{1})
	r.EnqueueBurst([]*mbuf.Mbuf{m})
	r.Close()
	if !r.Wait() {
		t.Fatal("Wait = false with a queued mbuf on a closed ring")
	}
	var out [4]*mbuf.Mbuf
	if n := r.DequeueBurst(out[:]); n != 1 {
		t.Fatalf("DequeueBurst = %d", n)
	}
	if r.Wait() {
		t.Fatal("Wait = true on a closed, drained ring")
	}
}

// SPSC stress under the race detector: one producer bursts every mbuf of
// a pool through the ring, one consumer drains and frees. Every buffer
// must come back (no lost or duplicated descriptors).
func TestRingSPSCStress(t *testing.T) {
	const total = 50000
	pool := mbuf.NewPool(256, 64)
	r := NewRing(64)
	var consumed int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]*mbuf.Mbuf, 32)
		for r.Wait() {
			n := r.DequeueBurst(buf)
			consumed += n
			mbuf.FreeBulk(buf[:n])
		}
	}()

	burst := make([]*mbuf.Mbuf, 16)
	sent := 0
	for sent < total {
		n := pool.AllocBulk(burst)
		if n == 0 {
			continue // consumer still holds everything; spin
		}
		q := 0
		for q < n {
			q += r.EnqueueBurst(burst[q:n])
		}
		sent += n
	}
	r.Close()
	wg.Wait()
	if consumed != total {
		t.Fatalf("consumed %d of %d", consumed, total)
	}
	if pool.InUse() != 0 {
		t.Fatalf("InUse = %d after drain", pool.InUse())
	}
}

func BenchmarkRingBurst32(b *testing.B) {
	r := NewRing(4096)
	pool := mbuf.NewPool(8192, 64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]*mbuf.Mbuf, 32)
		for r.Wait() {
			n := r.DequeueBurst(buf)
			mbuf.FreeBulk(buf[:n])
		}
	}()
	burst := make([]*mbuf.Mbuf, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := pool.AllocBulk(burst)
		q := 0
		for q < n {
			q += r.EnqueueBurst(burst[q:n])
		}
	}
	b.StopTimer()
	r.Close()
	wg.Wait()
}
