package mbuf

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestFromBytes(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5}
	m := FromBytes(data)
	if !bytes.Equal(m.Data(), data) {
		t.Fatalf("Data() = %v, want %v", m.Data(), data)
	}
	if m.Len() != 5 {
		t.Fatalf("Len() = %d, want 5", m.Len())
	}
	// Mutating the source must not change the mbuf (FromBytes copies).
	data[0] = 99
	if m.Data()[0] == 99 {
		t.Fatal("FromBytes aliases caller memory")
	}
}

func TestPoolAllocFree(t *testing.T) {
	p := NewPool(4, 256)
	if p.Available() != 4 {
		t.Fatalf("Available = %d, want 4", p.Available())
	}
	var ms []*Mbuf
	for i := 0; i < 4; i++ {
		m, err := p.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		ms = append(ms, m)
	}
	if _, err := p.Alloc(); err != ErrPoolExhausted {
		t.Fatalf("Alloc on empty pool: err = %v, want ErrPoolExhausted", err)
	}
	for _, m := range ms {
		m.Free()
	}
	if p.Available() != 4 {
		t.Fatalf("after free, Available = %d, want 4", p.Available())
	}
	_, fails := p.Stats()
	if fails != 1 {
		t.Fatalf("fails = %d, want 1", fails)
	}
}

func TestAllocResetsMetadata(t *testing.T) {
	p := NewPool(1, 256)
	m, _ := p.Alloc()
	m.Port, m.Queue, m.RSSHash, m.RxTick = 7, 3, 42, 1000
	m.SetData([]byte("hello"))
	m.Free()

	m2, _ := p.Alloc()
	if m2.Port != 0 || m2.Queue != 0 || m2.RSSHash != 0 || m2.RxTick != 0 {
		t.Fatal("recycled mbuf retains metadata")
	}
	if m2.Len() != 0 {
		t.Fatalf("recycled mbuf Len = %d, want 0", m2.Len())
	}
}

func TestRefCounting(t *testing.T) {
	p := NewPool(1, 256)
	m, _ := p.Alloc()
	m.Ref()
	if m.RefCount() != 2 {
		t.Fatalf("RefCount = %d, want 2", m.RefCount())
	}
	m.Free()
	if p.Available() != 0 {
		t.Fatal("buffer returned to pool while references remain")
	}
	m.Free()
	if p.Available() != 1 {
		t.Fatal("buffer not returned to pool at refcount zero")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := NewPool(1, 256)
	m, _ := p.Alloc()
	m.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double Free did not panic")
		}
	}()
	m.Free()
}

func TestSetDataTailroom(t *testing.T) {
	p := NewPool(1, 300)
	m, _ := p.Alloc()
	if err := m.SetData(bytes.Repeat([]byte{0xAA}, 100)); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 100 || m.Headroom()+m.Len()+m.Tailroom() != 300 {
		t.Fatalf("Len = %d, Headroom = %d, Tailroom = %d in a 300-byte buffer", m.Len(), m.Headroom(), m.Tailroom())
	}
	if err := m.SetData(bytes.Repeat([]byte{0xBB}, 1000)); err != ErrTooLarge {
		t.Fatalf("oversized SetData err = %v, want ErrTooLarge", err)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	p := NewPool(64, 256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m, err := p.Alloc()
				if err != nil {
					continue
				}
				m.SetData([]byte{byte(i)})
				m.Free()
			}
		}()
	}
	wg.Wait()
	if p.Available() != 64 {
		t.Fatalf("Available = %d, want 64", p.Available())
	}
}

// Property: for any data that fits, a pool round-trip preserves contents.
func TestQuickSetDataRoundTrip(t *testing.T) {
	p := NewPool(2, DefaultBufSize)
	f := func(data []byte) bool {
		if len(data) > DefaultBufSize-DefaultHeadroom {
			data = data[:DefaultBufSize-DefaultHeadroom]
		}
		m, err := p.AllocData(data)
		if err != nil {
			return false
		}
		ok := bytes.Equal(m.Data(), data)
		m.Free()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocBulkFull(t *testing.T) {
	p := NewPool(8, 256)
	out := make([]*Mbuf, 4)
	if n := p.AllocBulk(out); n != 4 {
		t.Fatalf("AllocBulk = %d, want 4", n)
	}
	if p.InUse() != 4 {
		t.Fatalf("InUse = %d, want 4", p.InUse())
	}
	for _, m := range out {
		if m == nil || m.RefCount() != 1 || m.Len() != 0 || m.Headroom() != DefaultHeadroom {
			t.Fatalf("bulk-allocated mbuf not reset: %+v", m)
		}
	}
	FreeBulk(out)
	if p.InUse() != 0 {
		t.Fatalf("after FreeBulk, InUse = %d, want 0", p.InUse())
	}
	allocs, fails := p.Stats()
	if allocs != 4 || fails != 0 {
		t.Fatalf("Stats = %d allocs, %d fails", allocs, fails)
	}
}

// Pool exhaustion mid-burst: the partial burst is returned, the tail is
// untouched, the shortfall is counted as failures, and no references
// leak (InUse balances back to zero after the partial burst is freed).
func TestAllocBulkPartialOnExhaustion(t *testing.T) {
	p := NewPool(3, 256)
	out := make([]*Mbuf, 8)
	sentinel := &Mbuf{}
	for i := range out {
		out[i] = sentinel
	}
	n := p.AllocBulk(out)
	if n != 3 {
		t.Fatalf("AllocBulk = %d, want 3", n)
	}
	for i := 3; i < 8; i++ {
		if out[i] != sentinel {
			t.Fatalf("out[%d] touched beyond the allocated prefix", i)
		}
	}
	if p.Available() != 0 || p.InUse() != 3 {
		t.Fatalf("Available=%d InUse=%d", p.Available(), p.InUse())
	}
	allocs, fails := p.Stats()
	if allocs != 3 || fails != 5 {
		t.Fatalf("Stats = %d allocs, %d fails; want 3, 5", allocs, fails)
	}
	// A second bulk call on the empty pool allocates nothing.
	var out2 [2]*Mbuf
	if n := p.AllocBulk(out2[:]); n != 0 {
		t.Fatalf("AllocBulk on empty pool = %d, want 0", n)
	}
	FreeBulk(out[:n])
	if p.InUse() != 0 || p.Available() != 3 {
		t.Fatalf("after free: Available=%d InUse=%d", p.Available(), p.InUse())
	}
}

// FreeBulk must honor refcounts exactly like n calls to Free: buffers
// with extra references stay out of the pool until their last holder
// lets go, and nil entries are skipped.
func TestFreeBulkRefCountsAndNils(t *testing.T) {
	p := NewPool(4, 256)
	out := make([]*Mbuf, 4)
	if n := p.AllocBulk(out); n != 4 {
		t.Fatal("short alloc")
	}
	held := out[1].Ref()
	out[2] = nil // simulates a slot consumed elsewhere in the burst
	FreeBulk(out)
	// out[0], out[3] freed; out[1] has one ref left; out[2] skipped.
	if p.Available() != 2 {
		t.Fatalf("Available = %d, want 2", p.Available())
	}
	held.Free()
	if p.Available() != 3 {
		t.Fatalf("Available = %d, want 3", p.Available())
	}
	if p.InUse() != 1 { // the nil'd slot's buffer is still out
		t.Fatalf("InUse = %d, want 1", p.InUse())
	}
}

func TestFreeBulkDoubleFreePanics(t *testing.T) {
	p := NewPool(1, 256)
	m, _ := p.Alloc()
	m.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("FreeBulk double free did not panic")
		}
	}()
	FreeBulk([]*Mbuf{m})
}

func TestConcurrentBulkAllocFree(t *testing.T) {
	p := NewPool(128, 256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			burst := make([]*Mbuf, 16)
			for i := 0; i < 500; i++ {
				n := p.AllocBulk(burst)
				FreeBulk(burst[:n])
			}
		}()
	}
	wg.Wait()
	if p.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", p.InUse())
	}
}

func BenchmarkPoolAllocFree(b *testing.B) {
	p := NewPool(16, DefaultBufSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, _ := p.Alloc()
		m.Free()
	}
}

func BenchmarkPoolAllocFreeBulk32(b *testing.B) {
	p := NewPool(64, DefaultBufSize)
	burst := make([]*Mbuf, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := p.AllocBulk(burst)
		FreeBulk(burst[:n])
	}
}

// A cache over a drained pool charges one allocation failure per frame
// it could not store, not one per cache slot, and counts as allocated
// exactly the buffers it handed out.
func TestCacheDrainedPoolOneFailurePerFrame(t *testing.T) {
	p := NewPool(5, 256)
	c := NewCache(p, 4)
	var got []*Mbuf
	var exhausted int
	for i := 0; i < 8; i++ {
		m, err := c.AllocData([]byte{byte(i)})
		switch err {
		case nil:
			if m.RefCount() != 1 || m.Len() != 1 || m.Data()[0] != byte(i) {
				t.Fatalf("frame %d: refs %d data %v", i, m.RefCount(), m.Data())
			}
			got = append(got, m)
		case ErrPoolExhausted:
			exhausted++
		default:
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	c.Release()
	allocs, fails := p.Stats()
	if len(got) != 5 || exhausted != 3 || allocs != 5 || fails != 3 {
		t.Fatalf("stored %d, exhausted %d, allocs %d, fails %d; want 5, 3, 5, 3", len(got), exhausted, allocs, fails)
	}
	FreeBulk(got)
	if p.InUse() != 0 {
		t.Fatalf("InUse = %d after freeing everything", p.InUse())
	}
}

// An oversize frame leaves its buffer in the cache: nothing is counted
// as allocated or failed, and Release gives every buffer back.
func TestCacheOversizeKeepsBuffer(t *testing.T) {
	p := NewPool(2, 256)
	c := NewCache(p, 2)
	if _, err := c.AllocData(make([]byte, 300)); err != ErrTooLarge {
		t.Fatalf("oversize frame: %v, want ErrTooLarge", err)
	}
	m, err := c.AllocData([]byte("fits"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Available() != 0 {
		t.Fatalf("pool has %d free while the cache holds the rest", p.Available())
	}
	c.Release()
	m.Free()
	allocs, fails := p.Stats()
	if allocs != 1 || fails != 0 || p.InUse() != 0 {
		t.Fatalf("allocs %d fails %d InUse %d; want 1, 0, 0", allocs, fails, p.InUse())
	}
}

// A buffer with a second reference is freed by two goroutines: the
// shared decrement is atomic, the last holder's sole-owner free is
// plain, and the buffer returns to the pool exactly once. Run under
// -race.
func TestSharedFreeAcrossGoroutines(t *testing.T) {
	// Enough buffers that the producer never waits for the consumer.
	p := NewPool(2048+16, 256)
	c := NewCache(p, 16)
	handoff := make(chan *Mbuf, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range handoff {
			m.Free()
		}
	}()
	for i := 0; i < 2000; i++ {
		m, err := c.AllocData([]byte{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		handoff <- m.Ref()
		if i%2 == 0 {
			m.Free()
		} else {
			FreeBulk([]*Mbuf{m})
		}
	}
	close(handoff)
	<-done
	c.Release()
	if p.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", p.InUse())
	}
}

// A sole-owner free followed by a second free still panics.
func TestSoleOwnerDoubleFreePanics(t *testing.T) {
	p := NewPool(1, 256)
	c := NewCache(p, 1)
	m, err := c.AllocData([]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	m.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	m.Free()
}

// The borrow state rides in the padding after RSSHash: an Mbuf is 80
// bytes, the size every pool and ring slot was sized for.
func TestMbufSize(t *testing.T) {
	if n := unsafe.Sizeof(Mbuf{}); n != 80 {
		t.Fatalf("Mbuf is %d bytes, want 80", n)
	}
}

// borrowOne borrows frame through a fresh one-buffer pool.
func borrowOne(t *testing.T, frame []byte) (*Pool, *Mbuf) {
	t.Helper()
	p := NewPool(1, 256)
	c := NewCache(p, 1)
	m, err := c.Borrow(frame)
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	return p, m
}

// A borrowed buffer views the frame itself, and returns to its pool
// owning its storage again.
func TestBorrowAliasesFrame(t *testing.T) {
	frame := []byte("borrowed frame")
	p, m := borrowOne(t, frame)
	if unsafe.SliceData(m.Data()) != unsafe.SliceData(frame) || m.Len() != len(frame) {
		t.Fatalf("Data does not alias the frame")
	}
	if m.Headroom() != 0 || m.Tailroom() != 0 {
		t.Fatalf("borrowed view has headroom %d, tailroom %d; want 0, 0", m.Headroom(), m.Tailroom())
	}
	m.Free()
	m2, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m || m2.Headroom() != DefaultHeadroom || m2.Tailroom() != 256-DefaultHeadroom {
		t.Fatalf("recycled buffer: headroom %d, tailroom %d", m2.Headroom(), m2.Tailroom())
	}
	if allocs, _ := p.Stats(); allocs != 2 {
		t.Fatalf("allocs = %d, want 2", allocs)
	}
	m2.Free()
}

// SetData on a borrowed buffer drops the view first: the frame is never
// written.
func TestBorrowedWritesDetach(t *testing.T) {
	t.Run("setdata", func(t *testing.T) {
		frame := []byte("head")
		p, m := borrowOne(t, frame)
		if err := m.SetData([]byte("new")); err != nil {
			t.Fatal(err)
		}
		if string(frame) != "head" {
			t.Fatalf("frame overwritten: %q", frame)
		}
		if string(m.Data()) != "new" {
			t.Fatalf("Data = %q, want %q", m.Data(), "new")
		}
		m.Free()
		if p.InUse() != 0 {
			t.Fatalf("InUse = %d", p.InUse())
		}
	})
}

// Keep detaches a borrowed buffer: the kept bytes are a copy in the
// buffer's own storage, the view is rebased onto them, and the frame
// may then be reused. Keep takes no reference, and a second Keep
// changes nothing.
func TestKeepDetachesAndRebases(t *testing.T) {
	frame := []byte("0123456789")
	p, m := borrowOne(t, frame)
	view := m.Keep(m.Data()[3:7])
	if m.RefCount() != 1 {
		t.Fatalf("Keep left refs %d, want 1", m.RefCount())
	}
	if unsafe.SliceData(m.Data()) == unsafe.SliceData(frame) || m.Headroom() != DefaultHeadroom {
		t.Fatal("Keep left the buffer borrowed")
	}
	clear(frame)
	if string(m.Data()) != "0123456789" || string(view) != "3456" {
		t.Fatalf("kept %q, view %q", m.Data(), view)
	}
	if &view[0] != &m.Data()[3] {
		t.Fatal("view not rebased onto the kept bytes")
	}
	if again := m.Keep(view[1:]); &again[0] != &view[1] || m.RefCount() != 1 {
		t.Fatal("Keep of an owned buffer moved the view")
	}
	m.Free()
	if p.InUse() != 0 {
		t.Fatalf("InUse = %d", p.InUse())
	}
}

// A view that does not lie in the buffer's data is a caller bug.
func TestKeepForeignViewPanics(t *testing.T) {
	_, m := borrowOne(t, []byte("frame"))
	defer func() {
		if recover() == nil {
			t.Fatal("Keep of a foreign view did not panic")
		}
	}()
	m.Keep([]byte("other"))
}

// Borrow refuses a frame too large for the buffer's own storage, where
// Keep would have to copy it; the buffer stays in the cache.
func TestBorrowOversizeKeepsBuffer(t *testing.T) {
	p := NewPool(1, 256)
	c := NewCache(p, 1)
	if _, err := c.Borrow(make([]byte, 256-DefaultHeadroom+1)); err != ErrTooLarge {
		t.Fatalf("oversize frame: %v, want ErrTooLarge", err)
	}
	m, err := c.Borrow(make([]byte, 256-DefaultHeadroom))
	if err != nil {
		t.Fatal(err)
	}
	m.Keep(nil)
	FreeBulk([]*Mbuf{m, m.Ref()})
	c.Release()
	if allocs, fails := p.Stats(); allocs != 1 || fails != 0 || p.InUse() != 0 {
		t.Fatalf("allocs %d fails %d InUse %d; want 1, 0, 0", allocs, fails, p.InUse())
	}
}

// A fresh pool has made nothing, yet reports its whole bound as
// available and nothing in use.
func TestFreshPoolAvailableIsBound(t *testing.T) {
	for _, n := range []int{0, 1, chunkBufs, 2*chunkBufs + 7} {
		p := NewPool(n, 256)
		if p.Available() != n || p.Size() != n || p.InUse() != 0 {
			t.Fatalf("n=%d: Available %d Size %d InUse %d", n, p.Available(), p.Size(), p.InUse())
		}
	}
}

// Exactly the bound can be allocated, across chunk boundaries and a
// short last chunk, through each allocation path; every request beyond
// it counts one failure per missing buffer, and every buffer has its
// own storage.
func TestGrowingPoolAllocatesExactlyBound(t *testing.T) {
	const n = 2*chunkBufs + 7
	paths := map[string]func(p *Pool) (got []*Mbuf, fails uint64){
		"alloc": func(p *Pool) ([]*Mbuf, uint64) {
			var got []*Mbuf
			for {
				m, err := p.Alloc()
				if err != nil {
					return got, 1
				}
				got = append(got, m)
			}
		},
		"bulk": func(p *Pool) ([]*Mbuf, uint64) {
			var got []*Mbuf
			out := make([]*Mbuf, 100) // straddles every chunk boundary
			for {
				k := p.AllocBulk(out)
				got = append(got, out[:k]...)
				if k < len(out) {
					return got, uint64(len(out) - k)
				}
			}
		},
		"cache": func(p *Pool) ([]*Mbuf, uint64) {
			var got []*Mbuf
			c := NewCache(p, 32)
			defer c.Release()
			for {
				m, err := c.AllocData([]byte{1})
				if err != nil {
					return got, 1
				}
				got = append(got, m)
			}
		},
	}
	for name, alloc := range paths {
		t.Run(name, func(t *testing.T) {
			p := NewPool(n, 256)
			got, wantFails := alloc(p)
			if len(got) != n || p.Available() != 0 || p.InUse() != n {
				t.Fatalf("allocated %d, Available %d, InUse %d; want %d, 0, %d", len(got), p.Available(), p.InUse(), n, n)
			}
			if allocs, fails := p.Stats(); allocs != n || fails != wantFails {
				t.Fatalf("allocs %d fails %d; want %d, %d", allocs, fails, n, wantFails)
			}
			storage := make(map[*byte]bool, n)
			for _, m := range got {
				if len(m.buf) != 256 || storage[&m.buf[0]] {
					t.Fatalf("slot %d: storage of %d bytes, shared %v", m.slot, len(m.buf), storage[&m.buf[0]])
				}
				storage[&m.buf[0]] = true
			}
			FreeBulk(got)
			if p.Available() != n || p.InUse() != 0 {
				t.Fatalf("after free: Available %d InUse %d", p.Available(), p.InUse())
			}
		})
	}
}

// A borrowed buffer made in a later chunk detaches into its own slot of
// that chunk, next to its neighbours' slots and not over them.
func TestBorrowDetachesIntoLaterChunk(t *testing.T) {
	const n = chunkBufs + 3
	p := NewPool(n, 256)
	c := NewCache(p, n)
	frames := make([][]byte, n)
	ms := make([]*Mbuf, n)
	for i := range ms {
		frames[i] = bytes.Repeat([]byte{byte(i)}, 256-DefaultHeadroom)
		m, err := c.Borrow(frames[i])
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	for _, m := range ms {
		m.Keep(nil)
	}
	var later int
	for i, m := range ms {
		if !bytes.Equal(m.Data(), frames[i]) {
			t.Fatalf("buffer %d (slot %d) lost its data to a neighbour", i, m.slot)
		}
		if m.slot < chunkBufs {
			continue
		}
		later++
		chunk := p.chunks[1]
		at := int(m.slot-chunkBufs) * 256
		if &m.buf[0] != &chunk[at] || cap(m.buf) != 256 {
			t.Fatalf("slot %d detached outside its own bytes of chunk 1", m.slot)
		}
	}
	if later != 3 {
		t.Fatalf("%d buffers from the second chunk, want 3", later)
	}
	FreeBulk(ms)
	c.Release()
	if p.InUse() != 0 {
		t.Fatalf("InUse = %d", p.InUse())
	}
}

// FreeBulk on one goroutine runs while a cache refill on another grows
// the pool: the consumer keeps every fourth buffer until the end, so
// the producer keeps making chunks as buffers come back. Run under
// -race.
func TestFreeBulkWhileCacheGrows(t *testing.T) {
	p := NewPool(8*chunkBufs, 256)
	c := NewCache(p, 32)
	handoff := make(chan *Mbuf, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var batch, kept []*Mbuf
		i := 0
		for m := range handoff {
			if i++; i%4 == 0 {
				kept = append(kept, m)
				continue
			}
			if batch = append(batch, m); len(batch) == 32 {
				FreeBulk(batch)
				batch = batch[:0]
			}
		}
		FreeBulk(batch)
		FreeBulk(kept)
	}()
	for i := 0; i < 4*chunkBufs; i++ {
		m, err := c.AllocData([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		handoff <- m
	}
	close(handoff)
	<-done
	c.Release()
	if p.made < 2*chunkBufs {
		t.Fatalf("pool made %d buffers; the test never grew it past one chunk", p.made)
	}
	if p.InUse() != 0 || p.Available() != p.Size() {
		t.Fatalf("InUse %d Available %d of %d", p.InUse(), p.Available(), p.Size())
	}
}

// Trim gives back every chunk but the first once every buffer is home,
// leaves a pool with buffers out untouched, and a trimmed pool grows
// again into fresh storage.
func TestTrimKeepsFirstChunk(t *testing.T) {
	const n = 3*chunkBufs + 7
	p := NewPool(n, 256)
	out := make([]*Mbuf, 2*chunkBufs+1)
	if k := p.AllocBulk(out); k != len(out) {
		t.Fatalf("allocated %d of %d", k, len(out))
	}
	p.Trim() // buffers out: nothing may change
	if p.made != 3*chunkBufs || p.chunks[2] == nil {
		t.Fatalf("Trim with %d buffers out left made %d", p.InUse(), p.made)
	}
	FreeBulk(out)
	p.Trim()
	if p.made != chunkBufs || len(p.free) != chunkBufs || p.InUse() != 0 || p.Available() != n {
		t.Fatalf("after Trim: made %d free %d InUse %d Available %d", p.made, len(p.free), p.InUse(), p.Available())
	}
	for i, c := range p.chunks[1:] {
		if c != nil {
			t.Fatalf("chunk %d kept after Trim", i+1)
		}
	}
	for _, m := range p.free {
		if m.slot >= chunkBufs {
			t.Fatalf("slot %d of a trimmed chunk still free", m.slot)
		}
	}
	// Regrow past the first chunk: every buffer again has its own bytes.
	clear(out)
	if k := p.AllocBulk(out); k != len(out) {
		t.Fatalf("regrown pool allocated %d of %d", k, len(out))
	}
	storage := make(map[*byte]bool, len(out))
	for _, m := range out {
		if storage[&m.buf[0]] {
			t.Fatalf("slot %d shares storage after regrowth", m.slot)
		}
		storage[&m.buf[0]] = true
	}
	FreeBulk(out)
	if p.InUse() != 0 {
		t.Fatalf("InUse = %d", p.InUse())
	}
}
