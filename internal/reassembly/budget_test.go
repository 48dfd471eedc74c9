package reassembly

import (
	"runtime"
	"testing"
)

// TestBufferedSeqJumpBounded is the regression test for the unbounded
// grow: a single segment ~1 GiB ahead in sequence space used to make
// BufferedReassembler allocate a buffer proportional to the offset. With
// the extent cap it must allocate nothing of the sort and drop the
// segment.
func TestBufferedSeqJumpBounded(t *testing.T) {
	r := NewBufferedCap(1 << 20)
	base := uint32(1000)
	if err := r.Insert(Segment{Seq: base, Payload: make([]byte, 100), Orig: true}, func(Segment) {}); err != nil {
		t.Fatalf("in-order insert: %v", err)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := r.Insert(Segment{Seq: base + 1<<30, Payload: make([]byte, 100), Orig: true}, func(Segment) {})
	runtime.ReadMemStats(&after)

	if err != ErrBufferFull {
		t.Fatalf("far-ahead insert: err = %v, want ErrBufferFull", err)
	}
	if got := r.Stats().Dropped; got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 8<<20 {
		t.Fatalf("far-ahead insert allocated %d bytes; the cap should have prevented offset-proportional growth", delta)
	}
	if got := r.BufferedBytes(); got > 1<<20 {
		t.Fatalf("BufferedBytes = %d, exceeds the 1 MiB cap", got)
	}
}

// TestBufferedSeqJumpAllocs pins the allocation count: dropping a
// far-ahead segment must not allocate at all.
func TestBufferedSeqJumpAllocs(t *testing.T) {
	r := NewBufferedCap(1 << 16)
	if err := r.Insert(Segment{Seq: 0, Payload: make([]byte, 64), Orig: true}, func(Segment) {}); err != nil {
		t.Fatalf("in-order insert: %v", err)
	}
	payload := make([]byte, 64)
	allocs := testing.AllocsPerRun(100, func() {
		_ = r.Insert(Segment{Seq: 1 << 30, Payload: payload, Orig: true}, func(Segment) {})
	})
	if allocs > 0 {
		t.Fatalf("dropping a far-ahead segment allocates %.1f times per insert, want 0", allocs)
	}
}

// TestBufferedStraddleTrims verifies a segment straddling the extent cap
// keeps its in-bound prefix.
func TestBufferedStraddleTrims(t *testing.T) {
	r := NewBufferedCap(128)
	var emitted []byte
	emit := func(s Segment) { emitted = append(emitted, s.Payload...) }
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := r.Insert(Segment{Seq: 0, Payload: payload, Orig: true}, emit); err != nil {
		t.Fatalf("straddling insert: %v", err)
	}
	if len(emitted) != 128 {
		t.Fatalf("emitted %d bytes, want the 128-byte in-bound prefix", len(emitted))
	}
	if r.Stats().Trimmed != 1 {
		t.Fatalf("Trimmed = %d, want 1", r.Stats().Trimmed)
	}
	if r.BufferedBytes() != 128 {
		t.Fatalf("BufferedBytes = %d, want 128", r.BufferedBytes())
	}
}

// budgetTracker is a test stand-in for the core's overload accountant.
type budgetTracker struct {
	limit int
	used  int
	sheds int
}

func (b *budgetTracker) hooks() BudgetHooks {
	return BudgetHooks{
		Reserve: func(n int) bool {
			if b.used+n > b.limit {
				return false
			}
			b.used += n
			return true
		},
		Release: func(n int) { b.used -= n },
		OnShed:  func(int) { b.sheds++ },
	}
}

// TestLiteBudgetRefusesCloserSegment: when the budget is exhausted and
// every parked segment is closer to the delivery point than the
// newcomer, the newcomer is refused with ErrBudget.
func TestLiteBudgetRefusesCloserSegment(t *testing.T) {
	b := &budgetTracker{limit: 100}
	r := NewLite(0)
	r.SetBudget(b.hooks())
	emit := func(Segment) {}

	if err := r.Insert(Segment{Seq: 0, Payload: make([]byte, 10), Orig: true}, emit); err != nil {
		t.Fatalf("in-order: %v", err)
	}
	// Park 80 bytes close to the delivery point.
	if err := r.Insert(Segment{Seq: 1000, Payload: make([]byte, 80), Orig: true}, emit); err != nil {
		t.Fatalf("first park: %v", err)
	}
	// A farther segment needing more than the remaining 20 bytes must be
	// refused: shedding would drop closer (more valuable) state.
	err := r.Insert(Segment{Seq: 2000, Payload: make([]byte, 50), Orig: true}, emit)
	if err != ErrBudget {
		t.Fatalf("farther insert: err = %v, want ErrBudget", err)
	}
	if r.Stats().Dropped != 1 || r.Stats().Shed != 0 {
		t.Fatalf("Dropped=%d Shed=%d, want 1/0", r.Stats().Dropped, r.Stats().Shed)
	}
	if b.used != 80 {
		t.Fatalf("budget used = %d, want 80", b.used)
	}
}

// TestLiteBudgetShedsFartherSegment: a closer newcomer evicts the
// farthest-ahead parked segment to make room.
func TestLiteBudgetShedsFartherSegment(t *testing.T) {
	b := &budgetTracker{limit: 100}
	r := NewLite(0)
	r.SetBudget(b.hooks())
	emit := func(Segment) {}
	released := 0

	if err := r.Insert(Segment{Seq: 0, Payload: make([]byte, 10), Orig: true}, emit); err != nil {
		t.Fatalf("in-order: %v", err)
	}
	far := Segment{Seq: 5000, Payload: make([]byte, 80), Orig: true, Release: freeFunc(func() { released++ })}
	if err := r.Insert(far, emit); err != nil {
		t.Fatalf("far park: %v", err)
	}
	// Closer segment that doesn't fit alongside: the far one is shed.
	if err := r.Insert(Segment{Seq: 500, Payload: make([]byte, 60), Orig: true}, emit); err != nil {
		t.Fatalf("close park should shed and succeed: %v", err)
	}
	if r.Stats().Shed != 1 || b.sheds != 1 {
		t.Fatalf("Shed=%d OnShed=%d, want 1/1", r.Stats().Shed, b.sheds)
	}
	if released != 1 {
		t.Fatalf("shed segment's Release called %d times, want 1", released)
	}
	if b.used != 60 {
		t.Fatalf("budget used = %d, want 60 (far segment's 80 released)", b.used)
	}
	if r.Buffered() != 1 {
		t.Fatalf("Buffered = %d, want 1", r.Buffered())
	}
}

// TestLiteBudgetBalancedOnDrain: reservations are returned when holes
// fill and parked segments drain.
func TestLiteBudgetBalancedOnDrain(t *testing.T) {
	b := &budgetTracker{limit: 1 << 20}
	r := NewLite(0)
	r.SetBudget(b.hooks())
	var got []byte
	emit := func(s Segment) { got = append(got, s.Payload...) }

	if err := r.Insert(Segment{Seq: 0, Payload: []byte("ab"), Orig: true}, emit); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(Segment{Seq: 4, Payload: []byte("ef"), Orig: true}, emit); err != nil {
		t.Fatal(err)
	}
	if b.used != 2 {
		t.Fatalf("parked budget = %d, want 2", b.used)
	}
	if err := r.Insert(Segment{Seq: 2, Payload: []byte("cd"), Orig: true}, emit); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcdef" {
		t.Fatalf("stream = %q, want abcdef", got)
	}
	if b.used != 0 {
		t.Fatalf("budget used after drain = %d, want 0", b.used)
	}
}

// TestLiteBudgetBalancedOnFlushAll: teardown releases every reservation.
func TestLiteBudgetBalancedOnFlushAll(t *testing.T) {
	b := &budgetTracker{limit: 1 << 20}
	r := NewLite(0)
	r.SetBudget(b.hooks())
	emit := func(Segment) {}

	if err := r.Insert(Segment{Seq: 0, Payload: []byte("x"), Orig: true}, emit); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 10; i++ {
		if err := r.Insert(Segment{Seq: 100 + 10*i, Payload: make([]byte, 5), Orig: true}, emit); err != nil {
			t.Fatal(err)
		}
	}
	if b.used != 50 {
		t.Fatalf("parked budget = %d, want 50", b.used)
	}
	r.FlushAll(emit)
	if b.used != 0 {
		t.Fatalf("budget used after FlushAll = %d, want 0", b.used)
	}
	if r.Buffered() != 0 {
		t.Fatalf("Buffered after FlushAll = %d, want 0", r.Buffered())
	}
}

// TestLiteBudgetReplacePath: a same-Seq retransmit that extends the
// parked original accounts only the delta.
func TestLiteBudgetReplacePath(t *testing.T) {
	b := &budgetTracker{limit: 100}
	r := NewLite(0)
	r.SetBudget(b.hooks())
	emit := func(Segment) {}

	if err := r.Insert(Segment{Seq: 0, Payload: []byte("x"), Orig: true}, emit); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(Segment{Seq: 100, Payload: make([]byte, 30), Orig: true}, emit); err != nil {
		t.Fatal(err)
	}
	// Longer retransmit of the same parked Seq: +20 delta.
	if err := r.Insert(Segment{Seq: 100, Payload: make([]byte, 50), Orig: true}, emit); err != nil {
		t.Fatal(err)
	}
	if b.used != 50 {
		t.Fatalf("budget used after replace = %d, want 50", b.used)
	}
	if r.Buffered() != 1 {
		t.Fatalf("Buffered = %d, want 1", r.Buffered())
	}
}

// TestLiteSeqJumpBudgetBounded drives the adversarial seq-jump shape
// straight into Lite: segments at ever-larger ~1 GiB offsets must never
// pin more than the budget, with the overflow refused or shed.
func TestLiteSeqJumpBudgetBounded(t *testing.T) {
	const limit = 4096
	b := &budgetTracker{limit: limit}
	r := NewLite(0)
	r.SetBudget(b.hooks())
	emit := func(Segment) {}

	if err := r.Insert(Segment{Seq: 0, Payload: make([]byte, 100), Orig: true}, emit); err != nil {
		t.Fatal(err)
	}
	seq := uint32(100)
	for i := 0; i < 64; i++ {
		seq += 1 << 26 // jumps that wrap the 32-bit space repeatedly
		_ = r.Insert(Segment{Seq: seq, Payload: make([]byte, 1448), Orig: true}, emit)
		if b.used > limit {
			t.Fatalf("iteration %d: budget used %d exceeds limit %d", i, b.used, limit)
		}
		if got := r.BufferedBytes(); got != b.used {
			t.Fatalf("iteration %d: BufferedBytes %d != budget used %d", i, got, b.used)
		}
	}
	st := r.Stats()
	if st.Dropped+st.Shed == 0 {
		t.Fatal("seq-jump flood never tripped the budget")
	}
	r.FlushAll(emit)
	if b.used != 0 {
		t.Fatalf("budget used after FlushAll = %d, want 0", b.used)
	}
}
