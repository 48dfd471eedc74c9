package retina

import "sync"
import "sync/atomic"

// AsyncStats counts events through an Async subscription wrapper.
type AsyncStats struct {
	Enqueued atomic.Uint64
	Dropped  atomic.Uint64 // queue full: event discarded, pipeline never blocked
	Executed atomic.Uint64
}

// Async wraps a subscription so its callback runs on a pool of worker
// goroutines fed through a bounded queue, instead of inline on the
// processing cores — the "alternative callback execution models" the
// paper leaves to future work (§5.3, §9).
//
// Semantics:
//   - Events are handed off by value; packet data is copied (inline
//     callbacks may alias framework buffers, workers may not).
//
// Ownership audit — why a shallow copy of each event type is safe to
// hand to another goroutine:
//   - Packet.Data aliases a pooled mbuf that is recycled after the
//     inline callback returns — under the burst datapath the free is
//     deferred to the end of the mbuf's burst (Core.ProcessBurst bulk-
//     frees the whole batch), which widens the window but not the
//     contract: the alias is still dead once delivery returns, so Data
//     remains the one field deep-copied here.
//   - ConnRecord contains only value fields (FiveTuple is fixed-size
//     arrays); the record is filled on delivery and never touched again.
//   - SessionEvent.Session is a pointer, but parsers construct a fresh
//     Session per drain and never write to one after DrainSessions
//     returns it (TLS guards every post-finish Parse with p.done; HTTP,
//     SMTP, DNS, QUIC and SSH allocate a new data struct per session).
//   - Both records, the event and the handshake stay valid forever, but
//     each shares an allocation with neighbours. A core hands out
//     ConnRecords and SessionEvents from batches, one slot per delivery,
//     never reused; a TLS handshake, its Session, and the bytes behind
//     its SNI and CipherSuites live inside the connection's parser,
//     written before delivery and never after. A retained record
//     therefore keeps its whole batch, and a retained handshake its
//     parser, alive — memory, not a race.
//   - StreamChunk.Data is copied out of framework buffers exactly once,
//     in emitStream, and ownership passes to the callback.
//
// TestAsyncNoRacesAcrossLevels locks this contract in under -race.
//   - When the queue is full the event is dropped and counted, never
//     blocking the data path — the same policy the inline model applies
//     at the receive rings.
//   - close() drains the queue and waits for the workers to finish;
//     call it after Run returns to observe every delivery.
//
// The tradeoff mirrors the paper's discussion: inline execution avoids
// cross-core communication entirely; asynchronous execution tolerates
// slow callbacks at the cost of a copy, a channel hop, and eventual
// drops under sustained overload.
func Async(sub *Subscription, queueDepth, workers int) (*Subscription, *AsyncStats, func()) {
	if queueDepth <= 0 {
		queueDepth = 1024
	}
	if workers <= 0 {
		workers = 1
	}
	stats := &AsyncStats{}
	queue := make(chan func(), queueDepth)

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fn := range queue {
				fn()
				stats.Executed.Add(1)
			}
		}()
	}

	enqueue := func(fn func()) {
		select {
		case queue <- fn:
			stats.Enqueued.Add(1)
		default:
			stats.Dropped.Add(1)
		}
	}

	out := &Subscription{Level: sub.Level, SessionProtos: sub.SessionProtos}
	if sub.OnPacket != nil {
		inner := sub.OnPacket
		out.OnPacket = func(p *Packet) {
			cp := *p
			cp.Data = append([]byte(nil), p.Data...)
			enqueue(func() { inner(&cp) })
		}
	}
	if sub.OnConn != nil {
		inner := sub.OnConn
		out.OnConn = func(r *ConnRecord) {
			cp := *r
			enqueue(func() { inner(&cp) })
		}
	}
	if sub.OnSession != nil {
		inner := sub.OnSession
		out.OnSession = func(ev *SessionEvent) {
			cp := *ev
			enqueue(func() { inner(&cp) })
		}
	}
	if sub.OnStream != nil {
		inner := sub.OnStream
		out.OnStream = func(ch *StreamChunk) {
			cp := *ch // chunk data is already callback-owned (copied once)
			enqueue(func() { inner(&cp) })
		}
	}

	stop := func() {
		close(queue)
		wg.Wait()
	}
	return out, stats, stop
}
