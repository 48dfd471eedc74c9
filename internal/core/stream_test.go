package core

import (
	"bytes"
	"testing"

	"retina/internal/layers"
	"retina/internal/mbuf"
	"retina/internal/proto"
)

// collectStreams runs a byte-stream subscription and returns the
// reconstructed per-direction byte strings, keyed by originator flag.
func collectStreams(t *testing.T, filterSrc string, frames [][]byte) (orig, resp []byte, c *Core) {
	t.Helper()
	sub := &Subscription{Level: LevelStream, OnStream: func(ch *StreamChunk) {
		if ch.Orig {
			orig = append(orig, ch.Data...)
		} else {
			resp = append(resp, ch.Data...)
		}
	}}
	c = newTestCore(t, filterSrc, sub)
	feed(c, frames)
	return orig, resp, c
}

func TestByteStreamDelivery(t *testing.T) {
	f := newFlow(t, 41001, 7777)
	frames := f.handshake()
	frames = append(frames, f.pkt(true, layers.TCPAck, []byte("hello ")))
	frames = append(frames, f.pkt(true, layers.TCPAck, []byte("world")))
	frames = append(frames, f.pkt(false, layers.TCPAck, []byte("response bytes")))
	orig, resp, _ := collectStreams(t, "ipv4 and tcp", frames)
	if string(orig) != "hello world" {
		t.Fatalf("orig stream = %q", orig)
	}
	if string(resp) != "response bytes" {
		t.Fatalf("resp stream = %q", resp)
	}
}

func TestByteStreamReordersSegments(t *testing.T) {
	f := newFlow(t, 41002, 7777)
	frames := f.handshake()
	a := f.pkt(true, layers.TCPAck, []byte("AAAA"))
	b := f.pkt(true, layers.TCPAck, []byte("BBBB"))
	frames = append(frames, b, a) // out of order on the wire
	orig, _, _ := collectStreams(t, "ipv4 and tcp", frames)
	if string(orig) != "AAAABBBB" {
		t.Fatalf("stream = %q, want in-sequence bytes", orig)
	}
}

func TestByteStreamFilterVerdictBuffering(t *testing.T) {
	// Stream bytes must be withheld until the session filter passes,
	// then delivered from the beginning (paper's "wasteful to allocate
	// stream buffers ... until the session filter can verify").
	var chunks []*StreamChunk
	sub := &Subscription{Level: LevelStream, OnStream: func(ch *StreamChunk) {
		chunks = append(chunks, ch)
	}}
	c := newTestCore(t, `tls.sni matches '\.com$'`, sub)

	f := newFlow(t, 41003, 443)
	spec := proto.HelloSpec{SNI: "ok.example.com"}
	ch := proto.BuildClientHello(spec)
	frames := f.handshake()
	frames = append(frames, f.pkt(true, layers.TCPAck, ch))
	// No verdict yet: nothing delivered.
	feed(c, frames)
	if len(chunks) != 0 {
		t.Fatalf("chunks delivered before verdict: %d", len(chunks))
	}
	sh := proto.BuildServerHello(spec)
	feed(c, [][]byte{f.pkt(false, layers.TCPAck, sh)})
	if len(chunks) < 2 {
		t.Fatalf("buffered chunks not flushed on match: %d", len(chunks))
	}
	// The first flushed chunk must be the ClientHello bytes.
	if !bytes.Equal(chunks[0].Data, ch) {
		t.Fatal("first chunk is not the buffered ClientHello")
	}
	// Post-match data flows through directly.
	before := len(chunks)
	feed(c, [][]byte{f.pkt(false, layers.TCPAck, proto.BuildAppDataRecord(100))})
	if len(chunks) != before+1 {
		t.Fatalf("post-match chunk not delivered")
	}
}

func TestByteStreamRejectedConnDropsBytes(t *testing.T) {
	f := newFlow(t, 41004, 443)
	spec := proto.HelloSpec{SNI: "bad.example.org"}
	frames := f.handshake()
	frames = append(frames, f.pkt(true, layers.TCPAck, proto.BuildClientHello(spec)))
	frames = append(frames, f.pkt(false, layers.TCPAck, proto.BuildServerHello(spec)))
	frames = append(frames, f.pkt(false, layers.TCPAck, proto.BuildAppDataRecord(500)))
	orig, resp, c := collectStreams(t, `tls.sni matches '\.com$'`, frames)
	if len(orig)+len(resp) != 0 {
		t.Fatalf("rejected connection leaked %d stream bytes", len(orig)+len(resp))
	}
	if c.Stats().TombstonePkts == 0 {
		t.Fatal("rejected connection not tombstoned")
	}
}

func TestByteStreamUDP(t *testing.T) {
	var b layers.Builder
	pkt := b.Build(&layers.PacketSpec{
		SrcIP4: layers.ParseAddr4("10.1.0.1"), DstIP4: layers.ParseAddr4("8.8.8.8"),
		Proto: layers.IPProtoUDP, SrcPort: 5001, DstPort: 4000,
		Payload: []byte("datagram payload"),
	})
	orig, _, _ := collectStreams(t, "udp", [][]byte{pkt})
	if string(orig) != "datagram payload" {
		t.Fatalf("udp stream = %q", orig)
	}
}

func TestByteStreamBufferBounded(t *testing.T) {
	// A connection that never resolves its verdict must not buffer
	// stream bytes without bound.
	sub := &Subscription{Level: LevelStream, OnStream: func(*StreamChunk) {}}
	c := newTestCore(t, `tls.sni matches 'never'`, sub)
	f := newFlow(t, 41005, 443)
	frames := f.handshake()
	// TLS record header claiming a huge handshake, then data that never
	// completes it — the parser keeps waiting, the stream keeps flowing.
	frames = append(frames, f.pkt(true, layers.TCPAck, []byte{0x16, 0x03, 0x03, 0x3F, 0xFF}))
	feed(c, frames)
	payload := bytes.Repeat([]byte{0xAB}, 1400)
	for i := 0; i < 400; i++ { // ~560 KB total
		feed(c, [][]byte{f.pkt(true, layers.TCPAck, payload)})
	}
	mem := c.Table().MemoryBytes()
	if mem > 2*maxStreamBufBytes+64<<10 {
		t.Fatalf("stream buffering unbounded: %d bytes accounted", mem)
	}
}

func TestByteStreamMbufHygiene(t *testing.T) {
	pool := mbuf.NewPool(512, 2048)
	sub := &Subscription{Level: LevelStream, OnStream: func(*StreamChunk) {}}
	c := newTestCore(t, "ipv4 and tcp", sub)
	f := newFlow(t, 41006, 7777)
	frames := f.handshake()
	a := f.pkt(true, layers.TCPAck, []byte("AAAA"))
	b := f.pkt(true, layers.TCPAck, []byte("BBBB"))
	frames = append(frames, b, a)
	frames = append(frames, f.teardown()...)
	for i, fr := range frames {
		m, err := pool.AllocData(fr)
		if err != nil {
			t.Fatal(err)
		}
		m.RxTick = uint64(i+1) * 1000
		c.ProcessBurst([]*mbuf.Mbuf{m})
	}
	c.Flush()
	if pool.Available() != pool.Size() {
		t.Fatalf("leaked mbufs: %d of %d free", pool.Available(), pool.Size())
	}
}
