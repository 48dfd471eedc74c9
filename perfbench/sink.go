package main

import (
	"encoding/binary"

	"retina"
)

// sink is the subscription callback's state: how many records arrived
// and an order-independent content hash of them (the sum of per-record
// FNV-1a hashes). With timed set — the traced run with spans on — it
// also records the callback's own span.
type sink struct {
	count uint64
	hash  uint64
	timed bool
	cbNs  int64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWords continues FNV-1a hash h over b's length, then over b as
// little-endian 8-byte words (the tail padded with zeros).
func fnvWords(h uint64, b []byte) uint64 {
	h = (h ^ uint64(len(b))) * fnvPrime
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * fnvPrime
		b = b[8:]
	}
	var tail [8]byte
	copy(tail[:], b)
	return (h ^ binary.LittleEndian.Uint64(tail[:])) * fnvPrime
}

// packetHashBytes bounds the bytes hashed per delivered packet: enough
// for Ethernet, IPv6 and TCP headers up to the sequence number, so a
// lost, duplicated or misdirected frame changes the hash while the
// callback stays cheap next to the pipeline.
const packetHashBytes = 64

func (s *sink) onPacket(p *retina.Packet) {
	var t0 int64
	if s.timed {
		t0 = now()
	}
	d := p.Data
	h := fnvWords(fnvOffset, d[:min(len(d), packetHashBytes)])
	s.hash += (h ^ uint64(len(d))) * fnvPrime
	s.count++
	if s.timed {
		s.cbNs += now() - t0
	}
}

func (s *sink) onTLS(h *retina.TLSHandshake, ev *retina.SessionEvent) {
	var t0 int64
	if s.timed {
		t0 = now()
	}
	x := fnvWords(fnvOffset, []byte(h.SNI))
	x = fnvWords(x, h.ClientRandom[:])
	x = fnvWords(x, h.ServerRandom[:])
	var fields [6]byte
	binary.LittleEndian.PutUint16(fields[0:], h.ClientVersion)
	binary.LittleEndian.PutUint16(fields[2:], h.ServerVersion)
	binary.LittleEndian.PutUint16(fields[4:], h.Cipher)
	x = fnvWords(x, fields[:])
	t := ev.Tuple
	x = fnvWords(x, t.SrcIP[:])
	x = fnvWords(x, t.DstIP[:])
	var ports [5]byte
	binary.LittleEndian.PutUint16(ports[0:], t.SrcPort)
	binary.LittleEndian.PutUint16(ports[2:], t.DstPort)
	ports[4] = t.Proto
	s.hash += fnvWords(x, ports[:])
	s.count++
	if s.timed {
		s.cbNs += now() - t0
	}
}

func (w *workload) subscription(s *sink) *retina.Subscription {
	if w.tls {
		return retina.TLSHandshakes(s.onTLS)
	}
	return retina.Packets(s.onPacket)
}
