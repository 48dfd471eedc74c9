// Package nic simulates a commodity "dumb" NIC of the ConnectX-5 class:
// a validated flow-rule table, symmetric receive-side scaling with a
// configurable redirection table, and bounded per-queue descriptor rings.
//
// It is the hardware substitution described in DESIGN.md — it exercises
// exactly the interfaces Retina needs from a real device (rte_flow-style
// rule validation, RSS dispatch, drop accounting) without the device.
package nic

import (
	"bytes"
	"sync/atomic"

	"retina/internal/layers"
)

// ToeplitzKeyLen is the conventional RSS hash key length (40 bytes
// covers the IPv6 five-tuple input).
const ToeplitzKeyLen = 40

// SymmetricKey returns the 0x6d5a-repeating Toeplitz key. With this key
// the Toeplitz hash is symmetric — hash(src→dst) == hash(dst→src) — so
// both directions of a connection land on the same receive queue and
// per-core connection tables need no cross-core state (Woo & Park;
// paper §5.1).
func SymmetricKey() []byte {
	key := make([]byte, ToeplitzKeyLen)
	for i := 0; i < len(key); i += 2 {
		key[i] = 0x6d
		key[i+1] = 0x5a
	}
	return key
}

// maxRSSInput is the longest RSS hash input: the IPv6 four-tuple
// (two 16-byte addresses and two 2-byte ports).
const maxRSSInput = 36

// toeplitzTable is the Toeplitz hash of one key, precomputed per input
// byte: rows[i][b] is the 32-bit contribution of byte value b at input
// offset i, so hashing n bytes is n table lookups XORed together.
// Offsets whose key windows coincide share one row; the symmetric key
// repeats every 16 bits, so all its rows are one of two.
type toeplitzTable struct {
	rows []*[256]uint32
}

// symmetricRSS is the table of SymmetricKey over the longest RSS input,
// shared by every NIC and by HashTuple. It is read-only after init.
var symmetricRSS = newToeplitzTable(symmetricKey, maxRSSInput)

// symmetricKey is SymmetricKey's result, kept to recognise the key in
// Toeplitz.
var symmetricKey = SymmetricKey()

// newToeplitzTable builds the table of key for inputs of up to n bytes.
// Key bits past the end of key count as zero.
func newToeplitzTable(key []byte, n int) *toeplitzTable {
	t := &toeplitzTable{rows: make([]*[256]uint32, n)}
	built := make(map[[8]uint32]*[256]uint32)
	for i := range t.rows {
		// The key bits at and after input bit 8i; input bit 7-k of the
		// byte (value 1<<(7-k)) selects the 32-bit window at bit 8i+k.
		var win uint64
		for j := i; j < i+8; j++ {
			win <<= 8
			if j < len(key) {
				win |= uint64(key[j])
			}
		}
		var windows [8]uint32
		for k := range windows {
			windows[k] = uint32(win << k >> 32)
		}
		row := built[windows]
		if row == nil {
			row = new([256]uint32)
			for k, w := range windows {
				row[0x80>>k] = w
			}
			// The hash is linear in the input: a byte's contribution is
			// its lowest set bit's window XOR the rest of the byte's.
			for b := 1; b < 256; b++ {
				if low := b & -b; b != low {
					row[b] = row[b&^low] ^ row[low]
				}
			}
			built[windows] = row
		}
		t.rows[i] = row
	}
	return t
}

// hash computes the Toeplitz hash of data; len(data) must not exceed the
// table's input length. It stays out of line: inlined into NIC.deliver,
// it slowed the frames deliver drops before RSS (offloaded flows) by
// about 4% on the video_offload benchmark (2-vCPU Xeon).
//
//go:noinline
func (t *toeplitzTable) hash(data []byte) uint32 {
	rows := t.rows[:len(data)]
	var h uint32
	for i, b := range data {
		h ^= rows[i][b]
	}
	return h
}

// Toeplitz computes the Toeplitz hash of data under key: for each set
// bit of the input at offset i, the 32-bit window of the key starting at
// bit i is XORed into the result. Key bits past the end of key count as
// zero. The symmetric key hashes through the table every NIC uses; any
// other key builds its table per call.
func Toeplitz(key, data []byte) uint32 {
	t := symmetricRSS
	if len(data) > len(t.rows) || !bytes.Equal(key, symmetricKey) {
		t = newToeplitzTable(key, len(data))
	}
	return t.hash(data)
}

// RSSInput serializes the RSS hash input for a parsed packet: source
// address, destination address, source port, destination port — the
// standard TCP/UDP four-tuple input. It returns false for packets
// without an L3 header (non-IP frames are not RSS-hashed; the NIC sends
// them to queue 0). buf must have capacity for 36 bytes.
func RSSInput(p *layers.Parsed, buf []byte) ([]byte, bool) {
	out := buf[:0]
	switch p.L3 {
	case layers.LayerTypeIPv4:
		out = append(out, p.IP4.SrcIP[:]...)
		out = append(out, p.IP4.DstIP[:]...)
	case layers.LayerTypeIPv6:
		out = append(out, p.IP6.SrcIP[:]...)
		out = append(out, p.IP6.DstIP[:]...)
	default:
		return nil, false
	}
	switch p.L4 {
	case layers.LayerTypeTCP:
		out = append(out, byte(p.TCP.SrcPort>>8), byte(p.TCP.SrcPort),
			byte(p.TCP.DstPort>>8), byte(p.TCP.DstPort))
	case layers.LayerTypeUDP:
		out = append(out, byte(p.UDP.SrcPort>>8), byte(p.UDP.SrcPort),
			byte(p.UDP.DstPort>>8), byte(p.UDP.DstPort))
	}
	return out, true
}

// Reta is an RSS redirection table: hash values index (mod table size)
// into queue assignments. The special value SinkQueue marks entries
// redirected to a sink that drops everything — the flow-sampling
// technique of §6.1 used to titrate the effective ingress rate without
// breaking flow consistency.
type Reta struct {
	// entries and assigned hold int16 queue numbers in atomic words: the
	// producer rewrites them on Assign while the rebalancer and the
	// control plane read them from their own goroutines.
	entries []atomic.Int32
	// assigned mirrors entries minus sinking: it remembers each
	// bucket's queue assignment even while the entry is diverted to the
	// sink, so SetSinkFraction can restore rebalanced placements instead
	// of clobbering them back to the round-robin default.
	assigned []atomic.Int32
	queues   int
}

// SinkQueue marks a redirection-table entry whose flows are discarded.
const SinkQueue int16 = -1

// DefaultRetaSize matches common hardware (128 entries).
const DefaultRetaSize = 128

// NewReta builds a redirection table of size entries distributing flows
// round-robin over queues.
func NewReta(size, queues int) *Reta {
	if size <= 0 || queues <= 0 {
		panic("nic: reta size and queues must be positive")
	}
	r := &Reta{entries: make([]atomic.Int32, size), assigned: make([]atomic.Int32, size), queues: queues}
	for i := range r.entries {
		r.entries[i].Store(int32(i % queues))
		r.assigned[i].Store(int32(i % queues))
	}
	return r
}

// Lookup maps an RSS hash to a queue, or SinkQueue.
func (r *Reta) Lookup(hash uint32) int16 {
	return int16(r.entries[hash%uint32(len(r.entries))].Load())
}

// Size reports the table's entry count.
func (r *Reta) Size() int { return len(r.entries) }

// Queues reports the queue count the table distributes over.
func (r *Reta) Queues() int { return r.queues }

// Entry reports bucket's live dispatch target (SinkQueue if sunk).
func (r *Reta) Entry(bucket int) int16 { return int16(r.entries[bucket].Load()) }

// Assigned reports bucket's queue assignment, looking through any sink
// diversion: the queue the bucket dispatches to (or would, once
// un-sunk).
func (r *Reta) Assigned(bucket int) int16 { return int16(r.assigned[bucket].Load()) }

// Assign moves bucket to queue. A sunk bucket keeps sinking — only its
// remembered assignment changes, taking effect when the sink fraction
// releases it. Assign is the rebalancer's primitive; on the live NIC it
// must only run on the producer (see NIC.RequestAssign), which orders
// it against in-flight ring enqueues.
func (r *Reta) Assign(bucket int, queue int16) {
	r.assigned[bucket].Store(int32(queue))
	if r.Entry(bucket) != SinkQueue {
		r.entries[bucket].Store(int32(queue))
	}
}

// Snapshot copies the live entries into out (allocating when out is
// short) and returns it.
func (r *Reta) Snapshot(out []int16) []int16 {
	if cap(out) < len(r.entries) {
		out = make([]int16, len(r.entries))
	}
	out = out[:len(r.entries)]
	for i := range out {
		out[i] = r.Entry(i)
	}
	return out
}

// SetSinkFraction redirects approximately frac of the table's entries to
// the sink, deterministically (every k-th entry), preserving flow
// consistency: a four-tuple is either always sunk or never.
func (r *Reta) SetSinkFraction(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	want := int(frac*float64(len(r.entries)) + 0.5)
	n := len(r.entries)
	for i := 0; i < n; i++ {
		// Evenly spread: entry i is sunk iff the cumulative quota
		// advances at i, which yields exactly `want` sunk entries.
		// Un-sunk entries restore the remembered assignment rather than
		// the round-robin default, so changing the sink fraction never
		// undoes a rebalanced placement.
		if ((i+1)*want)/n > (i*want)/n {
			r.entries[i].Store(int32(SinkQueue))
		} else {
			r.entries[i].Store(r.assigned[i].Load())
		}
	}
}

// RSSInputTuple serializes the RSS hash input for a five-tuple exactly
// as RSSInput does for the parsed packet the tuple came from: source
// address, destination address, source port, destination port, with
// IPv4 addresses at their wire length (4 bytes). It returns false for
// protocols the NIC does not hash (no TCP/UDP ports). buf must have
// capacity for 36 bytes.
func RSSInputTuple(ft layers.FiveTuple, buf []byte) ([]byte, bool) {
	switch ft.Proto {
	case layers.IPProtoTCP, layers.IPProtoUDP:
	default:
		return nil, false
	}
	out := buf[:0]
	if ft.IsIPv6 {
		out = append(out, ft.SrcIP[:]...)
		out = append(out, ft.DstIP[:]...)
	} else {
		out = append(out, ft.SrcIP[:4]...)
		out = append(out, ft.DstIP[:4]...)
	}
	out = append(out, byte(ft.SrcPort>>8), byte(ft.SrcPort),
		byte(ft.DstPort>>8), byte(ft.DstPort))
	return out, true
}

// HashTuple computes the symmetric-key Toeplitz hash of a five-tuple —
// the hash the device would compute for a packet of that flow. ok is
// false for tuples the NIC does not hash.
func HashTuple(ft layers.FiveTuple) (hash uint32, ok bool) {
	var buf [maxRSSInput]byte
	in, ok := RSSInputTuple(ft, buf[:])
	if !ok {
		return 0, false
	}
	return symmetricRSS.hash(in), true
}

// BucketOf reports which bucket of a retaSize-entry redirection table a
// five-tuple's flow indexes. With the symmetric key both directions of
// the tuple land in the same bucket, so moving a bucket moves whole
// connections (the flow-consistency property the migration protocol
// relies on). ok is false for tuples the NIC does not hash.
func BucketOf(ft layers.FiveTuple, retaSize int) (bucket int, ok bool) {
	h, ok := HashTuple(ft)
	if !ok {
		return 0, false
	}
	return int(h % uint32(retaSize)), true
}

// SinkFraction reports the fraction of entries currently sunk.
func (r *Reta) SinkFraction() float64 {
	n := 0
	for i := range r.entries {
		if r.Entry(i) == SinkQueue {
			n++
		}
	}
	return float64(n) / float64(len(r.entries))
}
