package conntrack

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"

	"retina/internal/layers"
)

// The flat index is an open-addressing hash table with cache-line-sized
// buckets, following Ros-Giralt et al. on data structures for
// high-performance network analysis: connection lookup is the per-packet
// hot path, so the index is laid out to touch at most two cache lines on
// a hit — one 64-byte bucket (8 tag bytes + 8 slab references) and the
// head of the Conn itself — and Conn structs live in slab chunks
// recycled through a freelist, so steady-state packet processing
// allocates nothing.
//
// Probing is linear over whole buckets with a hard bound
// (maxProbeBuckets); an insert that cannot place within the bound, or
// that would push the load factor past 3/4, rebuilds the bucket array at
// double the size. Conn structs never move on rehash — only the bucket
// array (tags + refs) is rebuilt — so *Conn pointers held by callers
// stay valid for the connection's lifetime.
//
// Deletion clears the slot's tag but leaves the bucket's overflow flag
// set: the flag records "an insert once probed past this bucket while it
// was full", which is exactly the condition under which a lookup must
// keep probing. Flags are conservative (they only cause extra probes,
// never a miss) and are recomputed from scratch on rehash.
//
// The timer wheel parks entries by connection ID. IDs are never reused,
// unlike slab slots, so a stale wheel entry must never resolve through
// slab storage directly; a second open-addressing table (idIndex) maps
// live IDs to slab refs. ID lookups happen per timer event and per
// eviction scan — per connection lifetime, not per packet.

const (
	slotsPerBucket = 8
	// maxProbeBuckets bounds how far a key may land from its home
	// bucket. Inserts that exceed it force a rehash, so lookups never
	// probe more than this many buckets.
	maxProbeBuckets = 8
	// flatMinBuckets is the smallest bucket array (512 slots).
	flatMinBuckets = 64
	// slabChunkConns is the Conn count per slab chunk (power of two so
	// ref decomposition compiles to shifts).
	slabChunkConns = 1024
	// tagLive is OR-ed into every tag so an occupied slot's tag is never
	// zero (zero means empty).
	tagLive = 0x80
)

// flatBucket is one 64-byte probe unit: 8 one-byte tags (7 hash bits +
// the live bit), an overflow flag, padding, and 8 slab references.
type flatBucket struct {
	tags [slotsPerBucket]uint8
	ovf  uint8
	_    [23]byte
	refs [slotsPerBucket]uint32
}

type flatIndex struct {
	buckets []flatBucket
	mask    uint64
	live    int

	ids idIndex

	// slab holds Conn storage in fixed chunks that are never moved or
	// freed; free is the recycled-slot list. A freed Conn's memory is
	// left intact until its slot is reused (and zeroed at allocation):
	// the core may still read a connection's fields in the tail of the
	// packet that removed it.
	slab [][]Conn
	free []uint32

	// Atomic mirrors for monitoring goroutines (the index itself is
	// single-owner, like the rest of the table).
	liveA      atomic.Uint64
	slotsA     atomic.Uint64
	probeMaxA  atomic.Uint64
	rehashesA  atomic.Uint64
	slabBytesA atomic.Uint64
}

// newFlatIndex sizes the bucket array for maxConns at 75% load when a
// bound is configured, so a bounded table never rehashes in steady
// state.
func newFlatIndex(maxConns int) *flatIndex {
	buckets := flatMinBuckets
	if maxConns > 0 {
		for buckets*slotsPerBucket*3 < maxConns*4 {
			buckets *= 2
		}
	}
	f := &flatIndex{}
	f.buckets = make([]flatBucket, buckets)
	f.mask = uint64(buckets - 1)
	f.slotsA.Store(uint64(buckets * slotsPerBucket))
	f.ids.init()
	return f
}

// The flat index reads a five-tuple in place as five little-endian
// words: the source address, the destination address, and a meta word
// holding SrcPort, DstPort, Proto, IsIPv6 and the zero padding in
// memory order. The word view relies on this layout; the assertion
// turns a field change into a build error instead of a silent change
// of every hash and key compare.
var _ [0]struct{} = [unsafe.Sizeof(layers.FiveTuple{}) - 40 |
	unsafe.Offsetof(layers.FiveTuple{}.SrcIP) |
	unsafe.Offsetof(layers.FiveTuple{}.DstIP) - 16 |
	unsafe.Offsetof(layers.FiveTuple{}.SrcPort) - 32 |
	unsafe.Offsetof(layers.FiveTuple{}.DstPort) - 34 |
	unsafe.Offsetof(layers.FiveTuple{}.Proto) - 36 |
	unsafe.Offsetof(layers.FiveTuple{}.IsIPv6) - 37]struct{}{}

// tupleWords loads ft as its five words (see the layout assertion).
func tupleWords(ft *layers.FiveTuple) (s0, s1, d0, d1, meta uint64) {
	b := (*[40]byte)(unsafe.Pointer(ft))
	le := binary.LittleEndian
	return le.Uint64(b[0:8]), le.Uint64(b[8:16]), le.Uint64(b[16:24]), le.Uint64(b[24:32]), le.Uint64(b[32:40])
}

// swapPorts exchanges SrcPort and DstPort inside a meta word: bytes
// 0-1 and 2-3 of the word trade places.
func swapPorts(meta uint64) uint64 {
	return meta&^0xFFFFFFFF | meta<<16&0xFFFF0000 | meta>>16&0xFFFF
}

// flatHash mixes the canonical five-tuple into 64 bits, word-at-a-time
// (xor-multiply-shift per word, murmur3 finalizer constants). The low 8
// bits feed the slot tag, bits 8+ select the home bucket.
func flatHash(k *layers.FiveTuple) uint64 {
	s0, s1, d0, d1, _ := tupleWords(k)
	return mixKey(s0, s1, d0, d1, k.SrcPort, k.DstPort, k.Proto, k.IsIPv6)
}

// mixKey is flatHash over a canonical tuple given as its address words
// and fields, so a lookup can hash either orientation in place.
func mixKey(s0, s1, d0, d1 uint64, sport, dport uint16, proto uint8, v6 bool) uint64 {
	meta := uint64(sport)<<24 | uint64(dport)<<8 | uint64(proto)
	if v6 {
		meta |= 1 << 40
	}
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range [5]uint64{s0, s1, d0, d1, meta} {
		h ^= w
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 33
	}
	return h
}

func (f *flatIndex) conn(ref uint32) *Conn {
	return &f.slab[ref/slabChunkConns][ref%slabChunkConns]
}

// find resolves ft in either direction. It decides ft's orientation
// once, hashes the canonical word order in place and compares each
// candidate's key as five words, so a packet from the responder side
// costs no reversed copy of its tuple. h and canonical come back on a
// miss too: alloc places the new connection with that hash.
func (f *flatIndex) find(ft *layers.FiveTuple) (c *Conn, h uint64, canonical bool) {
	canonical = ft.IsCanonical()
	k0, k1, k2, k3, k4 := tupleWords(ft)
	sport, dport := ft.SrcPort, ft.DstPort
	if !canonical {
		k0, k1, k2, k3, k4 = k2, k3, k0, k1, swapPorts(k4)
		sport, dport = dport, sport
	}
	h = mixKey(k0, k1, k2, k3, sport, dport, ft.Proto, ft.IsIPv6)
	tag := uint8(h) | tagLive
	idx := (h >> 8) & f.mask
	for p := 0; p < maxProbeBuckets; p++ {
		b := &f.buckets[idx]
		for s := 0; s < slotsPerBucket; s++ {
			if b.tags[s] == tag {
				c := f.conn(b.refs[s])
				c0, c1, c2, c3, c4 := tupleWords(&c.ckey)
				if c0 == k0 && c1 == k1 && c2 == k2 && c3 == k3 && c4 == k4 {
					return c, h, canonical
				}
			}
		}
		if b.ovf == 0 {
			break
		}
		idx = (idx + 1) & f.mask
	}
	return nil, h, canonical
}

// alloc inserts key, whose flatHash is h, and returns its Conn, zeroed
// except for ckey and ID, taking a slot from the freelist or growing the
// slab by one chunk. The caller guarantees key is absent and id is
// fresh.
func (f *flatIndex) alloc(key layers.FiveTuple, h uint64, id uint64) *Conn {
	if (f.live+1)*4 > len(f.buckets)*slotsPerBucket*3 {
		f.grow(len(f.buckets) * 2)
	}
	ref := f.takeRef()
	for {
		if probe, ok := f.place(h, ref); ok {
			if uint64(probe) > f.probeMaxA.Load() {
				f.probeMaxA.Store(uint64(probe))
			}
			break
		}
		// Probe bound exceeded (local clustering): rebuild larger.
		f.grow(len(f.buckets) * 2)
	}
	f.live++
	f.liveA.Store(uint64(f.live))
	c := f.conn(ref)
	*c = Conn{ckey: key, ID: id}
	f.ids.insert(id, ref)
	return c
}

// place finds a free slot for (h, ref) within the probe bound, marking
// passed-over full buckets. Returns the 1-based probe length.
func (f *flatIndex) place(h uint64, ref uint32) (probe int, ok bool) {
	tag := uint8(h) | tagLive
	idx := (h >> 8) & f.mask
	for p := 0; p < maxProbeBuckets; p++ {
		b := &f.buckets[idx]
		for s := 0; s < slotsPerBucket; s++ {
			if b.tags[s] == 0 {
				b.tags[s] = tag
				b.refs[s] = ref
				return p + 1, true
			}
		}
		b.ovf = 1
		idx = (idx + 1) & f.mask
	}
	return 0, false
}

func (f *flatIndex) takeRef() uint32 {
	if n := len(f.free); n > 0 {
		ref := f.free[n-1]
		f.free = f.free[:n-1]
		return ref
	}
	chunk := make([]Conn, slabChunkConns)
	f.slab = append(f.slab, chunk)
	base := uint32(len(f.slab)-1) * slabChunkConns
	for i := slabChunkConns - 1; i >= 1; i-- {
		f.free = append(f.free, base+uint32(i))
	}
	f.slabBytesA.Add(uint64(slabChunkConns) * uint64(unsafe.Sizeof(Conn{})))
	return base
}

// remove clears c's slot if its key still resolves to exactly c and
// recycles the slab ref. The Conn's contents are not cleared here — see
// the slab comment above. Callers must not retain *Conn pointers past
// removal: once the slot is recycled a stale pointer aliases a new
// connection (the table's Remove contract).
func (f *flatIndex) remove(c *Conn) bool {
	h := flatHash(&c.ckey)
	tag := uint8(h) | tagLive
	idx := (h >> 8) & f.mask
	for p := 0; p < maxProbeBuckets; p++ {
		b := &f.buckets[idx]
		for s := 0; s < slotsPerBucket; s++ {
			if b.tags[s] == tag && f.conn(b.refs[s]) == c {
				b.tags[s] = 0
				f.ids.remove(c.ID)
				f.free = append(f.free, b.refs[s])
				f.live--
				f.liveA.Store(uint64(f.live))
				return true
			}
		}
		if b.ovf == 0 {
			return false
		}
		idx = (idx + 1) & f.mask
	}
	return false
}

func (f *flatIndex) byID(id uint64) *Conn {
	if ref, ok := f.ids.find(id); ok {
		return f.conn(ref)
	}
	return nil
}

// grow rebuilds the bucket array at newBuckets (doubling further if the
// rebuild itself hits the probe bound). Conns stay put; only tags and
// refs move, and overflow flags are recomputed from scratch.
func (f *flatIndex) grow(newBuckets int) {
	if newBuckets < flatMinBuckets {
		newBuckets = flatMinBuckets
	}
	for !f.tryRebuild(newBuckets) {
		newBuckets *= 2
	}
	f.rehashesA.Add(1)
	f.slotsA.Store(uint64(len(f.buckets) * slotsPerBucket))
}

func (f *flatIndex) tryRebuild(newBuckets int) bool {
	next := make([]flatBucket, newBuckets)
	old, oldMask := f.buckets, f.mask
	f.buckets, f.mask = next, uint64(newBuckets-1)
	for i := range old {
		b := &old[i]
		for s := 0; s < slotsPerBucket; s++ {
			if b.tags[s] == 0 {
				continue
			}
			c := f.conn(b.refs[s])
			if _, ok := f.place(flatHash(&c.ckey), b.refs[s]); !ok {
				f.buckets, f.mask = old, oldMask
				return false
			}
		}
	}
	return true
}

func (f *flatIndex) size() int { return f.live }

// each visits live connections in bucket order — deterministic for a
// given operation history, unlike the map oracle's randomized range
// order. Order-sensitive consumers (the pressure-eviction fallback)
// therefore reduce with order-independent minima.
func (f *flatIndex) each(fn func(*Conn)) {
	for i := range f.buckets {
		b := &f.buckets[i]
		for s := 0; s < slotsPerBucket; s++ {
			if b.tags[s] != 0 {
				fn(f.conn(b.refs[s]))
			}
		}
	}
}

func (f *flatIndex) stats() IndexStats {
	slots := f.slotsA.Load()
	st := IndexStats{
		Backend:   BackendFlat,
		Slots:     int(slots),
		Live:      int(f.liveA.Load()),
		MaxProbe:  f.probeMaxA.Load(),
		Rehashes:  f.rehashesA.Load(),
		SlabBytes: f.slabBytesA.Load(),
	}
	if slots > 0 {
		st.LoadFactor = float64(st.Live) / float64(slots)
	}
	return st
}

// check verifies the flat index's internal invariants: slot accounting,
// slab/freelist conservation, tag correctness, the probe-distance bound,
// id-index mirroring, and — critically — that every live key remains
// reachable (all buckets between a key's home and its slot carry the
// overflow flag a lookup needs to keep probing past them).
func (f *flatIndex) check() error {
	seen := make(map[uint32]bool)
	occupied := 0
	for i := range f.buckets {
		b := &f.buckets[i]
		for s := 0; s < slotsPerBucket; s++ {
			if b.tags[s] == 0 {
				continue
			}
			occupied++
			ref := b.refs[s]
			if int(ref) >= len(f.slab)*slabChunkConns {
				return fmt.Errorf("flat: ref %d beyond slab", ref)
			}
			if seen[ref] {
				return fmt.Errorf("flat: ref %d indexed twice", ref)
			}
			seen[ref] = true
			c := f.conn(ref)
			h := flatHash(&c.ckey)
			if want := uint8(h) | tagLive; b.tags[s] != want {
				return fmt.Errorf("flat: conn %d tag %#x != hash tag %#x", c.ID, b.tags[s], want)
			}
			home := (h >> 8) & f.mask
			dist := (uint64(i) - home) & f.mask
			if dist >= maxProbeBuckets {
				return fmt.Errorf("flat: conn %d at probe distance %d (bound %d)", c.ID, dist, maxProbeBuckets)
			}
			for d := uint64(0); d < dist; d++ {
				if f.buckets[(home+d)&f.mask].ovf == 0 {
					return fmt.Errorf("flat: conn %d unreachable — bucket %d on its probe path lacks the overflow flag",
						c.ID, (home+d)&f.mask)
				}
			}
			if got, _, _ := f.find(&c.ckey); got != c {
				return fmt.Errorf("flat: conn %d not found by its own key", c.ID)
			}
			if idRef, ok := f.ids.find(c.ID); !ok || idRef != ref {
				return fmt.Errorf("flat: conn %d missing or mismatched in id index", c.ID)
			}
		}
	}
	if occupied != f.live {
		return fmt.Errorf("flat: %d occupied slots but live=%d", occupied, f.live)
	}
	if f.ids.live != f.live {
		return fmt.Errorf("flat: id index holds %d entries but live=%d", f.ids.live, f.live)
	}
	if got, want := len(f.free)+f.live, len(f.slab)*slabChunkConns; got != want {
		return fmt.Errorf("flat: freelist %d + live %d != slab capacity %d", len(f.free), f.live, want)
	}
	for _, ref := range f.free {
		if seen[ref] {
			return fmt.Errorf("flat: ref %d both live and free", ref)
		}
	}
	return nil
}

// idIndex is a flat open-addressing map from connection ID to slab ref:
// linear probing, power-of-two capacity, backward-shift deletion
// (Knuth's algorithm R) so probe chains stay tombstone-free. IDs start
// at 1, so 0 marks an empty slot.
type idSlot struct {
	id  uint64
	ref uint32
}

type idIndex struct {
	slots []idSlot
	mask  uint64
	live  int
}

const idMinSlots = 128

func (x *idIndex) init() {
	x.slots = make([]idSlot, idMinSlots)
	x.mask = idMinSlots - 1
}

// home spreads sequential IDs with a fibonacci multiply plus a fold of
// the high bits (the multiply alone leaves poor entropy in the low
// bits that the mask keeps).
func (x *idIndex) home(id uint64) uint64 {
	h := id * 0x9E3779B97F4A7C15
	return (h ^ h>>32) & x.mask
}

func (x *idIndex) insert(id uint64, ref uint32) {
	if (x.live+1)*4 > len(x.slots)*3 {
		x.grow()
	}
	i := x.home(id)
	for x.slots[i].id != 0 {
		i = (i + 1) & x.mask
	}
	x.slots[i] = idSlot{id: id, ref: ref}
	x.live++
}

func (x *idIndex) find(id uint64) (uint32, bool) {
	i := x.home(id)
	for x.slots[i].id != 0 {
		if x.slots[i].id == id {
			return x.slots[i].ref, true
		}
		i = (i + 1) & x.mask
	}
	return 0, false
}

func (x *idIndex) remove(id uint64) {
	i := x.home(id)
	for {
		if x.slots[i].id == 0 {
			return
		}
		if x.slots[i].id == id {
			break
		}
		i = (i + 1) & x.mask
	}
	// Backward shift: pull cluster members left over the hole so no
	// probe chain is broken.
	j := i
	for {
		j = (j + 1) & x.mask
		if x.slots[j].id == 0 {
			break
		}
		h := x.home(x.slots[j].id)
		if ((j - h) & x.mask) >= ((j - i) & x.mask) {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = idSlot{}
	x.live--
}

func (x *idIndex) grow() {
	old := x.slots
	x.slots = make([]idSlot, len(old)*2)
	x.mask = uint64(len(x.slots) - 1)
	x.live = 0
	for _, s := range old {
		if s.id != 0 {
			x.insert(s.id, s.ref)
		}
	}
}
