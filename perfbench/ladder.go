package main

import (
	"runtime"

	"retina/internal/filter"
	"retina/internal/layers"
	"retina/internal/mbuf"
	"retina/internal/nic"
)

// ladder times public functions of single layers alone, each over
// every frame of one trace.
type ladder struct {
	frames [][]byte
	parsed []layers.Parsed // decoded once, input to the rss and filter steps
	prog   *filter.Program
	pool   *mbuf.Pool
	// sink keeps results live so the timed loops cannot be elided.
	sink uint64
}

func newLadder(tr *trace, prog *filter.Program) *ladder {
	l := &ladder{
		frames: tr.frames,
		prog:   prog,
		pool:   mbuf.NewPool(burst, mbuf.DefaultBufSize),
	}
	l.parsed = make([]layers.Parsed, len(l.frames))
	for i, f := range l.frames {
		if l.parsed[i].DecodeLayers(f) != nil {
			l.parsed[i].Reset()
		}
	}
	return l
}

// rssKey is the device's symmetric Toeplitz key.
var rssKey = nic.SymmetricKey()

// step is one rung of the ladder: its metric name and one timed pass
// over every frame.
type step struct {
	metric string
	pass   func(l *ladder)
}

var ladderSteps = []step{
	{"layers.decode_ns_per_pkt", func(l *ladder) {
		var p layers.Parsed
		for _, f := range l.frames {
			if p.DecodeLayers(f) == nil {
				l.sink += uint64(p.NLayers)
			}
		}
	}},
	{"nic.rss_ns_per_pkt", func(l *ladder) {
		var scratch [36]byte
		for i := range l.parsed {
			if in, ok := nic.RSSInput(&l.parsed[i], scratch[:]); ok {
				l.sink += uint64(nic.Toeplitz(rssKey, in))
			}
		}
	}},
	{"mbuf.alloc_copy_ns_per_pkt", func(l *ladder) {
		var ms [burst]*mbuf.Mbuf
		for i := 0; i < len(l.frames); i += burst {
			chunk := l.frames[i:min(i+burst, len(l.frames))]
			n := l.pool.AllocBulk(ms[:len(chunk)])
			for k := 0; k < n; k++ {
				if ms[k].SetData(chunk[k]) == nil {
					l.sink += uint64(ms[k].Len())
				}
			}
			mbuf.FreeBulk(ms[:n])
		}
	}},
	{"filter.packet_ns_per_pkt", func(l *ladder) {
		var scratch filter.PacketScratch
		for i := range l.parsed {
			if l.prog.PacketWith(&l.parsed[i], &scratch).Match {
				l.sink++
			}
		}
	}},
}

// time runs one pass of the step and returns thread CPU nanoseconds per
// frame (see threadTime).
func (l *ladder) time(s step) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadTime()
	s.pass(l)
	return float64(threadTime()-t0) / float64(len(l.frames))
}
