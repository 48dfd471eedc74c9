package filter_test

import (
	"testing"

	"retina/internal/filter"
	"retina/internal/layers"
	"retina/internal/traffic"
)

// benchFilters are the packet filters BenchmarkPacketFilter times: the
// match-all program, a connection-stage protocol, a port disjunction, an
// address prefix and a header comparison joined to a protocol.
var benchFilters = []struct{ name, src string }{
	{"all", ""},
	{"tls", "tls"},
	{"ports", "tcp.port = 443 or udp.port = 53"},
	{"prefix", "ipv4.addr in 10.0.0.0/8"},
	{"ttl_tcp", "ipv4.ttl > 5 and tcp"},
}

// campusParsed decodes n frames of the campus mix once, outside any
// timed loop.
func campusParsed(tb testing.TB, n int) []layers.Parsed {
	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 3, Flows: 400, Gbps: 10})
	out := make([]layers.Parsed, 0, n)
	for len(out) < n {
		frame, _, ok := src.Next()
		if !ok {
			break
		}
		var p layers.Parsed
		if p.DecodeLayers(frame) == nil {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		tb.Fatal("campus mix produced no decodable frame")
	}
	return out
}

// BenchmarkPacketFilter times the software packet filter per decoded
// campus frame (one op is one frame), both standalone through
// Program.PacketWith and as a one-slot MultiProgram through PacketInto,
// the form the cores evaluate.
func BenchmarkPacketFilter(b *testing.B) {
	pkts := campusParsed(b, 1024)
	for _, f := range benchFilters {
		prog := filter.MustCompile(f.src, filter.Options{})
		b.Run(f.name+"/PacketWith", func(b *testing.B) {
			var s filter.PacketScratch
			hits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				if prog.PacketWith(&pkts[j], &s).Match {
					hits++
				}
				if j++; j == len(pkts) {
					j = 0
				}
			}
			sink = hits
		})
		b.Run(f.name+"/PacketInto", func(b *testing.B) {
			mp, err := filter.NewMultiProgram(1, []*filter.SubProgram{{ID: 1, Name: f.name, Prog: prog}})
			if err != nil {
				b.Fatal(err)
			}
			var s filter.PacketScratch
			row := make([]filter.Result, 1)
			var mask uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				mask += mp.PacketInto(&pkts[j], &s, row)
				if j++; j == len(pkts) {
					j = 0
				}
			}
			sink = int(mask)
		})
	}
}

// sink keeps benchmark results live.
var sink int
