package experiments

import (
	"fmt"
	"io"
	"sync"

	"retina"
	"retina/internal/layers"
	"retina/internal/metrics"
	"retina/internal/telemetry"
	"retina/internal/traffic"
)

// packetSizeBounds are Figure 13's bucket upper bounds in bytes: bucket
// i counts frames of size ≤ bound i, and larger frames land in +Inf.
var packetSizeBounds = []float64{56, 218, 380, 542, 704, 866, 1028, 1190, 1352, 1514}

// Table2Result is the campus traffic characterization (Table 2 +
// Figure 13), measured by Retina applications over the generated mix —
// it doubles as the calibration check for the traffic generator.
type Table2Result struct {
	AvgPacketSize float64
	SizeHist      *telemetry.Histogram

	TCPConnFrac       float64
	UDPConnFrac       float64
	TCPStreamByteFrac float64
	SingleSYNFrac     float64
	IncompleteFrac    float64
	OOOFlowFrac       float64
	PktsPerConn       float64
	SynAckP99Sec      float64
	GapP99Sec         float64
}

// RunTable2 runs two Retina measurement apps (a packet-size profiler and
// a connection profiler) over the same generated campus traffic.
func RunTable2(seed int64, flows int) Table2Result {
	var res Table2Result

	// App 1: packet sizes (Figure 13).
	var mu sync.Mutex
	hist := telemetry.NewHistogramBuckets(packetSizeBounds)
	var sizeSum, sizeN uint64
	{
		cfg := baseConfig()
		cfg.Cores = 2
		rt := newRuntime(cfg, retina.Packets(func(p *retina.Packet) {
			mu.Lock()
			hist.Observe(float64(len(p.Data)))
			sizeSum += uint64(len(p.Data))
			sizeN++
			mu.Unlock()
		}))
		rt.Run(traffic.NewCampusMix(traffic.CampusConfig{Seed: seed, Flows: flows, Gbps: 40}))
	}
	res.SizeHist = hist
	if sizeN > 0 {
		res.AvgPacketSize = float64(sizeSum) / float64(sizeN)
	}

	// App 2: connection statistics over identical traffic (same seed).
	var tcp, udp, other, singleSYN, incomplete, ooo uint64
	var pkts, tcpBytes, allBytes uint64
	synack := &metrics.Series{}
	{
		cfg := baseConfig()
		cfg.Cores = 2
		rt := newRuntime(cfg, retina.Connections(func(r *retina.ConnRecord) {
			mu.Lock()
			defer mu.Unlock()
			switch r.Tuple.Proto {
			case layers.IPProtoTCP:
				tcp++
				tcpBytes += r.PayloadOrig + r.PayloadResp
				if r.SingleSYN() {
					singleSYN++
				} else if !r.FinSeen && !r.RstSeen {
					incomplete++
				}
				if r.OOOOrig+r.OOOResp > 0 {
					ooo++
				}
				if r.Established && r.SynSeen {
					synack.Add(float64(r.LastTick-r.FirstTick) / 1e6)
				}
			case layers.IPProtoUDP:
				udp++
			default:
				other++
			}
			pkts += r.PktsOrig + r.PktsResp
			allBytes += r.BytesOrig + r.BytesResp
		}))
		rt.Run(traffic.NewCampusMix(traffic.CampusConfig{Seed: seed, Flows: flows, Gbps: 40}))
	}

	total := tcp + udp + other
	if total > 0 {
		res.TCPConnFrac = float64(tcp) / float64(total)
		res.UDPConnFrac = float64(udp) / float64(total)
		res.PktsPerConn = float64(pkts) / float64(total)
	}
	if tcp > 0 {
		res.SingleSYNFrac = float64(singleSYN) / float64(tcp)
		nonSYN := tcp - singleSYN
		if nonSYN > 0 {
			res.IncompleteFrac = float64(incomplete) / float64(nonSYN)
			res.OOOFlowFrac = float64(ooo) / float64(nonSYN)
		}
	}
	if allBytes > 0 {
		res.TCPStreamByteFrac = float64(tcpBytes) / float64(allBytes)
	}
	res.SynAckP99Sec = synack.Percentile(99)
	return res
}

// PrintTable2 renders Table 2 and the Figure 13 histogram.
func PrintTable2(w io.Writer, r Table2Result) {
	fmt.Fprintln(w, "Table 2: campus traffic statistics (generator calibration check)")
	fmt.Fprintln(w)
	tbl := &Table{Header: []string{"characteristic", "measured", "paper"}}
	tbl.Add("Packet size (avg bytes)", F(r.AvgPacketSize), "895")
	tbl.Add("Fraction of TCP connections", Pct(r.TCPConnFrac), "69.7%")
	tbl.Add("Fraction of UDP connections", Pct(r.UDPConnFrac), "29.8%")
	tbl.Add("Fraction of single SYN connections", Pct(r.SingleSYNFrac), "65%")
	tbl.Add("Fraction of incomplete flows", Pct(r.IncompleteFrac), "4.6%")
	tbl.Add("Fraction of out-of-order flows", Pct(r.OOOFlowFrac), "6%")
	tbl.Add("Packets per connection (avg)", F(r.PktsPerConn), "121")
	tbl.Write(w)

	fmt.Fprintln(w, "\nFigure 13: packet size distribution")
	sizeTable(r.SizeHist).Write(w)
}

// sizeTable renders a packet-size histogram as Figure 13's rows: each
// bucket's upper bound ("+Inf" last) and its share of all frames.
func sizeTable(h *telemetry.Histogram) *Table {
	t := &Table{Header: []string{"size <=", "fraction"}}
	bounds, counts, total := h.Bounds(), h.BucketCounts(), h.Count()
	for i, n := range counts {
		label := "+Inf"
		if i < len(bounds) {
			label = F(bounds[i])
		}
		frac := 0.0
		if total > 0 {
			frac = float64(n) / float64(total)
		}
		t.Add(label, Pct(frac))
	}
	return t
}
