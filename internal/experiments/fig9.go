package experiments

import (
	"fmt"
	"io"
	"sync"

	"retina"
	"retina/internal/metrics"
	"retina/internal/traffic"
)

// Fig9Result holds the byte-count distributions of video sessions for
// one service.
type Fig9Result struct {
	Service  string
	Filter   string
	Sessions int
	UpMB     *metrics.Series
	DownMB   *metrics.Series
}

// Fig9Config parameterizes the video feature-extraction experiment.
type Fig9Config struct {
	Seed     int64
	Sessions int
	Gbps     float64
}

// DefaultFig9 mirrors §7.3.
func DefaultFig9() Fig9Config {
	return Fig9Config{Seed: 1, Sessions: 120, Gbps: 40}
}

// Fig9Filters are the exact filters of §7.3.
var Fig9Filters = map[string]string{
	"Netflix": `tcp.port = 443 and tls.sni ~ '(.+?\.)?nflxvideo\.net'`,
	"YouTube": `tcp.port = 443 and tls.sni ~ 'googlevideo'`,
}

// RunFig9 subscribes to connection records filtered by video service and
// aggregates per-session bytes up/down (a session is the set of flows
// from one client to the service, as in Bronzino et al.).
func RunFig9(cfg Fig9Config, scale float64) []Fig9Result {
	sessions := max(int(float64(cfg.Sessions)*scale), 10)
	var out []Fig9Result
	for _, svc := range []struct {
		name string
		kind traffic.VideoService
	}{{"Netflix", traffic.ServiceNetflix}, {"YouTube", traffic.ServiceYouTube}} {
		res := Fig9Result{
			Service: svc.name,
			Filter:  Fig9Filters[svc.name],
			UpMB:    &metrics.Series{},
			DownMB:  &metrics.Series{},
		}

		type agg struct{ up, down uint64 }
		perClient := map[[16]byte]*agg{}
		var mu sync.Mutex

		rcfg := baseConfig()
		rcfg.Filter = res.Filter
		rcfg.Cores = 2
		rcfg.PoolSize = 1 << 15
		rt := newRuntime(rcfg, retina.Connections(func(r *retina.ConnRecord) {
			mu.Lock()
			a := perClient[r.Tuple.SrcIP]
			if a == nil {
				a = &agg{}
				perClient[r.Tuple.SrcIP] = a
			}
			a.up += r.BytesOrig
			a.down += r.BytesResp
			mu.Unlock()
		}))
		src := traffic.NewVideoWorkload(cfg.Seed+int64(svc.kind), sessions, svc.kind, cfg.Gbps)
		rt.Run(src)

		for _, a := range perClient {
			res.UpMB.Add(float64(a.up) / 1e6)
			res.DownMB.Add(float64(a.down) / 1e6)
		}
		res.Sessions = len(perClient)
		out = append(out, res)
	}
	return out
}

// PrintFig9 renders CDF percentiles for both services.
func PrintFig9(w io.Writer, res []Fig9Result) {
	fmt.Fprintln(w, "Figure 9: CDF of bytes up/down for video sessions (Netflix vs YouTube)")
	fmt.Fprintln(w, "Paper shape: downstream spans ~0.1-10^3 MB and dwarfs upstream by ~2 orders.")
	fmt.Fprintln(w)
	tbl := &Table{Header: []string{"service", "dir", "sessions", "P10 MB", "P50 MB", "P90 MB", "P99 MB"}}
	for _, r := range res {
		tbl.Add(r.Service, "up", fmt.Sprint(r.Sessions),
			F(r.UpMB.Percentile(10)), F(r.UpMB.Percentile(50)),
			F(r.UpMB.Percentile(90)), F(r.UpMB.Percentile(99)))
		tbl.Add(r.Service, "down", fmt.Sprint(r.Sessions),
			F(r.DownMB.Percentile(10)), F(r.DownMB.Percentile(50)),
			F(r.DownMB.Percentile(90)), F(r.DownMB.Percentile(99)))
	}
	tbl.Write(w)
}
