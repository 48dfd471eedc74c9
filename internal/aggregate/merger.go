package aggregate

import (
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"
)

// Merger folds sealed per-core windows into per-sequence accumulators.
// Every fold is commutative and associative — counts and count-min
// cells add, HLL registers max, group and candidate tables sum by key —
// so the merged result is independent of seal order, and therefore of
// burst size, RSS placement, rebalancing, and epoch-swap timing. The
// mutex is taken only at window boundaries (and by snapshots), never
// per event.
type Merger struct {
	mu   sync.Mutex
	wins map[uint64]*windowAcc
	// registered/finalized track participants (cores, the NIC tap) for
	// the advisory Complete flag; sealedThrough[id] is the highest
	// sequence id has sealed everything up to.
	registered    map[int]bool
	finalized     map[int]bool
	sealedThrough map[int]uint64
	windowsSealed uint64
}

// windowAcc is the merged accumulator for one window sequence. Unlike
// the per-core windows it is unbounded (maps): merging is off the hot
// path and the union of bounded per-core tables is itself bounded.
type windowAcc struct {
	seq           uint64
	events        uint64
	count         uint64
	sum           uint64
	overflowCount uint64
	overflowSum   uint64
	groups        map[string]*groupAcc
	cands         map[string]uint64
	hll           []uint8
	cms           []uint64
}

type groupAcc struct {
	count uint64
	sum   uint64
}

func newMerger() *Merger {
	return &Merger{
		wins:          map[uint64]*windowAcc{},
		registered:    map[int]bool{},
		finalized:     map[int]bool{},
		sealedThrough: map[int]uint64{},
	}
}

func (m *Merger) register(id int) {
	m.mu.Lock()
	m.registered[id] = true
	m.mu.Unlock()
}

func (m *Merger) noteSealedThrough(id int, seq uint64) {
	m.mu.Lock()
	if seq > m.sealedThrough[id] {
		m.sealedThrough[id] = seq
	}
	m.mu.Unlock()
}

func (m *Merger) finalize(id int) {
	m.mu.Lock()
	m.finalized[id] = true
	m.mu.Unlock()
}

// mergeWindow folds one sealed per-core window into its accumulator.
func (m *Merger) mergeWindow(q *Query, id int, w *window) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.windowsSealed++
	acc := m.wins[w.seq]
	if acc == nil {
		acc = &windowAcc{seq: w.seq}
		if w.hll != nil {
			acc.hll = make([]uint8, hllM)
		}
		if w.cms != nil {
			acc.cms = make([]uint64, cmsCells)
		}
		if w.groups != nil {
			if q.Op == OpTopK {
				acc.cands = map[string]uint64{}
			} else {
				acc.groups = map[string]*groupAcc{}
			}
		}
		m.wins[w.seq] = acc
	}
	acc.events += w.events
	acc.count += w.count
	acc.sum += w.sum
	acc.overflowCount += w.overflowCount
	acc.overflowSum += w.overflowSum
	for i, r := range w.hll {
		if r > acc.hll[i] {
			acc.hll[i] = r
		}
	}
	for i, v := range w.cms {
		acc.cms[i] += v
	}
	if w.groups != nil {
		for i := 0; i < w.groups.n; i++ {
			e := &w.groups.entries[i]
			key := string(e.key[:e.klen])
			if q.Op == OpTopK {
				acc.cands[key] += e.count
			} else {
				g := acc.groups[key]
				if g == nil {
					g = &groupAcc{}
					acc.groups[key] = g
				}
				g.count += e.count
				g.sum += e.sum
			}
		}
	}
}

// --- reports --------------------------------------------------------

// GroupResult is one key's merged weight within a window.
type GroupResult struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum,omitempty"`
}

// WindowResult is one merged tumbling window.
type WindowResult struct {
	Seq       uint64 `json:"seq"`
	StartTick uint64 `json:"start_tick"`
	EndTick   uint64 `json:"end_tick,omitempty"` // 0 for the whole-run window
	// Complete means every participant (core, NIC tap) has sealed past
	// this window or finalized; incomplete windows can still grow.
	Complete bool   `json:"complete"`
	Events   uint64 `json:"events"`
	Count    uint64 `json:"count"`
	Sum      uint64 `json:"sum,omitempty"`
	Distinct uint64 `json:"distinct,omitempty"`
	// OverflowCount holds events not attributed to any group (group
	// table capacity, or no extractable key).
	OverflowCount uint64        `json:"overflow_count,omitempty"`
	OverflowSum   uint64        `json:"overflow_sum,omitempty"`
	Groups        []GroupResult `json:"groups,omitempty"`
	TopK          []GroupResult `json:"topk,omitempty"`
}

// Totals is the query's whole-run accounting.
type Totals struct {
	// Events counts every folded event across cores and stages.
	Events uint64 `json:"events"`
	// Late counts events whose window had already sealed (zero under
	// monotone tick sources).
	Late uint64 `json:"late,omitempty"`
	// GroupOverflow counts events that missed the bounded group table.
	GroupOverflow uint64 `json:"group_overflow,omitempty"`
	// WindowsSealed counts per-core window seals folded so far.
	WindowsSealed uint64 `json:"windows_sealed"`
	// KeysTracked is the number of distinct keys across merged windows.
	KeysTracked int `json:"keys_tracked"`
}

// QueryInfo is the compiled query rendered for reports.
type QueryInfo struct {
	Name   string `json:"name"`
	Op     string `json:"op"`
	Key    string `json:"key,omitempty"`
	Value  string `json:"value,omitempty"`
	Window string `json:"window,omitempty"`
	K      int    `json:"k,omitempty"`
	Stage  string `json:"stage"`
	// WindowTicks is the window span in virtual ticks (1 µs each).
	WindowTicks uint64 `json:"window_ticks,omitempty"`
}

// Report is one query's merged, windowed result set (the GET
// /aggregates JSON).
type Report struct {
	Query   QueryInfo      `json:"query"`
	Windows []WindowResult `json:"windows"`
	Totals  Totals         `json:"totals"`
}

// WriteText renders the report as the CLI tools print it: a blank line,
// a header with the query and its totals, a late/overflow line when
// either is non-zero, then each window — topk ranks, per-group rows, or
// the window's scalar result.
func (r Report) WriteText(w io.Writer) {
	q := r.Query
	desc := q.Op
	if q.Key != "" && q.Key != "none" {
		desc += "(" + q.Key + ")"
	}
	if q.Window != "" {
		desc += " window=" + q.Window
	}
	fmt.Fprintf(w, "\naggregate %s: %s stage=%s — %d events, %d windows sealed\n",
		q.Name, desc, q.Stage, r.Totals.Events, r.Totals.WindowsSealed)
	if r.Totals.Late > 0 || r.Totals.GroupOverflow > 0 {
		fmt.Fprintf(w, "  (%d late events dropped, %d group-table overflows)\n",
			r.Totals.Late, r.Totals.GroupOverflow)
	}
	for _, win := range r.Windows {
		fmt.Fprintf(w, "  window %d [%d..%d)us:", win.Seq, win.StartTick, win.EndTick)
		switch {
		case len(win.TopK) > 0:
			fmt.Fprintln(w)
			for i, g := range win.TopK {
				fmt.Fprintf(w, "    #%d %-40s %d\n", i+1, g.Key, g.Count)
			}
		case len(win.Groups) > 0:
			fmt.Fprintf(w, " %d groups\n", len(win.Groups))
			for _, g := range win.Groups {
				if q.Op == "sum" {
					fmt.Fprintf(w, "    %-42s count=%d sum=%d\n", g.Key, g.Count, g.Sum)
				} else {
					fmt.Fprintf(w, "    %-42s %d\n", g.Key, g.Count)
				}
			}
		case q.Op == "distinct":
			fmt.Fprintf(w, " distinct≈%d\n", win.Distinct)
		case q.Op == "sum":
			fmt.Fprintf(w, " count=%d sum=%d\n", win.Count, win.Sum)
		default:
			fmt.Fprintf(w, " count=%d\n", win.Count)
		}
	}
}

// snapshot renders the merged state deterministically: windows in
// sequence order, groups sorted by key, topk sorted by weight (ties by
// key). Late/overflow/events totals come from the instance's per-core
// counters, passed in by the caller.
func (m *Merger) snapshot(q *Query, t Totals) Report {
	m.mu.Lock()
	defer m.mu.Unlock()

	rep := Report{
		Query: QueryInfo{
			Name:        q.Name,
			Op:          q.Op.String(),
			Key:         q.Key.String(),
			Stage:       q.Stage.String(),
			WindowTicks: q.WindowTicks,
		},
	}
	if q.Op == OpSum || q.Op == OpTopK {
		rep.Query.Value = q.Val.String()
	}
	if q.Op == OpTopK {
		rep.Query.K = q.K
	}
	if q.WindowTicks > 0 {
		rep.Query.Window = fmt.Sprintf("%dus", q.WindowTicks)
	}

	allFinal := len(m.registered) > 0
	for id := range m.registered {
		if !m.finalized[id] {
			allFinal = false
			break
		}
	}

	seqs := make([]uint64, 0, len(m.wins))
	for seq := range m.wins {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	keys := map[string]bool{}
	for _, seq := range seqs {
		acc := m.wins[seq]
		wr := WindowResult{
			Seq:           seq,
			StartTick:     seq * q.WindowTicks,
			Events:        acc.events,
			Count:         acc.count,
			Sum:           acc.sum,
			OverflowCount: acc.overflowCount,
			OverflowSum:   acc.overflowSum,
			Complete:      allFinal || m.completeLocked(seq),
		}
		if q.WindowTicks > 0 {
			wr.EndTick = (seq + 1) * q.WindowTicks
		}
		if acc.hll != nil {
			wr.Distinct = hllEstimate(acc.hll)
		}
		for key := range acc.groups {
			keys[key] = true
		}
		for key := range acc.cands {
			keys[key] = true
		}
		switch {
		case acc.groups != nil:
			wr.Groups = make([]GroupResult, 0, len(acc.groups))
			for key, g := range acc.groups {
				wr.Groups = append(wr.Groups, GroupResult{Key: renderKey(key), Count: g.count, Sum: g.sum})
			}
			sort.Slice(wr.Groups, func(i, j int) bool { return wr.Groups[i].Key < wr.Groups[j].Key })
		case acc.cands != nil:
			// The candidate union decides membership only; the reported
			// weight is the merged count-min estimate. Candidate sums are
			// NOT placement-independent — space-saving eviction inflates a
			// newcomer by the evicted minimum, and which evictions happen
			// depends on the per-core arrival subsets — but the merged CMS
			// is: every event increments the same cells on every core, so
			// the cell-wise sum (and its min-over-rows readout) is a pure
			// function of the event multiset.
			wr.TopK = make([]GroupResult, 0, len(acc.cands))
			for key := range acc.cands {
				est := cmsEstimate(acc.cms, hashBytes([]byte(key)))
				wr.TopK = append(wr.TopK, GroupResult{Key: renderKey(key), Count: est})
			}
			sort.Slice(wr.TopK, func(i, j int) bool {
				if wr.TopK[i].Count != wr.TopK[j].Count {
					return wr.TopK[i].Count > wr.TopK[j].Count
				}
				return wr.TopK[i].Key < wr.TopK[j].Key
			})
			if len(wr.TopK) > q.K {
				wr.TopK = wr.TopK[:q.K]
			}
		}
		rep.Windows = append(rep.Windows, wr)
	}
	t.WindowsSealed = m.windowsSealed
	t.KeysTracked = len(keys)
	rep.Totals = t
	return rep
}

// completeLocked reports whether every registered participant has
// sealed past seq or finalized.
func (m *Merger) completeLocked(seq uint64) bool {
	if len(m.registered) == 0 {
		return false
	}
	for id := range m.registered {
		if m.finalized[id] {
			continue
		}
		if m.sealedThrough[id] < seq {
			return false
		}
	}
	return true
}

// renderKey decodes the binary key wire format into its operator-facing
// string form.
func renderKey(k string) string {
	if len(k) == 0 {
		return ""
	}
	b := []byte(k)
	switch b[0] {
	case tagIP:
		if len(b) >= 2 {
			return net.IP(b[2:]).String()
		}
	case tagPort:
		if len(b) == 3 {
			return strconv.Itoa(int(b[1])<<8 | int(b[2]))
		}
	case tagProto:
		if len(b) == 2 {
			return protoName(b[1])
		}
	case tagTuple:
		if len(b) == 39 {
			n := 16
			if b[1] == 4 {
				n = 4
			}
			src := net.IP(b[2 : 2+n]).String()
			dst := net.IP(b[18 : 18+n]).String()
			sp := int(b[34])<<8 | int(b[35])
			dp := int(b[36])<<8 | int(b[37])
			return fmt.Sprintf("%s:%d<->%s:%d/%s", src, sp, dst, dp, protoName(b[38]))
		}
	case tagString:
		return string(b[1:])
	}
	return fmt.Sprintf("%x", b)
}

func protoName(p uint8) string {
	switch p {
	case 1:
		return "icmp"
	case 6:
		return "tcp"
	case 17:
		return "udp"
	case 58:
		return "icmp6"
	}
	return strconv.Itoa(int(p))
}
