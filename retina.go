// Package retina is a Go reproduction of Retina (SIGCOMM 2022), a
// framework for analyzing 100GbE-class network traffic by subscribing to
// filtered, reassembled, and parsed network data.
//
// Users subscribe with a filter string and a typed callback:
//
//	cfg := retina.DefaultConfig()
//	cfg.Filter = `tls.sni matches '.*\.com$'`
//	rt, err := retina.New(cfg, retina.TLSHandshakes(func(h *retina.TLSHandshake, ev *retina.SessionEvent) {
//		log.Printf("TLS handshake with %s using %s", h.SNI, h.CipherName())
//	}))
//	...
//	rt.Run(source)
//
// The runtime decomposes the filter into hardware, packet, connection and
// session sub-filters; distributes traffic across per-core pipelines with
// symmetric RSS; and lazily reconstructs only the data each subscription
// needs. Packet capture hardware is simulated (see DESIGN.md): traffic
// enters through a Source, typically the synthetic generator in
// internal/traffic or a pcap file.
package retina

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"retina/internal/aggregate"
	"retina/internal/conntrack"
	"retina/internal/core"
	"retina/internal/ctl"
	"retina/internal/filter"
	"retina/internal/mbuf"
	"retina/internal/metrics"
	"retina/internal/nic"
	"retina/internal/offload"
	"retina/internal/overload"
	"retina/internal/proto"
	"retina/internal/rebalance"
	"retina/internal/telemetry"
)

// Re-exported data types delivered to callbacks.
type (
	// Packet is a raw frame delivered to packet subscriptions.
	Packet = core.Packet
	// ConnRecord is a connection record delivered at termination.
	ConnRecord = core.ConnRecord
	// SessionEvent is a parsed application-layer session.
	SessionEvent = core.SessionEvent
	// StreamChunk is an ordered run of reconstructed stream bytes.
	StreamChunk = core.StreamChunk
	// TLSHandshake is a parsed TLS handshake transcript.
	TLSHandshake = proto.TLSHandshake
	// HTTPTransaction is a parsed HTTP request/response exchange.
	HTTPTransaction = proto.HTTPTransaction
	// SSHHandshake is a parsed SSH version exchange.
	SSHHandshake = proto.SSHHandshake
	// DNSMessage is a parsed DNS message.
	DNSMessage = proto.DNSMessage
	// Subscription couples a callback with a data level.
	Subscription = core.Subscription
	// AggregateSpec is the declarative aggregation clause a subscription
	// may carry (SubscriptionSpec.Aggregate, internal/aggregate.Spec).
	AggregateSpec = aggregate.Spec
	// AggregateReport is one query's merged, windowed result set.
	AggregateReport = aggregate.Report
)

// Packets subscribes to raw frames (L2–L3 view, §3.2.2).
func Packets(cb func(*Packet)) *Subscription {
	return &Subscription{Level: core.LevelPacket, OnPacket: cb}
}

// Connections subscribes to reassembled connection records (L4 view).
func Connections(cb func(*ConnRecord)) *Subscription {
	return &Subscription{Level: core.LevelConnection, OnConn: cb}
}

// Sessions subscribes to parsed application-layer sessions (L5–7 view)
// for the protocols the filter names.
func Sessions(cb func(*SessionEvent)) *Subscription {
	return &Subscription{Level: core.LevelSession, OnSession: cb}
}

// ByteStreams subscribes to fully reconstructed byte-streams: ordered
// payload chunks for every connection matching the filter (the
// additional subscribable type of §3.3). Bytes of connections whose
// filter verdict is pending are buffered (bounded) and flushed on match;
// out-of-scope connections never have their bytes copied.
func ByteStreams(cb func(*StreamChunk)) *Subscription {
	return &Subscription{Level: core.LevelStream, OnStream: cb}
}

// TLSHandshakes subscribes to parsed TLS handshakes regardless of
// whether the filter mentions tls.
func TLSHandshakes(cb func(*TLSHandshake, *SessionEvent)) *Subscription {
	return &Subscription{
		Level:         core.LevelSession,
		SessionProtos: []string{"tls"},
		OnSession: func(ev *SessionEvent) {
			if h := ev.TLS(); h != nil {
				cb(h, ev)
			}
		},
	}
}

// HTTPTransactions subscribes to parsed HTTP transactions.
func HTTPTransactions(cb func(*HTTPTransaction, *SessionEvent)) *Subscription {
	return &Subscription{
		Level:         core.LevelSession,
		SessionProtos: []string{"http"},
		OnSession: func(ev *SessionEvent) {
			if h := ev.HTTP(); h != nil {
				cb(h, ev)
			}
		},
	}
}

// SubscriptionForKind builds a subscription with a counting no-op
// callback for a named data kind — the factory behind the admin API's
// and the CLI tools' declarative subscription specs. Recognized kinds:
// "packets", "connections" (or "conns"), "sessions", "streams" (or
// "bytestreams"), "tls", "http". Deliveries are still counted in the
// per-subscription metrics, so spec-driven subscriptions remain
// observable without user code.
func SubscriptionForKind(kind string) (*Subscription, error) {
	switch strings.ToLower(strings.TrimSpace(kind)) {
	case "", "packets", "packet":
		return Packets(func(*Packet) {}), nil
	case "connections", "conns", "conn":
		return Connections(func(*ConnRecord) {}), nil
	case "sessions", "session":
		return Sessions(func(*SessionEvent) {}), nil
	case "streams", "bytestreams", "stream":
		return ByteStreams(func(*StreamChunk) {}), nil
	case "tls":
		return TLSHandshakes(func(*TLSHandshake, *SessionEvent) {}), nil
	case "http":
		return HTTPTransactions(func(*HTTPTransaction, *SessionEvent) {}), nil
	}
	return nil, fmt.Errorf("retina: unknown callback kind %q (want packets, connections, sessions, streams, tls, or http)", kind)
}

// Config configures a Runtime.
type Config struct {
	// Filter is the subscription filter expression ("" = everything).
	Filter string
	// Cores is the number of processing cores (receive queues).
	Cores int
	// RingSize bounds each receive ring; overflows are packet loss.
	RingSize int
	// PoolSize bounds the packet buffer pool. Buffers are made in chunks,
	// the first by New and the rest on first need, so a run's memory
	// follows the most buffers it holds at once, not this bound; each
	// run ends by giving every chunk but the first back. Allocation fails
	// (packet loss, rx_nombuf) only once the bound is reached.
	PoolSize int
	// BurstSize is the datapath batch size: the NIC stages up to this
	// many frames per ring enqueue and each core dequeues, decodes, and
	// filters that many packets per iteration, folding telemetry into
	// shared counters once per burst. Zero selects the default (32);
	// 1 runs one-packet bursts through the same code (useful to bisect
	// burst-related regressions). See DESIGN.md §11.
	BurstSize int
	// Interpreted selects the interpreted filter engine (Appendix B
	// baseline) instead of the compiled engine.
	Interpreted bool
	// HardwareFilter installs generated flow rules on the (simulated)
	// NIC. Off by default, matching the paper's Figure 5/6 setup.
	HardwareFilter bool
	// SinkFraction diverts this fraction of flows to a sink core
	// (§6.1's rate titration); 0 disables.
	SinkFraction float64
	// EstablishTimeout and InactivityTimeout override the connection
	// tracker's defaults (5s / 5m of virtual time). Negative disables
	// the timeout; zero selects the default.
	EstablishTimeout  time.Duration
	InactivityTimeout time.Duration
	// Profile enables per-stage timing (Figure 7).
	Profile bool
	// MaxConns bounds each core's connection table (0 = unlimited).
	MaxConns int
	// NoPressureEvict disables pressure-driven eviction at MaxConns. By
	// default a full table evicts its longest-idle unestablished
	// connection to admit a new one (counted as evicted_pressure);
	// disabling it restores hard refusal (table_full) for every arrival
	// past the bound.
	NoPressureEvict bool
	// ReassemblyBudget, PacketBufBudget, and StreamBufBudget bound, per
	// core, the bytes parked in out-of-order reassembly buffers, held in
	// pre-verdict packet buffers, and copied into pre-verdict stream
	// buffers. Zero selects the defaults (8 MiB / 8 MiB / 16 MiB);
	// negative disables that bound. At the bound the core sheds the
	// cheapest state first instead of growing (see DESIGN.md §10).
	ReassemblyBudget int64
	PacketBufBudget  int64
	StreamBufBudget  int64
	// PacketBufferCap overrides the per-connection packet buffer bound
	// for packet subscriptions awaiting a filter verdict.
	PacketBufferCap int
	// TraceSample enables connection lifecycle tracing: one in
	// TraceSample connections records a first-packet → identify →
	// first-parse → session-verdict → expiry span (0 disables).
	TraceSample int
	// Modules registers user-defined protocol modules (the
	// extensibility mechanism of §3.3 / Appendix A): each contributes
	// filter-language identifiers and a per-connection parser.
	Modules []ProtocolModule
	// FlowOffload configures the dynamic per-flow offload fastpath
	// (DESIGN.md §13): connections that reach a terminal verdict get a
	// per-5-tuple drop rule installed on the device, so the rest of the
	// flow never reaches a core. Subscription output is byte-identical
	// with the fastpath on or off; the dropped frames count under
	// hw_offload_drop.
	FlowOffload FlowOffloadConfig
	// LatencyTracking enables the observability layer (DESIGN.md §14):
	// RX timestamps on every frame, rx→delivery and sampled per-stage
	// latency histograms, per-core duty-cycle accounting, the RSS-skew
	// gauge inputs, and the elephant-flow gauge and status section (the
	// witness behind them is always kept: the rebalancer reads it).
	// Costs under 3% of throughput (pinned by BenchmarkLatencyTracking);
	// off by default.
	LatencyTracking bool
	// Rebalance configures the adaptive RSS rebalancer (DESIGN.md §16):
	// a control goroutine that watches per-bucket load and migrates RETA
	// buckets — with their tracked connections — from hot queues to cold
	// ones. Subscription output is byte-identical with rebalancing on or
	// off (connection IDs, records, and byte accounting all survive the
	// move); only the core a connection is served from changes.
	Rebalance RebalanceConfig

	// conntrackBackend overrides the connection-table backend (empty
	// selects the build default). Only tests set it, to replay a
	// workload on the Go-map oracle (conntrack.BackendMap) and compare
	// it with the flat table; see DESIGN.md §15.
	conntrackBackend string
}

// FlowOffloadConfig are the dynamic flow-offload knobs.
type FlowOffloadConfig struct {
	// Enable turns the feedback loop on. Enabling it gives the device a
	// rule-table capability model even when HardwareFilter is off (the
	// dynamic partition is bounded by CapabilityModel.MaxRules).
	Enable bool
	// MaxFlowRules bounds the dynamic partition (the table budget); the
	// effective bound is further capped by the device capacity left
	// over by static subscription rules. 0 defers to the device.
	MaxFlowRules int
	// IdleTimeout evicts rules with no hit for this long (virtual
	// time). 0 selects the default (5s); negative disables idle
	// eviction.
	IdleTimeout time.Duration
}

// RebalanceConfig are the adaptive RSS rebalancing knobs.
type RebalanceConfig struct {
	// Enable turns the rebalancer on (needs Cores > 1 to do anything).
	Enable bool
	// Interval between load observations (default 100ms wall clock).
	Interval time.Duration
	// MaxMovesPerRound bounds bucket migrations per observation
	// (default 2).
	MaxMovesPerRound int
	// Hysteresis is the skew (hottest queue over the mean) below which
	// the table is left alone (default 1.2); must exceed 1.
	Hysteresis float64
}

// ProtocolModule bundles the two halves of a protocol extension: filter
// metadata (protocol name, parent, filterable fields) and the stateful
// parser factory. The protocol's sessions implement proto.Data and are
// delivered to session subscriptions like any built-in protocol's.
type ProtocolModule struct {
	Filter *filter.ProtoDef
	Parser proto.Factory
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	return Config{
		Cores:    4,
		RingSize: 8192,
		PoolSize: 65536,
	}
}

// RegisterFlags binds the command-line flags the CLI tools share onto
// c's fields; each flag's default is the field's current value.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Cores, "cores", c.Cores, "processing cores (receive queues)")
	fs.IntVar(&c.BurstSize, "burst", c.BurstSize, "datapath burst size (0 = default 32, 1 = one-packet bursts through the same code)")
	fs.BoolVar(&c.LatencyTracking, "latency", c.LatencyTracking, "enable latency tracking and print the rx→delivery percentiles")
	fs.BoolVar(&c.FlowOffload.Enable, "offload", c.FlowOffload.Enable, "enable the dynamic flow-offload fastpath (per-flow drop rules at the device for terminally-decided connections)")
	fs.IntVar(&c.FlowOffload.MaxFlowRules, "offload-rules", c.FlowOffload.MaxFlowRules, "flow-offload rule-table budget (0 = device capacity)")
	fs.DurationVar(&c.FlowOffload.IdleTimeout, "offload-idle", c.FlowOffload.IdleTimeout, "flow-offload idle eviction horizon in virtual time (0 = 5s default, negative = never)")
	fs.BoolVar(&c.Rebalance.Enable, "rebalance", c.Rebalance.Enable, "enable the adaptive RSS rebalancer (periodic RETA bucket migration with conntrack handoff; needs -cores > 1)")
	fs.DurationVar(&c.Rebalance.Interval, "rebalance-interval", c.Rebalance.Interval, "rebalancer observation interval (0 = 100ms default)")
	fs.IntVar(&c.Rebalance.MaxMovesPerRound, "rebalance-moves", c.Rebalance.MaxMovesPerRound, "max bucket moves per rebalance round (0 = 2 default)")
	fs.Float64Var(&c.Rebalance.Hysteresis, "rebalance-hysteresis", c.Rebalance.Hysteresis, "hot-queue skew (hottest over mean) below which buckets stay put (0 = 1.2 default)")
}

func (c Config) conntrack() conntrack.Config {
	cfg := conntrack.DefaultConfig()
	switch {
	case c.EstablishTimeout < 0:
		cfg.EstablishTimeout = 0
	case c.EstablishTimeout > 0:
		cfg.EstablishTimeout = uint64(c.EstablishTimeout / time.Microsecond)
	}
	switch {
	case c.InactivityTimeout < 0:
		cfg.InactivityTimeout = 0
	case c.InactivityTimeout > 0:
		cfg.InactivityTimeout = uint64(c.InactivityTimeout / time.Microsecond)
	}
	cfg.MaxConns = c.MaxConns
	cfg.PressureEvict = !c.NoPressureEvict
	cfg.Backend = c.conntrackBackend
	return cfg
}

// budget maps the Config knobs onto an overload.Budget.
func (c Config) budget() overload.Budget {
	return overload.Budget{
		ReassemblyBytes: c.ReassemblyBudget,
		PacketBufBytes:  c.PacketBufBudget,
		StreamBufBytes:  c.StreamBufBudget,
	}
}

// Source supplies frames to the runtime with virtual-clock receive
// ticks (1 tick = 1µs). Implementations include the synthetic traffic
// generator and the pcap reader in internal/traffic.
type Source interface {
	// Next returns the next frame and its tick; ok=false ends input.
	// The returned slice is only read before the next call.
	Next() (frame []byte, tick uint64, ok bool)
}

// BurstSource is an optional Source extension that yields several
// frames per call, letting the producer loop amortize its call
// overhead to match the burst datapath. Runtime.Run and RunOffline use
// it when the source implements it.
type BurstSource interface {
	Source
	// NextBurst fills frames and ticks (equal length) and returns the
	// number filled; 0 ends input. Each frames[i] must remain readable,
	// and unchanged, until the next NextBurst call — slots may not alias
	// one shared buffer the way Next's return may. RunOffline borrows
	// the frames for that long instead of copying them.
	NextBurst(frames [][]byte, ticks []uint64) int
}

// Stats summarizes a run.
type Stats struct {
	// Frames counts every frame the runtime has taken from its sources:
	// the device's NIC.RxFrames plus the frames RunOffline read.
	Frames uint64
	NIC    nic.Stats
	Cores  []core.CoreStats
	// PoolFails counts failed packet-buffer allocations and
	// OfflineOversize the frames RunOffline refused as larger than a
	// buffer: the drop counts neither NIC nor Cores carries.
	PoolFails, OfflineOversize uint64
	// PoolInUse counts the packet buffers not back in the pool, and
	// Migrated the connections the cores imported from one another.
	PoolInUse int
	Migrated  uint64
	// Stages aggregates stage counters across cores.
	Stages *core.StageStats
	// ConnsLive and MemoryBytes snapshot the connection tables at the
	// end of the run (before the final flush).
	ConnsLive   int
	MemoryBytes uint64
	// Elapsed is the wall-clock processing time.
	Elapsed time.Duration
	// LastTick is the final virtual tick observed.
	LastTick uint64
}

// Loss reports packets lost after hardware filtering.
func (s Stats) Loss() uint64 { return s.NIC.Loss() }

// Runtime is a configured Retina instance.
type Runtime struct {
	cfg     Config
	prog    *filter.Program
	dev     *nic.NIC
	pool    *mbuf.Pool
	cores   []*core.Core
	sub     *Subscription // initial subscription (nil for NewDynamic)
	plane   *ctl.Plane
	offload *offload.Manager      // nil unless Config.FlowOffload.Enable
	rebal   *rebalance.Rebalancer // nil unless Config.Rebalance.Enable
	reg     *telemetry.Registry
	tracer  *telemetry.ConnTracer

	// skewMu/skewPrev hold the last per-core processed snapshot behind
	// the windowed RSSSkew gauge.
	skewMu   sync.Mutex
	skewPrev []uint64

	// aggMu guards the NIC push-down bookkeeping: per-subscription tap
	// handles (for removal) and the NIC participant states owed a final
	// seal when the producer stops.
	aggMu   sync.Mutex
	aggTaps map[string]int
	nicAggs []*aggregate.CoreState

	// offlineRx counts the frames RunOffline took from its sources, and
	// offlineOversize those it could not buffer because they exceed a
	// packet buffer — the offline shares of rx and oversize_frame, which
	// online the device counts.
	offlineRx       atomic.Uint64
	offlineOversize atomic.Uint64
	// RunOffline's ingest state, built once in New so a run allocates
	// nothing for it: the source burst (frames, ticks), the buffer
	// cache, the burst handed to the core, and the slot buffers slotCopy
	// copies a plain Source's frames into.
	frames [][]byte
	ticks  []uint64
	ingest *mbuf.Cache
	batch  []*mbuf.Mbuf
	slots  [][]byte
}

// New compiles the filter, builds the simulated device and the per-core
// pipelines, and installs hardware rules if requested. The subscription
// becomes the control plane's initial entry, named "main"; more can be
// added and removed at runtime with AddSubscription / RemoveSubscription.
func New(cfg Config, sub *Subscription) (*Runtime, error) {
	if sub == nil {
		return nil, fmt.Errorf("retina: nil subscription")
	}
	return build(cfg, sub)
}

// NewDynamic builds a runtime with an empty subscription set: every
// packet is filter-dropped until the first AddSubscription. Config.Filter
// is ignored (each subscription carries its own filter).
func NewDynamic(cfg Config) (*Runtime, error) {
	return build(cfg, nil)
}

func build(cfg Config, sub *Subscription) (*Runtime, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 8192
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = cfg.Cores*cfg.RingSize + 4096
	}
	if cfg.BurstSize <= 0 {
		cfg.BurstSize = core.DefaultBurstSize
	}

	capModel := nic.CapabilityModel{}
	if cfg.HardwareFilter || cfg.FlowOffload.Enable {
		// FlowOffload needs the capability model too: the dynamic
		// partition is bounded by the model's MaxRules even when no
		// static subscription rules are installed.
		capModel = nic.ConnectX5Model()
	}

	engine := filter.EngineCompiled
	if cfg.Interpreted {
		engine = filter.EngineInterpreted
	}
	var hwCap filter.Capability
	if cfg.HardwareFilter {
		hwCap = capModel
	}
	var freg *filter.Registry
	extraParsers := map[string]proto.Factory{}
	if len(cfg.Modules) > 0 {
		freg = filter.DefaultRegistry()
		for _, mod := range cfg.Modules {
			if mod.Filter == nil || mod.Parser == nil {
				return nil, fmt.Errorf("retina: protocol module needs both filter metadata and a parser")
			}
			if _, dup := extraParsers[mod.Filter.Name]; dup {
				return nil, fmt.Errorf("retina: protocol module %q registered twice", mod.Filter.Name)
			}
			if err := freg.Register(mod.Filter); err != nil {
				return nil, err
			}
			extraParsers[mod.Filter.Name] = mod.Parser
		}
	}

	ctlOpts := ctl.Options{
		Engine:       engine,
		HW:           hwCap,
		Registry:     freg,
		ExtraParsers: extraParsers,
		// Connection-stage aggregations keep windows open long enough for
		// records to arrive: at most the conntrack inactivity timeout
		// after the connection's last packet.
		AggConnGrace: cfg.conntrack().InactivityTimeout,
	}
	var slots []*core.SubSpec
	var prog *filter.Program
	if sub != nil {
		spec, err := ctl.NewSpec("main", cfg.Filter, sub, nil, ctlOpts)
		if err != nil {
			return nil, err
		}
		slots = append(slots, spec)
		prog = spec.Prog
	} else {
		// Dynamic mode: keep Program() meaningful (diagnostics) with a
		// compile of the empty filter.
		var err error
		prog, err = filter.Compile("", filter.Options{Engine: engine, HW: hwCap, Registry: freg})
		if err != nil {
			return nil, err
		}
	}
	ctlOpts.Slots = slots
	plane, err := ctl.New(ctlOpts)
	if err != nil {
		return nil, err
	}
	ps := plane.Current()

	pool := mbuf.NewPool(cfg.PoolSize, mbuf.DefaultBufSize)
	dev := nic.New(nic.Config{
		Queues:     cfg.Cores,
		RingSize:   cfg.RingSize,
		Pool:       pool,
		Burst:      cfg.BurstSize,
		Capability: capModel,
		RxStamp:    cfg.LatencyTracking,
	})
	if cfg.HardwareFilter {
		if err := dev.InstallRules(ps.Multi.Rules); err != nil {
			return nil, fmt.Errorf("retina: installing hardware rules: %w", err)
		}
	}
	if cfg.SinkFraction > 0 {
		dev.SetSinkFraction(cfg.SinkFraction)
	}

	var mgr *offload.Manager
	if cfg.FlowOffload.Enable {
		var idle int64
		switch {
		case cfg.FlowOffload.IdleTimeout < 0:
			idle = -1
		case cfg.FlowOffload.IdleTimeout > 0:
			idle = int64(cfg.FlowOffload.IdleTimeout / time.Microsecond)
		}
		mgr = offload.NewManager(offload.Config{
			Dev:         dev,
			MaxRules:    cfg.FlowOffload.MaxFlowRules,
			IdleTimeout: idle,
		})
		plane.SetOffload(mgr)
	}

	rt := &Runtime{cfg: cfg, prog: prog, dev: dev, pool: pool, sub: sub, plane: plane, offload: mgr,
		frames: make([][]byte, cfg.BurstSize), ticks: make([]uint64, cfg.BurstSize),
		ingest: mbuf.NewCache(pool, cfg.BurstSize), batch: make([]*mbuf.Mbuf, 0, cfg.BurstSize),
		slots: make([][]byte, cfg.BurstSize)}
	slotMem := make([]byte, cfg.BurstSize*mbuf.DefaultBufSize)
	for i := range rt.slots {
		rt.slots[i] = slotMem[i*mbuf.DefaultBufSize : i*mbuf.DefaultBufSize : (i+1)*mbuf.DefaultBufSize]
	}
	if cfg.TraceSample > 0 {
		rt.tracer = telemetry.NewConnTracer(cfg.TraceSample, 0)
	}
	for i := 0; i < cfg.Cores; i++ {
		q := i
		// Stride connection IDs across cores (core i mints IDBase+i,
		// IDBase+i+Cores, ...) so IDs stay globally unique and survive
		// bucket migration intact; a single core reproduces the
		// historical 1,2,3,... sequence.
		ctCfg := cfg.conntrack()
		ctCfg.IDBase = uint64(i + 1)
		ctCfg.IDStride = uint64(cfg.Cores)
		coreCfg := core.Config{
			Set:             ps,
			BurstSize:       cfg.BurstSize,
			Conntrack:       ctCfg,
			Profile:         cfg.Profile,
			PacketBufferCap: cfg.PacketBufferCap,
			ExtraParsers:    extraParsers,
			Tracer:          rt.tracer,
			Budget:          cfg.budget(),
			PoolSignal: func() (free, total int) {
				return pool.Available(), pool.Size()
			},
			RingSignal: func() (used, capacity int) {
				return dev.RingOccupancy(q)
			},
			Latency: cfg.LatencyTracking,
		}
		if mgr != nil {
			coreCfg.Offload = mgr
		}
		c, err := core.NewCore(i, coreCfg)
		if err != nil {
			return nil, err
		}
		rt.cores = append(rt.cores, c)
	}
	plane.AttachCores(rt.cores, dev)
	if cfg.Rebalance.Enable && cfg.Cores > 1 {
		rt.rebal = rebalance.New(dev, cfg.Cores,
			func(bucket, dst int) error {
				_, err := plane.MoveBucket(bucket, dst)
				return err
			},
			rt.elephantBucket,
			rebalance.Config{
				Interval:         cfg.Rebalance.Interval,
				MaxMovesPerRound: cfg.Rebalance.MaxMovesPerRound,
				Hysteresis:       cfg.Rebalance.Hysteresis,
			})
	}
	rt.reg = telemetry.NewRegistry()
	rt.registerMetrics()
	for _, info := range plane.List() {
		if spec := plane.Spec(info.Name); spec != nil {
			rt.registerSubscription(spec)
		}
	}
	return rt, nil
}

// ControlPlane exposes the live-subscription control plane (epoch and
// swap introspection; benchmark and test harness access).
func (r *Runtime) ControlPlane() *ctl.Plane { return r.plane }

// SubscriptionInfo is one subscription's operator-facing state as
// reported by ListSubscriptions and the admin API.
type SubscriptionInfo = ctl.SubInfo

// AddSubscription compiles the filter and atomically adds a named
// subscription to the running set: the control plane publishes a new
// program set, every core picks it up at a burst boundary, and hardware
// rules grow before the swap so coverage never narrows. Safe to call
// while Run is processing traffic.
func (r *Runtime) AddSubscription(name, filterSrc string, sub *Subscription) (SubscriptionInfo, error) {
	return r.AddSubscriptionWithAggregate(name, filterSrc, sub, nil)
}

// AddSubscriptionWithAggregate is AddSubscription plus a declarative
// aggregation clause compiled against the subscription's filter and
// level: the query registers at the earliest stage that can evaluate it
// (aggregate.Compile), and a NIC-stage query additionally installs a
// device tap over the filter's exact hardware rules.
func (r *Runtime) AddSubscriptionWithAggregate(name, filterSrc string, sub *Subscription, agg *AggregateSpec) (SubscriptionInfo, error) {
	info, err := r.plane.Add(name, filterSrc, sub, agg)
	spec := r.plane.Spec(name)
	if spec != nil {
		r.registerSubscription(spec)
	}
	if err != nil {
		return info, err
	}
	if spec != nil && spec.Agg != nil && spec.Agg.Q.Stage == aggregate.StageNIC {
		if tapErr := r.installNICTap(name, spec); tapErr != nil {
			// Roll the subscription back: a NIC-stage query without its
			// tap would silently report zeros.
			_ = r.plane.Remove(name)
			return info, tapErr
		}
	}
	return info, nil
}

// installNICTap installs the device counter for a NIC-stage query: the
// filter's exact hardware rules feed the instance's NIC participant.
func (r *Runtime) installNICTap(name string, spec *core.SubSpec) error {
	rules := filter.GenerateFlowRules(spec.Prog.Trie, r.dev.Capability())
	st := spec.Agg.NICState()
	id, err := r.dev.AddAggTap(rules, st.UpdateScalar)
	if err != nil {
		return fmt.Errorf("retina: installing NIC aggregation tap for %q: %w", name, err)
	}
	r.aggMu.Lock()
	if r.aggTaps == nil {
		r.aggTaps = map[string]int{}
	}
	r.aggTaps[name] = id
	r.nicAggs = append(r.nicAggs, st)
	r.aggMu.Unlock()
	return nil
}

// sealNICAggs finalizes every NIC-tap participant. Called from the
// producer goroutine after the device closes (the tap can no longer
// fire), so the single-owner discipline on the states holds.
func (r *Runtime) sealNICAggs() {
	r.aggMu.Lock()
	states := append([]*aggregate.CoreState(nil), r.nicAggs...)
	r.aggMu.Unlock()
	for _, st := range states {
		st.FinalSeal()
	}
}

// RemoveSubscription removes a named subscription from the live set.
// New connections stop matching it as soon as each core picks up the
// swap; connections that already matched drain — they still deliver
// their final callback — and the subscription stays visible in
// ListSubscriptions (draining) until its live-connection count reaches
// zero.
func (r *Runtime) RemoveSubscription(name string) error {
	r.aggMu.Lock()
	if id, ok := r.aggTaps[name]; ok {
		delete(r.aggTaps, name)
		r.aggMu.Unlock()
		r.dev.RemoveAggTap(id)
	} else {
		r.aggMu.Unlock()
	}
	return r.plane.Remove(name)
}

// Aggregates snapshots every live or draining aggregation query's
// merged, windowed report, in subscription ID order. Safe to call while
// traffic is processing; only sealed windows appear.
func (r *Runtime) Aggregates() []AggregateReport {
	var out []AggregateReport
	for _, info := range r.plane.List() {
		if spec := r.plane.Spec(info.Name); spec != nil && spec.Agg != nil {
			out = append(out, spec.Agg.Snapshot())
		}
	}
	return out
}

// ListSubscriptions reports every live and draining subscription with
// its per-subscription counters.
func (r *Runtime) ListSubscriptions() []SubscriptionInfo {
	return r.plane.List()
}

// Program exposes the compiled filter (rule inspection, diagnostics).
func (r *Runtime) Program() *filter.Program { return r.prog }

// NIC exposes the simulated device (benchmark harness access).
func (r *Runtime) NIC() *nic.NIC { return r.dev }

// Pool exposes the packet buffer pool (benchmark harness access).
func (r *Runtime) Pool() *mbuf.Pool { return r.pool }

// Offload exposes the dynamic flow-offload manager (nil unless
// Config.FlowOffload.Enable).
func (r *Runtime) Offload() *offload.Manager { return r.offload }

// Cores exposes the per-core pipelines (benchmark harness access).
func (r *Runtime) Cores() []*core.Core { return r.cores }

// Rebalancer exposes the adaptive RSS rebalancer (nil unless
// Config.Rebalance.Enable with Cores > 1).
func (r *Runtime) Rebalancer() *rebalance.Rebalancer { return r.rebal }

// elephantBucket is the rebalancer's guard: it reports whether bucket
// hosts a witnessed heavy-hitter (a flow carrying ≥20% of some core's
// processed packets). Heavy buckets are never migrated onto a queue
// already at or above mean load.
func (r *Runtime) elephantBucket(bucket int) bool {
	size := r.dev.RetaSize()
	for _, c := range r.cores {
		processed := c.Stats().Processed
		if processed == 0 {
			continue
		}
		for _, f := range c.Witness().Top() {
			if float64(f.Packets) < 0.2*float64(processed) {
				break // sorted descending; the rest are smaller
			}
			if b, ok := nic.BucketOf(f.Tuple, size); ok && b == bucket {
				return true
			}
		}
	}
	return false
}

// Run pumps the source through the device and per-core pipelines until
// the source is exhausted, then flushes remaining connections and
// returns the run's statistics. Callbacks run inline on core
// goroutines; a callback shared across cores must be safe for
// concurrent use. Run may be called again once it has returned: each
// call reopens the device the previous one closed.
func (r *Runtime) Run(src Source) Stats {
	start := time.Now()
	// The previous Run closed the rings; a core goroutine that found its
	// ring closed and empty would exit at once and strand every frame
	// the producer then enqueued.
	r.dev.Reopen()
	r.plane.Start()
	defer r.plane.Stop()
	var wg sync.WaitGroup
	for i, c := range r.cores {
		wg.Add(1)
		go func(c *core.Core, q int) {
			defer wg.Done()
			c.Run(r.dev.Queue(q))
		}(c, i)
	}
	if r.rebal != nil {
		go r.rebal.Run()
	}

	bs, ok := src.(BurstSource)
	if !ok {
		bs = oneFrame{src}
	}
	frames := make([][]byte, r.cfg.BurstSize)
	ticks := make([]uint64, r.cfg.BurstSize)
	var lastTick uint64
	for {
		n := bs.NextBurst(frames, ticks)
		if n == 0 {
			break
		}
		r.dev.DeliverBurst(frames[:n], ticks[:n])
		lastTick = ticks[n-1]
	}
	// Stop the rebalancer before closing the device so no new migration
	// starts against exiting cores. A move's RETA swap can only be
	// applied from the producer goroutine — which is this one, now idle —
	// so keep servicing queued swap requests while the in-flight round
	// winds down instead of letting it burn the full swap timeout.
	if r.rebal != nil {
		stopped := make(chan struct{})
		go func() {
			r.rebal.Stop()
			close(stopped)
		}()
		for waiting := true; waiting; {
			select {
			case <-stopped:
				waiting = false
			default:
				r.dev.FlushPending()
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	// Close flushes frames still staged in the NIC's per-queue burst
	// buffers before closing the rings, so nothing is silently lost.
	r.dev.Close()
	r.sealNICAggs()
	wg.Wait()
	r.pool.Trim()
	return r.stats(start, lastTick)
}

// oneFrame adapts a plain Source to BurstSource one frame per call for
// Run: Next's frame may alias a buffer the source reuses, so it must
// reach the device, which copies it, before the next Next call.
type oneFrame struct{ Source }

func (o oneFrame) NextBurst(frames [][]byte, ticks []uint64) int {
	frame, tick, ok := o.Next()
	if !ok {
		return 0
	}
	frames[0], ticks[0] = frame, tick
	return 1
}

// slotCopy adapts a plain Source to BurstSource for RunOffline, which
// borrows a burst's frames instead of copying them. Next's frame may
// alias a buffer the source reuses, so each frame is copied into its
// own slot buffer, which keeps it readable until the next call; a call
// fills at most len(slots) frames.
type slotCopy struct {
	Source
	slots [][]byte
}

func (o slotCopy) NextBurst(frames [][]byte, ticks []uint64) int {
	n := 0
	for n < len(frames) && n < len(o.slots) {
		frame, tick, ok := o.Next()
		if !ok {
			break
		}
		o.slots[n] = append(o.slots[n][:0], frame...)
		frames[n], ticks[n] = o.slots[n], tick
		n++
	}
	return n
}

func (r *Runtime) stats(start time.Time, lastTick uint64) Stats {
	st := Stats{
		NIC:      r.dev.Stats(),
		Stages:   core.NewStageStats(false),
		Elapsed:  time.Since(start),
		LastTick: lastTick,
	}
	st.Frames = st.NIC.RxFrames + r.offlineRx.Load()
	_, st.PoolFails = r.pool.Stats()
	st.OfflineOversize = r.offlineOversize.Load()
	st.PoolInUse = r.pool.InUse()
	for _, c := range r.cores {
		in, _ := c.Table().Migrations()
		st.Migrated += in
		st.Cores = append(st.Cores, c.Stats())
		st.Stages.Merge(c.StageStats())
		st.ConnsLive += c.Table().Len()
		st.MemoryBytes += c.Table().MemoryBytes()
	}
	return st
}

// RunOffline processes frames on a single core directly, bypassing the
// simulated NIC — the paper's offline mode used in Appendix B. Like Run,
// it pulls a burst per call from a BurstSource; a plain Source is read
// through slotCopy, which copies up to BurstSize frames per call into
// slot buffers. Each frame of a burst is borrowed, not copied: a pool
// buffer drawn through a bulk cache — one pool lock per burst, as the
// device takes them — views the source's bytes, and the core processes
// the burst before the next NextBurst call. The core copies a frame
// into its buffer's own storage only where it keeps it past the burst
// (a pending verdict's packet buffer, a parked reassembly segment). A
// frame that cannot be buffered is counted like the device counts it:
// pool_exhausted through the pool's failure count, oversize_frame when
// it exceeds a buffer.
//
// The cache's leftovers go back to the pool before each burst reaches
// the core, so the core sees the pool as single allocations would
// leave it.
func (r *Runtime) RunOffline(src Source) Stats {
	start := time.Now()
	c := r.cores[0]
	var lastTick uint64
	bs, ok := src.(BurstSource)
	if !ok {
		bs = slotCopy{src, r.slots}
	}
	for {
		n := bs.NextBurst(r.frames, r.ticks)
		if n == 0 {
			break
		}
		r.offlineRx.Add(uint64(n))
		// Offline mode bypasses the NIC, so RX stamping happens here:
		// one clock read per burst, like the device's per-DeliverBurst
		// read.
		var nowNs int64
		if r.cfg.LatencyTracking {
			nowNs = metrics.NowNanos()
		}
		batch := r.batch[:0]
		for i, frame := range r.frames[:n] {
			m, err := r.ingest.Borrow(frame)
			if err != nil {
				if errors.Is(err, mbuf.ErrTooLarge) {
					r.offlineOversize.Add(1)
				}
				continue
			}
			m.RxTick = r.ticks[i]
			m.RxNanos = nowNs
			batch = append(batch, m)
		}
		r.ingest.Release()
		if len(batch) > 0 {
			lastTick = batch[len(batch)-1].RxTick
			c.ProcessBurst(batch)
		}
	}
	clear(r.frames) // keep no reference to the source's frames
	c.Flush()
	r.pool.Trim()
	return r.stats(start, lastTick)
}

// Check verifies the frame-conservation identities (DESIGN.md §9) on a
// finished run's stats s, returning an error that names each identity
// that does not close. It reads every count from s, the drop reasons
// through the same ledger DropBreakdown reads live:
//
//   - the device: NIC.RxFrames == NIC.Disposed();
//   - each core: Processed == Disposed() — summed over the cores instead
//     once connections have migrated between them, because a migrated
//     connection's buffered frames resolve on the core that imported it;
//   - the runtime: Frames == delivered + tracked + Σ frame-level drop
//     reasons (telemetry.FrameDropReasons);
//   - the pool: every packet buffer is back.
//
// Pass it the Stats Run or RunOffline returned; mid-run, frames in
// flight make the identities read short.
func (r *Runtime) Check(s Stats) error {
	var errs []error
	if d := s.NIC.Disposed(); d != s.NIC.RxFrames {
		errs = append(errs, fmt.Errorf("device: rx %d != enqueued + dropped %d (%+v)", s.NIC.RxFrames, d, s.NIC))
	}
	var processed, disposed, outcomes uint64
	for i, cs := range s.Cores {
		d := cs.Disposed()
		processed += cs.Processed
		disposed += d
		outcomes += cs.DeliveredPackets + cs.Tracked
		if s.Migrated == 0 && d != cs.Processed {
			errs = append(errs, fmt.Errorf("core %d: processed %d != disposed %d (%+v)", i, cs.Processed, d, cs))
		}
	}
	if s.Migrated > 0 && disposed != processed {
		errs = append(errs, fmt.Errorf("cores: processed %d != disposed %d across %d migrated connections", processed, disposed, s.Migrated))
	}
	drops := dropBreakdown(s)
	var dropped uint64
	for _, reason := range telemetry.FrameDropReasons() {
		dropped += drops[reason]
	}
	if outcomes+dropped != s.Frames {
		errs = append(errs, fmt.Errorf("runtime: rx %d != delivered + tracked %d + frame drops %d (%v)", s.Frames, outcomes, dropped, drops))
	}
	if s.PoolInUse != 0 {
		errs = append(errs, fmt.Errorf("pool: %d packet buffers still in use", s.PoolInUse))
	}
	return errors.Join(errs...)
}

// RSSSkew reports max/mean of the per-core packet share — 1.0 means
// perfectly even RSS spread, N (the core count) means one core took
// everything — over the window since the previous RSSSkew call (the
// first call covers the whole run, so a single post-run read matches
// the old cumulative semantics). Windowing makes the LiveStats gauge
// react to traffic shifts instead of averaging them away. The adaptive
// rebalancer does not read it: it windows the device's per-bucket
// counters (NIC.BucketPackets) itself and scores queues with
// rebalance.Skew. RSSSkewCumulative keeps the whole-run figure. 1.0
// when the window saw no traffic.
func (r *Runtime) RSSSkew() float64 {
	r.skewMu.Lock()
	defer r.skewMu.Unlock()
	if r.skewPrev == nil {
		r.skewPrev = make([]uint64, len(r.cores))
	}
	var total, max uint64
	for i, c := range r.cores {
		p := c.Stats().Processed
		d := p - r.skewPrev[i]
		r.skewPrev[i] = p
		total += d
		if d > max {
			max = d
		}
	}
	if total == 0 {
		return 1.0
	}
	mean := float64(total) / float64(len(r.cores))
	return float64(max) / mean
}

// RSSSkewCumulative is RSSSkew over the whole run (the pre-windowing
// semantics); the retina_rss_skew gauge and the admin status report
// read this, so existing dashboards see unchanged values.
func (r *Runtime) RSSSkewCumulative() float64 {
	var total, max uint64
	for _, c := range r.cores {
		p := c.Stats().Processed
		total += p
		if p > max {
			max = p
		}
	}
	if total == 0 {
		return 1.0
	}
	mean := float64(total) / float64(len(r.cores))
	return float64(max) / mean
}

// LatencySummary aggregates the rx→delivery histograms across cores.
type LatencySummary struct {
	Count  uint64
	P50Ns  float64
	P99Ns  float64
	P999Ns float64
}

// String renders the summary as the rx→delivery line the CLI tools
// print.
func (s LatencySummary) String() string {
	return fmt.Sprintf("latency (rx → delivery, %d samples): p50 %s  p99 %s  p99.9 %s",
		s.Count, metrics.FormatNanos(s.P50Ns), metrics.FormatNanos(s.P99Ns), metrics.FormatNanos(s.P999Ns))
}

// LatencySummary merges every core's rx→delivery histogram and returns
// its percentiles. Zero summary when LatencyTracking is off or nothing
// was delivered. Safe while the runtime processes traffic (counts are
// at-burst-boundary consistent).
func (r *Runtime) LatencySummary() LatencySummary {
	return r.summarizeLatency((*core.LatencyStats).RxHist)
}

// StageLatencySummary merges every core's sampled histogram for one
// pipeline stage and returns its percentiles (zero when tracking is
// off).
func (r *Runtime) StageLatencySummary(st core.Stage) LatencySummary {
	return r.summarizeLatency(func(l *core.LatencyStats) *telemetry.Histogram { return l.StageHist(st) })
}

// summarizeLatency merges the histogram pick selects from every core's
// latency stats and returns its percentiles.
func (r *Runtime) summarizeLatency(pick func(*core.LatencyStats) *telemetry.Histogram) LatencySummary {
	if len(r.cores) == 0 || r.cores[0].Latency() == nil {
		return LatencySummary{}
	}
	agg := telemetry.NewLogLinearHistogram(telemetry.LatencyLayout)
	for _, c := range r.cores {
		agg.Merge(pick(c.Latency()))
	}
	if agg.Count() == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count:  agg.Count(),
		P50Ns:  agg.Quantile(0.50),
		P99Ns:  agg.Quantile(0.99),
		P999Ns: agg.Quantile(0.999),
	}
}
