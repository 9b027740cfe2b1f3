package cluster

import (
	"fmt"
	"math"
	"sort"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/jumpstart/multistore"
	"jumpstart/internal/jumpstart/transport"
	"jumpstart/internal/netsim"
	"jumpstart/internal/parallel"
	"jumpstart/internal/scenario"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/workload"
)

// Config sizes the simulated fleet and its deployment behaviour.
type Config struct {
	Regions          int
	Buckets          int // semantic buckets per region (paper: 10)
	ServersPerBucket int
	TickSeconds      float64
	Seed             uint64

	// Warmup curves by boot flavour, measured by internal/server.
	CurveJumpStart   WarmupCurve
	CurveNoJumpStart WarmupCurve

	// Deployment plan. Fractions of the fleet restarted per phase;
	// holds are the soak times before the next phase starts.
	C1Fraction float64 // employee servers
	C2Fraction float64 // profile-collecting servers (paper: 2%)
	C1Hold     float64
	C2Hold     float64 // must cover seeding+validation (~30 min scaled)

	// C3Waves splits the C3 phase into rolling waves (the fleet-wide
	// restart is rate-limited in practice); C3WaveInterval spaces them.
	C3Waves        int
	C3WaveInterval float64

	// SeederDuration is how long a C2 server takes to produce and
	// validate a package after restart.
	SeederDuration float64
	// RestartDowntime is the gap between a server stopping and its
	// replacement process starting.
	RestartDowntime float64

	// Reliability model (Section VI). DefectRate is the probability a
	// seeder produces a crash-inducing package; ValidationCatchRate is
	// the fraction of defects caught before publishing; CrashDelay is
	// how long a consumer survives on a defective package before
	// crashing; MaxJSAttempts is the fallback threshold (VI-A3).
	DefectRate          float64
	ValidationCatchRate float64
	CrashDelay          float64
	MaxJSAttempts       int

	// JumpStartEnabled selects whether C3 servers consume packages or
	// warm up on their own (the paper's fleet-wide kill switch).
	JumpStartEnabled bool

	// CurveRemapped is the warmup curve for consumers booting from a
	// package carried across a revision boundary by the cross-release
	// remapper — between CurveJumpStart (exact profile) and
	// CurveNoJumpStart (cold). Empty means remapped boots reuse
	// CurveJumpStart.
	CurveRemapped WarmupCurve

	// CurveAggregated is the warmup curve for consumers booting from a
	// consensus package aggregated from several seeders' profiles
	// (Transport.Multi.AggregateSeeders > 1) — typically at or above
	// CurveJumpStart, since the merged profile covers more of the
	// workload than any single seeder's. Empty means aggregated boots
	// reuse CurveJumpStart.
	CurveAggregated WarmupCurve

	// PoolSize, when > 0, maintains a standby warm-pool boot tier: a
	// pool of pre-booted, pre-jump-started consumers that deployments
	// drain. When a C3 wave restarts a consumer and a standby is
	// available, the slot is swapped to the standby — at instant full
	// capacity — while the replaced instance reboots into the
	// pool in the background and becomes available again once warm.
	// An empty pool (drained faster than backfill) books a pool miss
	// and the server takes the normal restart path.
	PoolSize int
	// PoolBackfillRate caps how many rebooted instances may re-enter
	// the pool per virtual second (<= 0 means unthrottled): the knob
	// that trades pool freshness against churn pressure on the tier.
	PoolBackfillRate float64

	// WarmupMode selects eager (default) or lazy consumer warmup for
	// Jump-Start boots. Lazy boots serve immediately and page
	// translations in on first call; their capacity curve is CurveLazy.
	WarmupMode jumpstart.WarmupMode
	// CurveLazy is the warmup curve for lazy-mode Jump-Start boots,
	// measured by internal/server with a transport-backed pager. Empty
	// means lazy boots reuse CurveJumpStart.
	CurveLazy WarmupCurve

	// Scenario, when non-nil, modulates the fleet's traffic over
	// virtual time (internal/scenario): diurnal demand waves, flash
	// crowds, and regional failover drills. The engine is pure — every
	// query is a function of (region, t) — so wiring it changes only
	// the demand-weighted accounting (FleetTick.Demand/ScenCapacity)
	// and the failover curve selection, never the worker-count
	// determinism of the replay. Its Regions must match the fleet's.
	Scenario *scenario.Engine
	// CurveFailover is the warmup curve for Jump-Start boots in a
	// region that is absorbing a failed-over region's load (the
	// scenario says the region is Absorbing at boot time): warming
	// under double demand is slower than the nominal curve. Empty
	// means absorbed boots keep their flavour's normal curve; the
	// failover-boot counter books them either way.
	CurveFailover WarmupCurve

	// GeometryClasses, when > 1, splits the fleet into hardware
	// geometry classes (microarch.Config generations): each server is
	// deterministically assigned a class from the fleet seed, and a
	// package seeded on one geometry consumed on another books a
	// mismatch boot — the remap/replay-cache cost of heterogeneous
	// fleets. Zero or one means a uniform fleet.
	GeometryClasses int
	// CurveMismatch is the warmup curve for Jump-Start boots consuming
	// a package seeded on a different geometry class — between
	// CurveJumpStart (profile maps exactly) and CurveNoJumpStart
	// (cold). Empty means mismatched boots keep their flavour's normal
	// curve; the mismatch-boot counter books them either way.
	CurveMismatch WarmupCurve

	// PushEvery, when > 0, starts a new deployment (a code push of the
	// next revision) every PushEvery virtual seconds for as long as the
	// fleet runs — the paper's up-to-three-pushes-per-day churn regime,
	// compressed. Zero keeps pushes manual (StartDeployment).
	PushEvery float64
	// RemapPolicy decides the fate of published packages when a push
	// lands: ExactOnly (the zero value) invalidates every package, so
	// consumers boot cold until seeders republish; RemapTolerant
	// carries each package across the boundary through the remapper,
	// surviving with probability RemapHitRate.
	RemapPolicy jumpstart.CompatPolicy
	// RemapHitRate is the probability a package survives remapping
	// onto the next revision. Callers measure it on the real mutated
	// site with prof.Remap (internal/experiments does) rather than
	// picking a number. Only read under RemapTolerant.
	RemapHitRate float64

	// Workers shards the per-server replay inside each Tick across
	// goroutines (<= 0 means one per CPU). The tick result is
	// byte-identical at every worker count: per-server stepping is
	// independent, while every fleet-level RNG draw (package picks,
	// defect rolls) and the floating-point capacity reduction happen on
	// a single sequential pass in server-index order.
	Workers int

	// RecordSeries, when true, retains each server's per-tick capacity
	// series plus per-boot latency and time-to-steady samples for
	// post-run classification and SLO reporting (internal/obs). Off by
	// default: memory grows with ticks × servers. Samples are appended
	// in the sequential merge phase, in server-index order, so they are
	// byte-identical at every worker count.
	RecordSeries bool

	// Telem observes the fleet (may be nil). Per-server metrics are
	// recorded into per-shard collectors during the parallel replay and
	// merged in shard-index order, so enabling telemetry never changes
	// the simulation output at any worker count.
	Telem *telemetry.Set

	// Transport, when non-nil, routes every package publish and fetch
	// through the networked profile store (internal/jumpstart/transport)
	// over the simulated fabric instead of the in-memory package list.
	// With a healthy fabric (zero latency, zero faults) the tick series
	// is byte-identical to the direct path; under injected faults,
	// fetches burn virtual time retrying and can exhaust their budget,
	// which surfaces as a recorded no-Jump-Start fallback.
	Transport *TransportConfig
}

// TransportConfig configures the networked store path.
type TransportConfig struct {
	// Net is the fault fabric between servers and the store. Boots
	// sample the "consumer" link, seeder uploads the "seeder" link
	// (faults with an empty Link hit both).
	Net netsim.Config
	// Client tunes timeouts, backoff, and the per-boot deadline budget.
	// Client.Seed is ignored: each fetch derives its own deterministic
	// stream from the fleet seed and a fetch sequence number.
	Client transport.ClientConfig
	// PackageBytes sizes the synthetic package payloads seeders upload
	// (<= 0 selects 4096).
	PackageBytes int
	// ChunkSize is the server-side chunking granularity (<= 0 selects
	// the transport default).
	ChunkSize int
	// Multi, when non-nil, replaces the single store with the
	// multi-region hierarchy (per-region shards, K-way replication,
	// consumer failover down the replica list, cross-region
	// propagation) and optional seeder aggregation. In multi mode, Net
	// above configures the healthy intra-region links and
	// Multi.InterNet the lossy long-haul ones.
	Multi *MultiConfig
}

// MultiConfig configures the multi-region store hierarchy and the
// consensus-package pipeline.
type MultiConfig struct {
	// NodesPerRegion shards each region's buckets across store nodes
	// (<= 0 selects 1).
	NodesPerRegion int
	// Replicas is the in-region replication factor K (<= 0 selects 1,
	// capped at NodesPerRegion).
	Replicas int
	// PropagateEvery is the cross-region propagation cadence in
	// virtual seconds (<= 0 selects 60).
	PropagateEvery float64
	// InterNet configures the inter-region long-haul links
	// ("inter:r<SRC>-r<DST>" labels) — where brownouts and partitions
	// are scheduled while intra-region links stay healthy.
	InterNet netsim.Config
	// AggregateSeeders, when > 1, buffers seeder outputs per (region,
	// bucket) and publishes one consensus package per N seeders
	// instead of N individual ones. The consensus package is defective
	// only when a majority of its inputs were (validation by voting);
	// consumers booting from it warm on CurveAggregated. Buffers still
	// holding fewer than N outputs flush when the push reaches C3, so
	// a bucket with a single seeder still publishes.
	AggregateSeeders int
}

// DefaultConfig returns a modest fleet (3 regions × 10 buckets × 24
// servers = 720 servers).
func DefaultConfig() Config {
	return Config{
		Regions:          3,
		Buckets:          10,
		ServersPerBucket: 24,
		TickSeconds:      5,
		Seed:             1,

		C1Fraction: 0.005,
		C2Fraction: 0.02,
		C1Hold:     60,
		C2Hold:     240,

		C3Waves:        6,
		C3WaveInterval: 60,

		SeederDuration:  180,
		RestartDowntime: 10,

		DefectRate:          0,
		ValidationCatchRate: 0.95,
		CrashDelay:          60,
		MaxJSAttempts:       3,

		JumpStartEnabled: true,
	}
}

// warmupProgressBounds buckets a warming server's capacity fraction
// for the fleet.warmup_progress histogram.
var warmupProgressBounds = []float64{0.25, 0.5, 0.75, 0.9, 0.99}

type srvState int

const (
	stRunning srvState = iota
	stDown             // restart gap
	stWarming          // running its warmup curve
	stSeeding          // C2 seeder collecting a package
)

type simServer struct {
	idx            int // position in Fleet.servers
	region, bucket int
	group          int // 1, 2, 3 = deployment phase
	geom           int // hardware geometry class (Config.GeometryClasses)
	state          srvState
	stateT         float64 // time the state was entered
	curve          *WarmupCurve

	// Reliability.
	pkg        int // index into the bucket's package list, -1 none
	attempts   int
	crashAt    float64 // absolute time of impending crash, 0 = none
	usedJS     bool
	fellBack   bool
	everCrashd int
	fbReason   string // why the last boot skipped Jump-Start ("" = it didn't)

	// Causal span state: the open boot span (0 = none) and the time the
	// boot began. The span opens in bootServer and closes — always from
	// the sequential merge phase — when the server reaches steady
	// capacity, crashes, or is force-restarted by the next push.
	bootSpan uint64
	bootT    float64

	// seriesFrom is the index into the server's recorded capacity
	// series where its first boot of the current push began — the
	// start of the suffix WarmupSeries slices out. Crash reboots do
	// not move it (seriesMarked), so a crash-looping server's curve
	// keeps the dips and classifies as non-monotonic rather than as a
	// clean warmup. Only maintained under Config.RecordSeries.
	seriesFrom   int
	seriesMarked bool
}

type pkgInfo struct {
	defective  bool
	remapped   bool                // carried across a push by the remapper
	aggregated bool                // consensus package merged from several seeders
	geom       int                 // geometry class of the seeder that produced it
	id         jumpstart.PackageID // store id when the single-store transport is wired
	entry      *multistore.Entry   // logical entry when the multi-region hierarchy is wired
	payload    []byte              // uploaded body, kept so a remap-tolerant push can republish it
}

// Fleet is the running simulation.
type Fleet struct {
	cfg     Config
	servers []simServer
	// packages per (region, bucket).
	packages map[[2]int][]pkgInfo
	now      float64
	rng      uint64

	// Deployment schedule state.
	deploying  bool
	phase      int // 0 idle, 1..3 = C1..C3
	phaseStart float64
	c3Wave     int
	lastPush   float64
	revision   uint64 // current code revision, bumped per push

	// Warm-pool tier state. All of it is touched only from sequential
	// code (Tick preamble + wave restarts), so pool behaviour is
	// worker-count deterministic by construction.
	poolAvail      int       // standbys ready to swap in now
	poolPending    []float64 // ready times of instances rebooting into the pool (ascending)
	backfillCredit float64   // accumulated PoolBackfillRate admissions
	poolDrains     int
	poolBackfills  int
	poolMisses     int

	// Counters.
	crashes   int
	fallbacks int
	boots     [numFlavours]int // Jump-Start boots booked per flavour (bookFlavours)
	pkgsKept  int              // packages carried across pushes by the remapper
	pkgsLost  int              // packages dropped at a push (remap miss or exact-only wipe)
	fbReasons map[string]int

	// Scenario accounting. regionCap is per-tick scratch; everything
	// else is touched only from sequential code, so scenarios never
	// perturb worker-count determinism.
	regionCap     []float64
	failoverBoots int     // boots started while the region was absorbing failed-over load
	darkTicks     int     // ticks with at least one region down
	demandPeak    float64 // max fleet demand multiplier observed
	demandTrough  float64 // min fleet demand multiplier observed
	prevDark      bool    // failover drill state, for transition events

	// src is the store behind the package lists, chosen once in
	// NewFleet from Config.Transport; the counters below book what it
	// returns and stay zero for sources without the feature.
	src       packageSource
	failovers int // replica legs that failed before a fetch was served
	aggPkgs   int // consensus packages published
	propOK    int // entries propagated across regions
	propFail  int // propagation transfers defeated by the long-haul net

	// Warmup curves by boot flavour (nil = unconfigured) and the
	// flavours every Jump-Start boot of this fleet matches.
	curves       curveTable
	modeFlavours flavourSet

	// scratch is the reusable per-tick result buffer for the parallel
	// server-stepping phase.
	scratch []srvTick

	// Observability samples (allocated only under Config.RecordSeries;
	// appended in the sequential merge phase, server-index order).
	series  [][]float64 // per-server per-tick capacity
	bootLat []float64   // completed boots: boot start → steady capacity
	tts     []float64   // completed boots: warmup start → steady capacity

	// Telemetry. shardTel holds one collector per replay shard; every
	// parallel-phase observation goes to the stepping shard's collector
	// and the collectors are folded into tel.Metrics — in shard-index
	// order — once the shards have joined. Sequential-phase events and
	// gauges use tel directly.
	tel      *telemetry.Set
	shardTel *telemetry.Shards
	gCap     *telemetry.Gauge
	gDown    *telemetry.Gauge
	gWarming *telemetry.Gauge
	gRunning *telemetry.Gauge
	gPhase   *telemetry.Gauge
	gPkgs    *telemetry.Gauge
	cCrashes *telemetry.Counter
	cFallbk  *telemetry.Counter
	cBoots   [2]*telemetry.Counter // indexed by usedJS
}

// NewFleet builds the fleet with all servers warm.
func NewFleet(cfg Config) (*Fleet, error) {
	if cfg.Regions <= 0 || cfg.Buckets <= 0 || cfg.ServersPerBucket <= 0 {
		return nil, fmt.Errorf("cluster: invalid fleet dimensions")
	}
	if cfg.Scenario != nil && cfg.Scenario.Config().Regions != cfg.Regions {
		return nil, fmt.Errorf("cluster: scenario spans %d regions, fleet has %d",
			cfg.Scenario.Config().Regions, cfg.Regions)
	}
	if cfg.GeometryClasses < 0 {
		return nil, fmt.Errorf("cluster: negative GeometryClasses %d", cfg.GeometryClasses)
	}
	if !(cfg.TickSeconds > 0) {
		return nil, fmt.Errorf("cluster: TickSeconds %v must be positive", cfg.TickSeconds)
	}
	f := &Fleet{
		cfg:       cfg,
		packages:  make(map[[2]int][]pkgInfo),
		rng:       cfg.Seed*2862933555777941757 + 3037000493,
		fbReasons: make(map[string]int),
		revision:  1,
		poolAvail: cfg.PoolSize,
		tel:       cfg.Telem,
	}
	var err error
	if f.curves, err = resolveCurves(&f.cfg); err != nil {
		return nil, err
	}
	f.modeFlavours[flLazy] = cfg.WarmupMode == jumpstart.WarmupLazy
	f.src = newSource(f)
	total := cfg.Regions * cfg.Buckets * cfg.ServersPerBucket
	n1 := int(math.Ceil(cfg.C1Fraction * float64(total)))
	n2 := int(math.Ceil(cfg.C2Fraction * float64(total)))
	if n1 < 1 {
		n1 = 1
	}
	if n2 < cfg.Regions*cfg.Buckets {
		// At least one seeder per (region, bucket) pair.
		n2 = cfg.Regions * cfg.Buckets
	}
	idx := 0
	for r := 0; r < cfg.Regions; r++ {
		for b := 0; b < cfg.Buckets; b++ {
			for k := 0; k < cfg.ServersPerBucket; k++ {
				s := simServer{idx: idx, region: r, bucket: b, state: stRunning, pkg: -1}
				if cfg.GeometryClasses > 1 {
					// Geometry is a property of the rack the server
					// landed on: a fixed deterministic draw from the
					// fleet seed, independent of everything else.
					s.geom = int(workload.Fork(cfg.Seed, 0x6e00+uint64(idx)) %
						uint64(cfg.GeometryClasses))
				}
				switch {
				case idx < n1:
					s.group = 1
				case idx < n1+n2 || k == 0:
					s.group = 2
				default:
					s.group = 3
				}
				f.servers = append(f.servers, s)
				idx++
			}
		}
	}
	if cfg.RecordSeries {
		f.series = make([][]float64, total)
	}
	f.regionCap = make([]float64, cfg.Regions)
	f.demandTrough = math.Inf(1)
	if f.tel != nil {
		f.shardTel = telemetry.NewShards(f.tel.Metrics,
			parallel.ShardCount(cfg.Workers, total))
		f.gCap = f.tel.Gauge("fleet.capacity")
		f.gDown = f.tel.Gauge("fleet.down")
		f.gWarming = f.tel.Gauge("fleet.warming")
		f.gRunning = f.tel.Gauge("fleet.running")
		f.gPhase = f.tel.Gauge("fleet.deploy_phase")
		f.gPkgs = f.tel.Gauge("fleet.packages_avail")
		f.cCrashes = f.tel.Counter("fleet.crashes_total")
		f.cFallbk = f.tel.Counter("fleet.fallbacks_total")
		f.cBoots[0] = f.tel.Counter("fleet.boots_nojumpstart_total")
		f.cBoots[1] = f.tel.Counter("fleet.boots_jumpstart_total")
		f.tel.Event(0, "fleet", "start",
			telemetry.I("servers", int64(total)),
			telemetry.I("regions", int64(cfg.Regions)),
			telemetry.I("buckets", int64(cfg.Buckets)))
	}
	return f, nil
}

func (f *Fleet) rand() uint64 {
	f.rng ^= f.rng << 13
	f.rng ^= f.rng >> 7
	f.rng ^= f.rng << 17
	return f.rng
}

func (f *Fleet) randFloat() float64 {
	return float64(f.rand()>>11) / (1 << 53)
}

// StartDeployment begins a C1→C2→C3 push of a new revision. What
// happens to the packages published against the previous revision is
// the store compatibility policy: ExactOnly wipes them (consumers boot
// cold until the new revision's seeders republish), RemapTolerant
// carries them across the boundary through the remapper.
func (f *Fleet) StartDeployment() {
	f.deploying = true
	if f.series != nil {
		// A new push starts a new lifecycle: WarmupSeries re-anchors
		// at each server's first boot under this push. seriesFrom must
		// be re-anchored along with the mark — a server that never
		// boots in this push (a pooled slot the wave skipped, a group
		// the push never reaches) would otherwise slice from the
		// previous push's offset and replay that push's warmup instead
		// of contributing its flat series under this one.
		for i := range f.servers {
			f.servers[i].seriesMarked = false
			f.servers[i].seriesFrom = len(f.series[i])
		}
	}
	f.phase = 0
	f.phaseStart = f.now
	f.lastPush = f.now
	f.revision++
	f.turnOverPackages()
	f.tel.Event(f.now, "fleet", "deployment-start",
		telemetry.I("revision", int64(f.revision)))
}

// turnOverPackages decides the fate of the previous revision's
// packages at a push. Under ExactOnly every one is invalidated, with no
// draw from the fleet RNG. Under RemapTolerant each is carried across
// by the remapper with probability RemapHitRate (measured on the real
// mutated site by callers) and marked remapped — consumers booting from
// it warm on CurveRemapped. Buckets are walked in sorted order so the
// draw sequence never depends on map iteration.
func (f *Fleet) turnOverPackages() {
	tolerant := f.cfg.RemapPolicy == jumpstart.RemapTolerant
	// The new revision gets a fresh store namespace; survivors are
	// republished into it below, stamped with the new revision.
	f.src.reset()
	kept, lost := 0, 0
	for _, key := range sortedKeys(f.packages) {
		list := f.packages[key]
		out := list[:0]
		for _, info := range list {
			if !tolerant || f.randFloat() >= f.cfg.RemapHitRate {
				lost++
				continue
			}
			info.remapped = true
			out = append(out, f.src.carry(key, info))
			kept++
		}
		if len(out) == 0 {
			delete(f.packages, key)
		} else {
			f.packages[key] = out
		}
	}
	f.pkgsKept += kept
	f.pkgsLost += lost
	if tolerant {
		f.tel.Event(f.now, "fleet", "remap-packages",
			telemetry.I("revision", int64(f.revision)),
			telemetry.I("kept", int64(kept)),
			telemetry.I("lost", int64(lost)))
	}
}

// setDeployPhase advances the push phase and records the transition.
func (f *Fleet) setDeployPhase(phase int) {
	f.tel.Event(f.now, "fleet", "deployment-phase",
		telemetry.I("from", int64(f.phase)), telemetry.I("to", int64(phase)))
	f.phase = phase
	f.phaseStart = f.now
}

// FleetTick is one sample of the fleet time series.
type FleetTick struct {
	T          float64
	Capacity   float64 // fraction of fleet steady capacity, 0..1
	Down       int     // servers not serving at all
	Warming    int
	Crashes    int // cumulative
	Fallbacks  int // cumulative no-Jump-Start fallbacks
	Phase      int
	PkgsAvail  int
	Deployment bool
	Revision   uint64 // current code revision (bumps at each push)
	RemapBoots int    // cumulative boots from remapped packages
	PoolAvail  int    // standbys available in the warm pool

	// Scenario accounting, always populated: without a scenario,
	// Demand is 1, ScenCapacity equals Capacity, and RegionsDark is 0.
	Demand       float64 // fleet demand multiplier this tick (fraction of steady)
	ScenCapacity float64 // demand-weighted capacity: served / demanded, 0..1
	RegionsDark  int     // regions a failover drill has taken down this tick
}

// srvTick is one server's contribution to a tick, produced by the
// parallel phase and merged sequentially.
type srvTick struct {
	capacity      float64
	down, warming int
	crashed       bool // increments the fleet crash counter
	warmed        bool // reached steady capacity this tick: spans close in the merge
	needsBoot     bool // bootServer draws fleet RNG: deferred to the merge
	needsPublish  bool // publishFrom draws fleet RNG: deferred to the merge
}

// stepServer advances one server's state machine for the current tick.
// It touches only that server's fields (safe to run concurrently
// across servers) and flags — rather than performs — every action that
// draws from the shared fleet RNG.
func (f *Fleet) stepServer(s *simServer) srvTick {
	var r srvTick
	// Defective-package crash (Section VI-A2's failure mode): a
	// bad package can take the server down whether it is still
	// warming or already at full capacity.
	if (s.state == stWarming || s.state == stRunning) &&
		s.crashAt > 0 && f.now >= s.crashAt {
		r.crashed = true
		s.everCrashd++
		s.crashAt = 0
		s.state = stDown
		s.stateT = f.now
		r.down = 1
		return r
	}
	switch s.state {
	case stRunning:
		r.capacity = 1
	case stDown:
		r.down = 1
		if f.now-s.stateT >= f.cfg.RestartDowntime {
			r.needsBoot = true
		}
	case stSeeding:
		// Seeders serve while collecting (they run the normal
		// no-JS warmup curve), then publish.
		r.capacity = s.curve.At(f.now - s.stateT)
		if f.now-s.stateT >= f.cfg.SeederDuration {
			r.needsPublish = true
			s.state = stWarming // continue warming as usual
		} else {
			r.warming = 1
		}
	case stWarming:
		v := s.curve.At(f.now - s.stateT)
		r.capacity = v
		if v >= s.curve.SteadyValue()-1e-9 {
			s.state = stRunning
			// Only the flag: recording the warmup span draws a trace
			// sequence number, which must happen on the sequential
			// merge pass to stay worker-count deterministic.
			r.warmed = true
		} else {
			r.warming = 1
		}
	}
	return r
}

// Tick advances the fleet one step. Per-server replay is sharded
// across cfg.Workers goroutines; the merge below then walks the
// results in server-index order, so the RNG draw sequence and the
// floating-point capacity sum are exactly those of a sequential run.
func (f *Fleet) Tick() FleetTick {
	dt := f.cfg.TickSeconds
	f.now += dt

	f.noteScenarioTransitions()

	// Admit rebooted instances back into the warm pool before any
	// restart logic runs, so a standby that finished warming by this
	// tick can serve the wave that fires on it.
	f.backfillPool(dt)

	// Continuous-deployment cadence: a push lands every PushEvery
	// seconds. A still-running push defers the next one (pushes never
	// overlap; the cadence clock restarts when the new push begins).
	if f.cfg.PushEvery > 0 && !f.deploying && f.now-f.lastPush >= f.cfg.PushEvery {
		f.StartDeployment()
	}

	f.advanceDeployment()

	// The source's background work (cross-region propagation) runs in
	// the sequential phase, before the parallel replay, so every
	// transfer's stream forks land at a worker-count-independent point.
	transferred, failed := f.src.step()
	f.propOK += transferred
	f.propFail += failed

	if cap(f.scratch) < len(f.servers) {
		f.scratch = make([]srvTick, len(f.servers))
	}
	res := f.scratch[:len(f.servers)]
	parallel.ForEachShardIndexed(f.cfg.Workers, len(f.servers), func(shard, lo, hi int) {
		// Shard-private collectors: resolved once per shard per tick,
		// folded into the base registry in shard-index order below.
		var cSteps *telemetry.Counter
		var hWarm *telemetry.Histogram
		if reg := f.shardTel.Shard(shard); reg != nil {
			cSteps = reg.Counter("fleet.steps_total")
			hWarm = reg.Histogram("fleet.warmup_progress", warmupProgressBounds)
		}
		for i := lo; i < hi; i++ {
			res[i] = f.stepServer(&f.servers[i])
			cSteps.Inc()
			if res[i].warming == 1 {
				hWarm.Observe(res[i].capacity)
			}
		}
	})
	f.shardTel.Merge()

	capacity := 0.0
	down, warming := 0, 0
	for r := range f.regionCap {
		f.regionCap[r] = 0
	}
	for i := range res {
		r := &res[i]
		s := &f.servers[i]
		if r.crashed {
			f.crashes++
			f.cCrashes.Inc()
			f.tel.Event(f.now, "fleet", "crash",
				telemetry.I("server", int64(i)),
				telemetry.I("region", int64(s.region)),
				telemetry.I("bucket", int64(s.bucket)))
			// The boot never reached steady capacity.
			f.closeBootSpan(s, "crash")
		}
		if r.warmed && s.bootSpan != 0 {
			// The server reached steady capacity this tick: the warmup
			// span tiles [warmup start, now] and the boot span closes
			// over [boot start, now] — children (fetch + warmup) sum
			// exactly to the parent duration.
			f.tel.SpanUnder(s.bootSpan, s.stateT, f.now, "boot", "warmup",
				telemetry.B("jumpstart", s.usedJS))
			f.closeBootSpan(s, "warmed")
			if f.cfg.RecordSeries {
				f.bootLat = append(f.bootLat, f.now-s.bootT)
				f.tts = append(f.tts, f.now-s.stateT)
			}
		}
		// Publish before boot preserves the sequential intra-tick
		// ordering: a package published by server i is visible to any
		// server j > i booting in the same tick (and a server never
		// does both).
		if r.needsPublish {
			f.publishFrom(s)
		}
		if r.needsBoot {
			f.bootServer(s)
		}
		if f.series != nil {
			f.series[i] = append(f.series[i], r.capacity)
		}
		capacity += r.capacity
		f.regionCap[s.region] += r.capacity
		down += r.down
		warming += r.warming
	}

	total := float64(len(f.servers))
	pkgs := 0
	for _, list := range f.packages {
		pkgs += len(list)
	}
	demand, scenCap, dark := f.scenarioAccounting(capacity / total)
	f.gCap.Set(capacity / total)
	f.gDown.Set(float64(down))
	f.gWarming.Set(float64(warming))
	f.gRunning.Set(float64(len(f.servers) - down - warming))
	f.gPhase.Set(float64(f.phase))
	f.gPkgs.Set(float64(pkgs))
	return FleetTick{
		T:            f.now,
		Capacity:     capacity / total,
		Down:         down,
		Warming:      warming,
		Crashes:      f.crashes,
		Fallbacks:    f.fallbacks,
		Phase:        f.phase,
		PkgsAvail:    pkgs,
		Deployment:   f.deploying,
		Revision:     f.revision,
		RemapBoots:   f.boots[flRemapped],
		PoolAvail:    f.poolAvail,
		Demand:       demand,
		ScenCapacity: scenCap,
		RegionsDark:  dark,
	}
}

// scenarioAccounting folds the scenario's per-region demand against
// the per-region capacity sums: ScenCapacity is served demand over
// total demand, where a dark region's own capacity serves nothing (its
// load has been dumped on the survivors) and capacity beyond a
// region's demand is headroom, not service. Without a scenario the
// fleet demands exactly its steady capacity everywhere, so the
// demand-weighted view collapses to the plain capacity fraction.
func (f *Fleet) scenarioAccounting(plainCap float64) (demand, scenCap float64, dark int) {
	sc := f.cfg.Scenario
	if sc == nil {
		return 1, plainCap, 0
	}
	perRegion := float64(f.cfg.Buckets * f.cfg.ServersPerBucket)
	totalDemand, served := 0.0, 0.0
	for r := 0; r < f.cfg.Regions; r++ {
		d := sc.EffectiveDemand(r, f.now) * perRegion
		c := f.regionCap[r]
		if sc.RegionDown(r, f.now) {
			dark++
			c = 0
		}
		if c > d {
			c = d
		}
		served += c
		totalDemand += d
	}
	scenCap = 1.0
	if totalDemand > 0 {
		scenCap = served / totalDemand
	}
	demand = totalDemand / float64(len(f.servers))
	if demand > f.demandPeak {
		f.demandPeak = demand
	}
	if demand < f.demandTrough {
		f.demandTrough = demand
	}
	if dark > 0 {
		f.darkTicks++
	}
	f.tel.Gauge("fleet.demand").Set(demand)
	f.tel.Gauge("fleet.scen_capacity").Set(scenCap)
	return demand, scenCap, dark
}

// noteScenarioTransitions emits region-down / region-up telemetry
// events at the edges of a failover drill. Pure bookkeeping: it reads
// the engine and writes telemetry, never the simulation state.
func (f *Fleet) noteScenarioTransitions() {
	sc := f.cfg.Scenario
	if sc == nil {
		return
	}
	down := sc.AnyRegionDown(f.now)
	if down == f.prevDark {
		return
	}
	f.prevDark = down
	kind := "region-up"
	if down {
		kind = "region-down"
	}
	f.tel.Event(f.now, "fleet", kind,
		telemetry.I("region", int64(sc.Config().FailRegion)))
}

// advanceDeployment moves the push through its phases.
func (f *Fleet) advanceDeployment() {
	if !f.deploying {
		return
	}
	switch f.phase {
	case 0:
		f.restartGroup(1)
		f.setDeployPhase(1)
	case 1:
		if f.now-f.phaseStart >= f.cfg.C1Hold {
			f.restartGroup(2)
			f.setDeployPhase(2)
		}
	case 2:
		if f.now-f.phaseStart >= f.cfg.C2Hold {
			// Consumers are about to boot: flush partial consensus
			// buffers so buckets with fewer seeders than
			// AggregateSeeders still publish.
			f.src.flush()
			f.setDeployPhase(3)
			f.c3Wave = 0
			f.restartC3Wave()
		}
	case 3:
		waves := f.cfg.C3Waves
		if waves < 1 {
			waves = 1
		}
		if f.c3Wave < waves &&
			f.now-f.phaseStart >= float64(f.c3Wave)*f.cfg.C3WaveInterval {
			f.restartC3Wave()
		}
		if f.c3Wave < waves {
			return
		}
		// Deployment completes when everyone is running again.
		done := true
		for i := range f.servers {
			if f.servers[i].state != stRunning {
				done = false
				break
			}
		}
		if done {
			f.src.flush()
			f.deploying = false
			f.phase = 0
			f.tel.Event(f.now, "fleet", "deployment-done",
				telemetry.I("crashes", int64(f.crashes)),
				telemetry.I("fallbacks", int64(f.fallbacks)))
		}
	}
}

// restartC3Wave restarts the next slice of group-3 servers.
func (f *Fleet) restartC3Wave() {
	waves := f.cfg.C3Waves
	if waves < 1 {
		waves = 1
	}
	var members []int
	for i := range f.servers {
		if f.servers[i].group == 3 {
			members = append(members, i)
		}
	}
	per := (len(members) + waves - 1) / waves
	// Small fleets can have fewer C3 members than waves; later waves
	// are then empty rather than out of range.
	lo := f.c3Wave * per
	if lo > len(members) {
		lo = len(members)
	}
	hi := lo + per
	if hi > len(members) {
		hi = len(members)
	}
	swapped := 0
	for _, idx := range members[lo:hi] {
		s := &f.servers[idx]
		f.stopServer(s)
		// Warm-pool tier: swap the restarting consumer for a standby
		// when one is available; the replaced instance reboots into
		// the pool in the background. An empty pool is a miss and the
		// server takes the normal restart path.
		if f.cfg.PoolSize > 0 {
			if f.poolAvail > 0 {
				f.swapFromPool(s)
				swapped++
				continue
			}
			f.poolMisses++
			f.tel.Counter("fleet.pool_misses_total").Inc()
		}
	}
	f.tel.Event(f.now, "fleet", "c3-wave",
		telemetry.I("wave", int64(f.c3Wave)),
		telemetry.I("restarted", int64(hi-lo-swapped)),
		telemetry.I("swapped", int64(swapped)))
	f.c3Wave++
}

// poolRebootSeconds is how long a replaced instance takes to reboot
// and re-warm into the pool: the restart gap plus a full run of the
// curve a fresh boot of this fleet would replay. Constant within a
// run, so pending ready-times are appended in ascending order.
func (f *Fleet) poolRebootSeconds() float64 {
	fl := flCold
	if f.cfg.JumpStartEnabled {
		fl = f.curves.choose(f.modeFlavours)
	}
	return f.cfg.RestartDowntime + f.curves[fl].TimeToFraction(1)
}

// swapFromPool brings a just-stopped consumer's slot straight back up
// on a warm standby: it serves immediately at full capacity while the
// old instance's reboot is queued to backfill the pool. Only called
// from the sequential wave-restart path.
func (f *Fleet) swapFromPool(s *simServer) {
	f.poolAvail--
	f.poolDrains++
	f.poolPending = append(f.poolPending, f.now+f.poolRebootSeconds())
	f.beginBoot(s)
	s.state = stWarming
	s.usedJS = true
	s.curve = f.curves[flPooled]
	f.tel.Counter("fleet.boots_pooled_total").Inc()
	f.tel.Event(f.now, "fleet", "boot-pooled",
		telemetry.I("region", int64(s.region)),
		telemetry.I("bucket", int64(s.bucket)),
		telemetry.I("pool_avail", int64(f.poolAvail)))
}

// backfillPool admits rebooted instances whose warmup has completed
// back into the pool, throttled by PoolBackfillRate. Runs at the top
// of every tick, before restart logic, in sequential code only.
func (f *Fleet) backfillPool(dt float64) {
	if f.cfg.PoolSize <= 0 || len(f.poolPending) == 0 {
		return
	}
	if f.cfg.PoolBackfillRate > 0 {
		f.backfillCredit += dt * f.cfg.PoolBackfillRate
		// Credit never banks beyond one pool's worth: a long quiet
		// stretch must not buy an instantaneous full refill later.
		if max := float64(f.cfg.PoolSize); f.backfillCredit > max {
			f.backfillCredit = max
		}
	}
	n := 0
	for n < len(f.poolPending) && f.poolPending[n] <= f.now && f.poolAvail < f.cfg.PoolSize {
		if f.cfg.PoolBackfillRate > 0 {
			if f.backfillCredit < 1 {
				break
			}
			f.backfillCredit--
		}
		f.poolAvail++
		f.poolBackfills++
		n++
	}
	if n > 0 {
		f.poolPending = append(f.poolPending[:0], f.poolPending[n:]...)
		f.tel.Counter("fleet.pool_backfills_total").Add(uint64(n))
		f.tel.Event(f.now, "fleet", "pool-backfill",
			telemetry.I("admitted", int64(n)),
			telemetry.I("pool_avail", int64(f.poolAvail)))
	}
}

func (f *Fleet) restartGroup(group int) {
	for i := range f.servers {
		if s := &f.servers[i]; s.group == group {
			f.stopServer(s)
		}
	}
}

// stopServer takes a server down for a push: whatever boot was in
// flight is cut short and its Jump-Start history starts over.
func (f *Fleet) stopServer(s *simServer) {
	f.closeBootSpan(s, "restarted")
	s.state = stDown
	s.stateT = f.now
	s.pkg = -1
	s.attempts = 0
	s.crashAt = 0
	s.fbReason = ""
}

// closeBootSpan closes a server's open boot span, if any: the boot
// reached steady capacity ("warmed"), died on a defective package
// ("crash"), or was cut short by a push ("restarted") — so no child
// span is left referencing a parent that never lands.
func (f *Fleet) closeBootSpan(s *simServer, outcome string) {
	if s.bootSpan == 0 {
		return
	}
	attrs := []telemetry.Attr{
		telemetry.I("server", int64(s.idx)), telemetry.S("outcome", outcome)}
	switch outcome {
	case "warmed":
		attrs = append(attrs, telemetry.B("jumpstart", s.usedJS))
	case "restarted":
		attrs = attrs[1:] // forced restarts have never carried the server id
	}
	f.tel.EndSpan(s.bootSpan, 0, s.bootT, f.now, "boot", "boot", attrs...)
	s.bootSpan = 0
}

// beginBoot opens a boot at the current tick: its causal root span and,
// under RecordSeries, the warmup-series anchor. Boots only begin on the
// sequential pass, so the span-ID draw order is independent of the
// worker count.
func (f *Fleet) beginBoot(s *simServer) {
	s.stateT = f.now
	s.bootT = f.now
	s.bootSpan = f.tel.BeginSpan()
	if f.series != nil && !s.seriesMarked {
		// This tick's capacity sample has not been appended yet, so the
		// current length is exactly where the restart dip begins.
		s.seriesFrom = len(f.series[s.idx])
		s.seriesMarked = true
	}
}

// bootServer starts a stopped server: C2 servers come up as seeders;
// others run the paper's consumer protocol (§VI-A3) — a randomly
// selected package, a bounded number of attempts, then a
// no-Jump-Start fallback. It is the only place a package boot is
// booked, whatever store the package came from.
func (f *Fleet) bootServer(s *simServer) {
	f.beginBoot(s)
	absorbed := f.cfg.Scenario != nil && f.cfg.Scenario.Absorbing(s.region, f.now)
	if absorbed {
		// The region is carrying a failed-over region's load: every
		// boot here — seeder, Jump-Start, or cold — warms under the
		// absorbed demand, and the drill's cost shows up as these.
		f.failoverBoots++
		f.tel.Counter("fleet.boots_failover_total").Inc()
	}
	// Every boot starts out cold; a fetched package upgrades it below.
	s.usedJS = false
	s.curve = f.curves[flCold]
	if s.group == 2 {
		s.state = stSeeding
		f.tel.Event(f.now, "fleet", "boot-seeder",
			telemetry.I("region", int64(s.region)),
			telemetry.I("bucket", int64(s.bucket)))
		return
	}
	list := f.packages[[2]int{s.region, s.bucket}]
	switch {
	case !f.cfg.JumpStartEnabled:
	case len(list) == 0:
		// Not counted as a fallback (there was nothing to fall back
		// from), but recorded so a post-run audit can tell "never
		// needed Jump-Start" from "wanted it, got nothing".
		s.fbReason = "no package available"
	case s.attempts >= f.cfg.MaxJSAttempts:
		f.fallback(s, "max attempts exceeded")
	default:
		// Avoid the exact package that just crashed us when
		// alternatives exist.
		avoid := -1
		if s.pkg >= 0 && s.pkg < len(list) && len(list) > 1 {
			avoid = s.pkg
		}
		// Exactly one fleet-RNG draw per Jump-Start boot, whatever the
		// source — keeping the draw sequence identical is what makes a
		// healthy transport byte-identical to the in-memory store.
		got := f.src.fetch(s, f.rand(), list, avoid)
		// A failed fetch still consumes an attempt, and whichever boot
		// follows starts once the fetch's virtual time has passed.
		s.attempts++
		s.stateT = f.now + got.elapsed
		f.failovers += got.failovers
		if got.reason != "" {
			f.fallback(s, got.reason)
			break
		}
		// A fetched package with no local record defaults to the
		// server's own geometry (so it never books a phantom mismatch)
		// and is not defective.
		info := pkgInfo{geom: s.geom}
		if got.idx >= 0 {
			info = list[got.idx]
		}
		applies := f.modeFlavours
		applies[flFailover] = absorbed
		applies[flAggregated] = info.aggregated
		applies[flMismatch] = f.cfg.GeometryClasses > 1 && info.geom != s.geom
		applies[flRemapped] = info.remapped
		chosen := f.curves.choose(applies)
		f.bookFlavours(applies, chosen)
		s.pkg = got.idx
		s.usedJS = true
		s.fbReason = ""
		s.state = stWarming
		s.curve = f.curves[chosen]
		if info.defective {
			s.crashAt = s.stateT + f.cfg.CrashDelay
		}
		f.cBoots[1].Inc()
		if f.tel != nil {
			// Built only with telemetry on: the networked sources append
			// their attributes, which sends the slice to the heap.
			f.tel.Event(f.now, "fleet", "boot-jumpstart", f.src.fetchAttrs([]telemetry.Attr{
				telemetry.I("region", int64(s.region)),
				telemetry.I("bucket", int64(s.bucket)),
				telemetry.I("pkg", int64(got.idx)),
				telemetry.I("attempt", int64(s.attempts))}, got)...)
		}
		return
	}
	// No-Jump-Start boot (disabled, no package, or fallback).
	s.state = stWarming
	s.pkg = -1
	f.cBoots[0].Inc()
}

// bookFlavours counts one Jump-Start boot under the flavours it
// matched. Pinned quirk (FleetTick.RemapBoots is simulated output):
// aggregated and mismatch boots are booked whenever they apply, but a
// remapped or lazy boot is booked only when no higher-precedence
// flavour's configured curve won the boot — the remap/lazy counters
// stop at the curve that was actually replayed. Failover-absorbed
// boots are booked in bootServer, since cold and seeder boots count
// too.
func (f *Fleet) bookFlavours(applies flavourSet, chosen flavour) {
	for _, fl := range [...]flavour{flMismatch, flAggregated, flRemapped, flLazy} {
		if !applies[fl] || (fl <= flRemapped && chosen > fl) {
			continue
		}
		f.boots[fl]++
		f.tel.Counter(flavourCounters[fl]).Inc()
	}
}

// fallback books a no-Jump-Start fallback with its reason.
func (f *Fleet) fallback(s *simServer, reason string) {
	f.fallbacks++
	s.fellBack = true
	s.fbReason = reason
	f.fbReasons[reason]++
	f.cFallbk.Inc()
	f.tel.Event(f.now, "fleet", "fallback",
		telemetry.I("region", int64(s.region)),
		telemetry.I("bucket", int64(s.bucket)),
		telemetry.I("attempts", int64(s.attempts)),
		telemetry.S("reason", reason))
}

// publishFrom hands the package a seeder collected to the source,
// applying the defect/validation model.
func (f *Fleet) publishFrom(s *simServer) {
	defective := f.randFloat() < f.cfg.DefectRate
	if defective && f.randFloat() < f.cfg.ValidationCatchRate {
		// Caught by validation: the seeder retries; model as a
		// successful (non-defective) package published after the
		// extra soak already covered by SeederDuration.
		defective = false
	}
	// A package carries its seeder's geometry class: consumers on a
	// different class book a mismatch boot when they replay it.
	f.src.publish([2]int{s.region, s.bucket}, pkgInfo{defective: defective, geom: s.geom})
}

// register books the outcome of a source's store write for a seeder
// output. A failed write (err != nil) simply drops the package —
// consumers degrade to no-Jump-Start boots, nothing crashes. detail
// carries source-specific event attributes.
func (f *Fleet) register(key [2]int, info pkgInfo, err error, detail ...telemetry.Attr) {
	region, bucket := telemetry.I("region", int64(key[0])), telemetry.I("bucket", int64(key[1]))
	if err != nil {
		f.tel.Counter("fleet.publish_failed_total").Inc()
		f.tel.Event(f.now, "fleet", "publish-failed", region, bucket,
			telemetry.S("err", err.Error()))
		return
	}
	if info.aggregated {
		f.aggPkgs++
		f.tel.Counter("fleet.consensus_published_total").Inc()
	}
	f.tel.Counter("fleet.published_total").Inc()
	f.tel.Event(f.now, "fleet", "publish", append([]telemetry.Attr{
		region, bucket, telemetry.B("defective", info.defective)}, detail...)...)
	f.addPackage(key, info)
}

// addPackage is the one way a package enters a bucket list: a publish
// or a cross-region arrival.
func (f *Fleet) addPackage(key [2]int, info pkgInfo) {
	f.packages[key] = append(f.packages[key], info)
}

// Run advances the fleet for the given duration.
func (f *Fleet) Run(seconds float64) []FleetTick {
	n := int(seconds / f.cfg.TickSeconds)
	out := make([]FleetTick, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, f.Tick())
	}
	return out
}

// Deploying reports whether a push is in flight.
func (f *Fleet) Deploying() bool { return f.deploying }

// Crashes returns cumulative consumer crashes.
func (f *Fleet) Crashes() int { return f.crashes }

// Fallbacks returns cumulative no-Jump-Start fallbacks.
func (f *Fleet) Fallbacks() int { return f.fallbacks }

// RemapBoots returns cumulative boots from remapped packages.
func (f *Fleet) RemapBoots() int { return f.boots[flRemapped] }

// LazyBoots returns cumulative lazy-mode Jump-Start boots.
func (f *Fleet) LazyBoots() int { return f.boots[flLazy] }

// PoolStats is the warm-pool tier's occupancy and flow accounting.
type PoolStats struct {
	Size      int // configured pool size
	Avail     int // standbys ready to swap in now
	Pending   int // replaced instances still rebooting toward the pool
	Drains    int // cumulative standby swap-ins
	Backfills int // cumulative re-admissions into the pool
	Misses    int // wave restarts that found the pool empty
}

// PoolStats snapshots the warm-pool tier (zero value when PoolSize is
// unset).
func (f *Fleet) PoolStats() PoolStats {
	return PoolStats{
		Size:      f.cfg.PoolSize,
		Avail:     f.poolAvail,
		Pending:   len(f.poolPending),
		Drains:    f.poolDrains,
		Backfills: f.poolBackfills,
		Misses:    f.poolMisses,
	}
}

// Revision returns the current code revision (1 before any push).
func (f *Fleet) Revision() uint64 { return f.revision }

// PackageChurn reports how published packages fared across pushes:
// kept counts packages the remapper carried over, lost counts packages
// dropped at a push boundary (remap misses plus exact-only wipes).
func (f *Fleet) PackageChurn() (kept, lost int) { return f.pkgsKept, f.pkgsLost }

// Failovers returns cumulative replica legs that failed before a fetch
// was served (multi-region mode; zero otherwise).
func (f *Fleet) Failovers() int { return f.failovers }

// ConsensusPackages returns how many consensus packages the seeder
// aggregation pipeline published.
func (f *Fleet) ConsensusPackages() int { return f.aggPkgs }

// AggregatedBoots returns cumulative boots from consensus packages.
func (f *Fleet) AggregatedBoots() int { return f.boots[flAggregated] }

// Propagation reports cross-region propagation outcomes: transfers
// completed vs transfers the long-haul network defeated (those retry
// on the next cadence).
func (f *Fleet) Propagation() (transferred, failed int) { return f.propOK, f.propFail }

// ReasonCount is one fallback reason with its occurrence count.
type ReasonCount struct {
	Reason string
	Count  int
}

// FallbackReasons returns the counted fallback reasons sorted by
// reason string, so the output is stable for summaries and diffs.
func (f *Fleet) FallbackReasons() []ReasonCount {
	out := make([]ReasonCount, 0, len(f.fbReasons))
	for r, n := range f.fbReasons {
		out = append(out, ReasonCount{Reason: r, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Reason < out[j].Reason })
	return out
}

// ServerOutcome is one server's boot disposition at the end of a run.
type ServerOutcome struct {
	Group    int
	UsedJS   bool
	FellBack bool
	Reason   string // last boot's no-Jump-Start reason, "" if it jump-started
	Crashes  int
}

// Outcomes snapshots every server's boot disposition — the audit
// surface for "every consumer either jump-started or fell back with a
// recorded reason".
func (f *Fleet) Outcomes() []ServerOutcome {
	out := make([]ServerOutcome, len(f.servers))
	for i := range f.servers {
		s := &f.servers[i]
		out[i] = ServerOutcome{
			Group:    s.group,
			UsedJS:   s.usedJS,
			FellBack: s.fellBack,
			Reason:   s.fbReason,
			Crashes:  s.everCrashd,
		}
	}
	return out
}

// Servers returns the fleet size.
func (f *Fleet) Servers() int { return len(f.servers) }

// WarmupSeries returns each server's capacity series from its first
// boot of the latest push onward (nil unless Config.RecordSeries) —
// the suffix that changepoint classification labels. A cleanly warmed
// server yields a warmup-shaped curve; a crash-looping one keeps its
// dips and classifies as non-monotonic; a server that never rebooted
// contributes its whole (flat) series.
func (f *Fleet) WarmupSeries() [][]float64 {
	if f.series == nil {
		return nil
	}
	out := make([][]float64, len(f.series))
	for i := range f.series {
		// A server swap-booted on the final tick marks seriesFrom at
		// the yet-unappended sample: clamp so the suffix is empty, not
		// out of range. Classification must accept a length-0/1 suffix.
		from := f.servers[i].seriesFrom
		if from > len(f.series[i]) {
			from = len(f.series[i])
		}
		s := f.series[i][from:]
		out[i] = s[:len(s):len(s)]
	}
	return out
}

// BootLatencies returns the boot-start → steady-capacity duration of
// every completed boot, in completion order (nil unless
// Config.RecordSeries).
func (f *Fleet) BootLatencies() []float64 { return f.bootLat }

// TimesToSteady returns the warmup-start → steady-capacity duration of
// every completed boot, in completion order (nil unless
// Config.RecordSeries). It differs from BootLatencies by the restart
// downtime and any virtual time the package fetch burned.
func (f *Fleet) TimesToSteady() []float64 { return f.tts }

// ScenarioStats is the scenario engine's fleet-side accounting.
type ScenarioStats struct {
	FailoverBoots int     // boots started in a region absorbing failed-over load
	MismatchBoots int     // Jump-Start boots consuming a cross-geometry package
	DarkTicks     int     // ticks with at least one region down
	PeakDemand    float64 // max fleet demand multiplier observed
	TroughDemand  float64 // min fleet demand multiplier observed
}

// ScenarioStats snapshots the scenario accounting (zero value when no
// scenario is wired or no tick has run).
func (f *Fleet) ScenarioStats() ScenarioStats {
	trough := f.demandTrough
	if math.IsInf(trough, 1) {
		trough = 0
	}
	return ScenarioStats{
		FailoverBoots: f.failoverBoots,
		MismatchBoots: f.boots[flMismatch],
		DarkTicks:     f.darkTicks,
		PeakDemand:    f.demandPeak,
		TroughDemand:  trough,
	}
}

// GeometryCensus counts servers per hardware geometry class (nil for a
// uniform fleet).
func (f *Fleet) GeometryCensus() []int {
	if f.cfg.GeometryClasses <= 1 {
		return nil
	}
	out := make([]int, f.cfg.GeometryClasses)
	for i := range f.servers {
		out[f.servers[i].geom]++
	}
	return out
}

// CapacityLoss integrates (1 - capacity) over a tick series, returning
// lost server-seconds divided by total server-seconds.
func CapacityLoss(ticks []FleetTick, dt float64) float64 {
	if len(ticks) == 0 {
		return 0
	}
	lost := 0.0
	for _, t := range ticks {
		lost += (1 - t.Capacity) * dt
	}
	return lost / (float64(len(ticks)) * dt)
}

// ScenarioCapacityLoss integrates (1 - ScenCapacity): the demand-
// weighted shortfall. Under a scenario this is the loss users feel —
// warming servers at the diurnal trough cost little, a dark region's
// dumped load costs double — and without one it equals CapacityLoss.
func ScenarioCapacityLoss(ticks []FleetTick, dt float64) float64 {
	if len(ticks) == 0 {
		return 0
	}
	lost := 0.0
	for _, t := range ticks {
		lost += (1 - t.ScenCapacity) * dt
	}
	return lost / (float64(len(ticks)) * dt)
}
