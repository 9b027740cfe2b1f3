// Package server simulates one HHVM web server in virtual time: the
// interpreter and tiered JIT serving synthetic traffic, with explicit
// warmup phases matching the paper's Figure 3 workflows —
// no-Jump-Start (3a), seeder (3b) and consumer (3c).
//
// The simulation executes every request's real bytecode through the
// interpreter while a jit.Runtime charges cycles for whatever
// translation each function currently has; virtual time advances by
// the cycles consumed against the server's core budget. RPS, latency
// and JITed-code-size series therefore emerge from the same mechanisms
// the paper describes rather than from curve fitting.
package server

import (
	"errors"
	"fmt"

	"jumpstart/internal/bytecode"
	"jumpstart/internal/interp"
	"jumpstart/internal/jit"
	"jumpstart/internal/microarch"
	"jumpstart/internal/object"
	"jumpstart/internal/prof"
	"jumpstart/internal/replay"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/workload"
)

// Mode selects the Figure 3 workflow.
type Mode int

// Server modes.
const (
	// ModeNoJumpStart is Figure 3a: profile, optimize and live-JIT
	// during serving.
	ModeNoJumpStart Mode = iota
	// ModeSeeder is Figure 3b: like 3a but optimized code is
	// instrumented; after a collection window the profile package is
	// serialized and the server "exits".
	ModeSeeder
	// ModeConsumer is Figure 3c: deserialize a package, preload and
	// compile everything before serving.
	ModeConsumer
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNoJumpStart:
		return "no-jumpstart"
	case ModeSeeder:
		return "seeder"
	case ModeConsumer:
		return "consumer"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Phase is the server's lifecycle position.
type Phase int

// Phases, in order of progression.
const (
	// PhaseInit covers process start, package load (consumer), and
	// warmup requests.
	PhaseInit Phase = iota
	// PhaseProfiling serves traffic while tier-1 profiles (3a/3b).
	PhaseProfiling
	// PhaseOptimizing is Figure 1's A→C: profiling stopped, tier-2
	// compiling in the background, then relocation.
	PhaseOptimizing
	// PhaseServing is steady serving with live JIT for the tail.
	PhaseServing
	// PhaseCollecting is the seeder's instrumented-optimized window.
	PhaseCollecting
	// PhaseExited is the seeder after serializing its package.
	PhaseExited
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseInit:
		return "init"
	case PhaseProfiling:
		return "profiling"
	case PhaseOptimizing:
		return "optimizing"
	case PhaseServing:
		return "serving"
	case PhaseCollecting:
		return "collecting"
	case PhaseExited:
		return "exited"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// The machine and cost model are fixed, as the paper fixes its
// machine; DefaultConfig's scaling note applies to every cycle count.
const (
	// clockHz is the scaled 1.8 GHz clock (see DefaultConfig).
	clockHz = 200_000

	// Tier transition thresholds.
	profileTriggerCalls = 2 // calls before a tier-1 translation
	liveTriggerCalls    = 2 // calls before a live translation (post-C)

	// Compile-cost model (cycles per bytecode instruction).
	tier1CompileCPI = 2_000
	tier2CompileCPI = 4_000
	liveCompileCPI  = 1_500
	// compileThreads caps background tier-2 compilation parallelism.
	compileThreads = 3
	// relocCyclesPerByte is the B→C relocation cost.
	relocCyclesPerByte = 100

	// maxQueue bounds the arrival queue (requests beyond it are
	// dropped — lost capacity).
	maxQueue = 600
)

// Config parameterizes a simulated server.
type Config struct {
	Mode   Mode
	Region int
	Bucket int
	Seed   uint64

	// Hardware model (paper: 1.8 GHz Xeon D-1581, 16 cores).
	Cores int

	// Traffic.
	OfferedRPS  float64
	TickSeconds float64

	// JIT configuration.
	JITOpts  jit.Options
	CacheCfg jit.CacheConfig
	MemCfg   microarch.Config
	// MicroSampleEvery feeds the micro-architecture model on every
	// N-th request (1 = every request).
	MicroSampleEvery int

	// ReplayCache enables translation-replay memoization: repeated
	// direct calls with the same argument signature replay their
	// recorded cycle charges and micro-architecture event stream
	// instead of re-interpreting bytecode. Simulation output is
	// byte-identical on or off (pinned by TestReplayCacheDeterminism);
	// only host-side speed differs.
	ReplayCache bool

	// Tier transition thresholds.
	ProfileWindow int // profiled requests before point A
	// OptimizeMinEntries excludes functions with fewer profiled
	// activations from tier-2 compilation (insufficient data); they
	// stay on the live-JIT path, forming Figure 1's C→D tail.
	OptimizeMinEntries int

	// Initialization model.
	InitCycles        float64 // fixed process-start work
	UnitPreloadCycles float64 // first-touch unit load cost
	WarmupRequests    int     // VM warmup requests during init

	// Seeder: instrumented-optimized requests before serialization.
	SeederCollectWindow int

	// Consumer inputs.
	Package *prof.Profile
	// LazyWarmup switches the consumer to lazy package materialization
	// (jumpstart.WarmupLazy): init skips the eager preload, precompile,
	// relocate and warmup-request stages, and every hot function pages
	// its optimized translation in on first call instead. The server
	// starts serving as soon as InitCycles are paid.
	LazyWarmup bool
	// Pager fetches translation artifacts on demand in lazy mode (nil
	// means page-ins are local: no fetch time, install cost only).
	Pager Pager
	// UsePropertyOrder applies the package's property-access counters
	// to object layout (Section V-C).
	UsePropertyOrder bool

	// Telem is the optional observation set (metrics, trace, cycle
	// profile). Telemetry is zero-perturbation: simulation output is
	// byte-identical whether it is nil or not (pinned by
	// TestTelemetryZeroPerturbation).
	Telem *telemetry.Set
}

// DefaultConfig returns a configuration whose virtual-time constants
// compress the paper's 25-minute warmup onto the 600-second horizon of
// Figure 4.
//
// Scaling note: the synthetic site's requests are ~100-1000× smaller
// than facebook.com's, so the clock is scaled down in the same
// proportion (one simulated cycle stands for a few thousand real
// ones). All costs — instruction execution, compile time, cache-miss
// penalties — share the same cycle unit, so every *relative* result
// (speedups, capacity-loss fractions, miss-rate reductions) is
// unaffected by the scale; only the absolute seconds are compressed.
func DefaultConfig() Config {
	return Config{
		Mode:  ModeNoJumpStart,
		Cores: 16,

		OfferedRPS:  200,
		TickSeconds: 5,

		JITOpts:          jit.DefaultOptions(),
		CacheCfg:         jit.DefaultCacheConfig(),
		MemCfg:           microarch.DefaultConfig(),
		MicroSampleEvery: 4,
		ReplayCache:      true,

		ProfileWindow:      8_000,
		OptimizeMinEntries: 40,

		InitCycles:        50e6,
		UnitPreloadCycles: 150e3,
		WarmupRequests:    12,

		SeederCollectWindow: 6_000,
	}
}

// TickStats is one tick of the time series the figures plot.
type TickStats struct {
	T            float64 // seconds since process start (end of tick)
	Offered      int
	Completed    int
	Dropped      int
	AvgLatencyMS float64 // mean service latency of completed requests
	CodeBytes    int     // Figure 1's y-axis
	Phase        Phase
	Faults       int
}

// Server is one simulated web server.
type Server struct {
	cfg     Config
	site    *workload.Site
	traffic *workload.Traffic

	reg    *object.Registry
	ip     *interp.Interp
	j      *jit.JIT
	rt     *jit.Runtime
	col    *prof.Collector
	mem    *microarch.Hierarchy
	st     *serverTracer
	replay *replay.Cache

	phase  Phase
	phaseT float64 // virtual time the current phase began
	now    float64 // virtual seconds since process start

	initRemaining float64 // cycles of init work left
	queue         float64 // queued requests (fractional arrivals)

	profiledReqs int
	snapshot     *prof.Profile // tier-1 snapshot at point A
	optTrans     map[string]*jit.Translation
	optQueue     []*bytecode.Function
	optBudget    float64 // compile cycles remaining for current job
	relocBudget  float64
	relocTotal   float64
	collectReqs  int
	pkg          *prof.Profile

	reqCount    int
	faults      int
	liveFull    bool
	startupDone bool

	// Lazy warmup state: lazyPending[id] marks a hot function awaiting
	// its first-call page-in (nil unless Config.LazyWarmup).
	lazyPending []bool
	lazyStats   LazyStats

	// Telemetry. tel may be nil (all uses are nil-safe); the metric
	// handles are resolved once in New so the serve path stays
	// allocation-free. totalCharged independently sums every cycle the
	// server charges — the quantity the cycle profile must conserve.
	tel          *telemetry.Set
	totalCharged float64
	mRequests    *telemetry.Counter
	mFaults      *telemetry.Counter
	mDropped     *telemetry.Counter
	gQueue       *telemetry.Gauge
	gCodeBytes   *telemetry.Gauge
	gPhase       *telemetry.Gauge
	hReqCycles   *telemetry.Histogram
}

// New builds a server for site with cfg.
func New(site *workload.Site, cfg Config) (*Server, error) {
	if cfg.Cores <= 0 || cfg.TickSeconds <= 0 {
		return nil, errors.New("server: invalid hardware config")
	}
	if cfg.Mode == ModeConsumer && cfg.Package == nil {
		return nil, errors.New("server: consumer mode requires a package")
	}
	if err := cfg.MemCfg.Validate(); err != nil {
		return nil, err
	}
	// Only a seeder's optimized code carries counters (Figure 3b).
	cfg.JITOpts.InstrumentOptimized = cfg.Mode == ModeSeeder
	var layout object.Layout
	if cfg.Mode == ModeConsumer && cfg.Package != nil && cfg.UsePropertyOrder {
		layout = object.HotnessLayout(site.Prog, cfg.Package.Props)
	}
	reg, err := object.NewRegistry(site.Prog, layout)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		site:     site,
		traffic:  site.NewTraffic(cfg.Region, cfg.Bucket, cfg.Seed),
		reg:      reg,
		mem:      microarch.New(cfg.MemCfg),
		optTrans: map[string]*jit.Translation{},
	}
	if s.cfg.MicroSampleEvery <= 0 {
		s.cfg.MicroSampleEvery = 1
	}
	s.j = jit.New(site.Prog, cfg.JITOpts, jit.NewCodeCache(cfg.CacheCfg))
	s.rt = jit.NewRuntime(s.j, s.mem)
	s.st = newServerTracer(s)
	s.ip = interp.New(site.Prog, reg, interp.Config{Tracer: s.st})
	s.phase = PhaseInit
	s.initRemaining = cfg.InitCycles
	if cfg.ReplayCache {
		s.replay = replay.NewCache(replay.Config{
			JIT:       s.j,
			Runtime:   s.rt,
			Heap:      reg.Heap(),
			Mem:       s.mem,
			NumFuncs:  len(site.Prog.Funcs),
			CanReplay: s.canReplayEnters,
			Tel:       cfg.Telem,
		})
	}

	s.tel = cfg.Telem
	s.j.SetTelemetry(cfg.Telem, func() float64 { return s.now })
	s.mRequests = s.tel.Counter("server.requests_total")
	s.mFaults = s.tel.Counter("server.faults_total")
	s.mDropped = s.tel.Counter("server.dropped_total")
	s.gQueue = s.tel.Gauge("server.queue_depth")
	s.gCodeBytes = s.tel.Gauge("server.code_bytes")
	s.gPhase = s.tel.Gauge("server.phase")
	s.hReqCycles = s.tel.Histogram("server.request_cycles",
		[]float64{1e3, 1e4, 1e5, 1e6, 1e7})
	s.tel.CycleProf().SetPhase(PhaseInit.String())
	s.tel.Event(0, "server", "start",
		telemetry.S("mode", cfg.Mode.String()),
		telemetry.I("region", int64(cfg.Region)),
		telemetry.I("bucket", int64(cfg.Bucket)),
		telemetry.I("seed", int64(cfg.Seed)))

	s.applyMemoizer()
	return s, nil
}

// setPhase transitions the lifecycle phase, recording it in the trace,
// the phase gauge and the cycle profile. The finished phase also lands
// as a span covering its whole window — a root span, deliberately:
// server time is process-relative (0 = this process's start), a
// different timebase from the fleet clock, so parenting these under a
// fleet boot span would break the containment invariant.
func (s *Server) setPhase(p Phase) {
	if p == s.phase {
		return
	}
	s.tel.SpanUnder(0, s.phaseT, s.now, "server", "phase:"+s.phase.String())
	s.tel.Event(s.now, "server", "phase-transition",
		telemetry.S("from", s.phase.String()),
		telemetry.S("to", p.String()))
	s.phase = p
	s.phaseT = s.now
	s.gPhase.Set(float64(p))
	s.tel.CycleProf().SetPhase(p.String())
}

// chargeBG records cycles charged outside the request path (init
// stages, background compilation, relocation) in both the conservation
// total and the cycle profile.
func (s *Server) chargeBG(b telemetry.CycleBucket, cycles float64) {
	s.totalCharged += cycles
	s.tel.CycleProf().Add(b, cycles)
}

// TotalCycles returns every cycle the server has charged so far —
// request execution, init work, and background compilation. The cycle
// profile's buckets sum to this value once init has completed
// (asserted by TestCycleProfileConservation).
func (s *Server) TotalCycles() float64 { return s.totalCharged }

// applyMemoizer installs the replay memoizer exactly when the tier-1
// collector is off: profiling must observe every real execution, so
// memoization pauses for that window. A disabled cache installs nil,
// never a typed-nil interface.
func (s *Server) applyMemoizer() {
	if s.col != nil || s.replay == nil {
		s.ip.SetMemoizer(nil)
	} else {
		s.ip.SetMemoizer(s.replay)
	}
}

// canReplayEnters is the replay cache's trigger gate: it re-creates,
// in batch, what serverTracer.OnEnter's per-call bookkeeping would do
// for a memoized subtree. If any bump would cross a JIT trigger
// threshold (the real execution would compile mid-request, which a
// replay cannot reproduce), it refuses without side effects;
// otherwise it applies all call-count bumps and allows the replay.
func (s *Server) canReplayEnters(enters []replay.FnCount) bool {
	t := s.st
	// A pending lazy page-in inside the subtree would be skipped by a
	// replay (the real execution would fetch and install a translation
	// mid-request); refuse without side effects.
	if s.lazyPending != nil {
		for _, e := range enters {
			if s.lazyPending[e.ID] {
				return false
			}
		}
	}
	var trigger uint32
	triggered := false
	switch s.phase {
	case PhaseProfiling:
		// Defensive: the memoizer is uninstalled while the collector
		// runs, so this branch should be unreachable.
		trigger, triggered = profileTriggerCalls, true
	case PhaseOptimizing, PhaseServing, PhaseCollecting:
		if !s.liveFull {
			trigger, triggered = liveTriggerCalls, true
		}
	}
	if triggered {
		for _, e := range enters {
			if s.j.Active(e.ID) == nil && t.calls[e.ID]+e.Count >= trigger {
				return false
			}
		}
	}
	for _, e := range enters {
		t.calls[e.ID] += e.Count
	}
	return true
}

// ReplayCache returns the replay memoizer, or nil when disabled.
func (s *Server) ReplayCache() *replay.Cache { return s.replay }

// Phase returns the server's current phase.
func (s *Server) Phase() Phase { return s.phase }

// Now returns the virtual time in seconds since process start.
func (s *Server) Now() float64 { return s.now }

// Ready reports whether the server is accepting requests.
func (s *Server) Ready() bool {
	return s.phase != PhaseInit && s.phase != PhaseExited
}

// CodeBytes returns the total JITed code bytes (Figure 1).
func (s *Server) CodeBytes() int { return s.j.Cache().TotalUsed() }

// Faults returns the number of faulted requests so far.
func (s *Server) Faults() int { return s.faults }

// SeederPackage returns the serialized-ready profile package once the
// seeder has finished collecting.
func (s *Server) SeederPackage() (*prof.Profile, bool) {
	return s.pkg, s.pkg != nil
}

// Mem returns the micro-architecture hierarchy (for measurements).
func (s *Server) Mem() *microarch.Hierarchy { return s.mem }

// JIT returns the server's JIT (inspection/tests).
func (s *Server) JIT() *jit.JIT { return s.j }

// budgetCycles is the total cycle budget of one tick.
func (s *Server) budgetCycles() float64 {
	return float64(s.cfg.Cores) * clockHz * s.cfg.TickSeconds
}

// Tick advances one tick of virtual time.
func (s *Server) Tick() TickStats {
	dt := s.cfg.TickSeconds
	budget := s.budgetCycles()
	ts := TickStats{Phase: s.phase}

	// Arrivals accumulate regardless of readiness.
	arrivals := s.cfg.OfferedRPS * dt
	ts.Offered = int(arrivals)
	s.queue += arrivals
	// The queue bound must exceed one tick's arrivals, or it would cap
	// throughput below the offered rate even with spare capacity.
	maxQ := float64(maxQueue)
	if m := 2 * arrivals; maxQ < m {
		maxQ = m
	}
	if s.queue > maxQ {
		ts.Dropped = int(s.queue - maxQ)
		s.queue = maxQ
		s.mDropped.Add(uint64(ts.Dropped))
	}

	// Initialization consumes the budget before any serving.
	if s.phase == PhaseInit {
		spent := s.runInit(budget)
		budget -= spent
		if s.phase == PhaseInit || budget <= 0 {
			s.now += dt
			ts.T = s.now
			ts.CodeBytes = s.CodeBytes()
			ts.Phase = s.phase
			return ts
		}
	}

	if s.phase == PhaseExited {
		s.now += dt
		ts.T = s.now
		ts.CodeBytes = s.CodeBytes()
		return ts
	}

	// Reserve the background-compilation share up front: HHVM's JIT
	// worker threads run concurrently with the request threads, so
	// tier-2 compilation makes progress even when the server is
	// saturated (otherwise a saturated server would never reach
	// point C).
	var compileBudget float64
	if s.phase == PhaseOptimizing {
		compileBudget = budget * float64(min(compileThreads, s.cfg.Cores)) /
			float64(s.cfg.Cores)
		budget -= compileBudget
	}

	// Serve queued requests until the budget runs out.
	var latSum float64
	for s.queue >= 1 && budget > 0 {
		cycles, err := s.serveOne()
		if err != nil {
			s.faults++
			ts.Faults++
		}
		budget -= float64(cycles)
		s.queue--
		ts.Completed++
		latSum += float64(cycles) / clockHz
	}
	if ts.Completed > 0 {
		ts.AvgLatencyMS = latSum / float64(ts.Completed) * 1000
	}

	// Background tier-2 compilation (A→C): the reserved share plus any
	// serving budget left over.
	if s.phase == PhaseOptimizing {
		if budget > 0 {
			compileBudget += budget
		}
		s.advanceOptimization(compileBudget)
	}

	s.now += dt
	ts.T = s.now
	ts.CodeBytes = s.CodeBytes()
	ts.Phase = s.phase
	s.gQueue.Set(s.queue)
	s.gCodeBytes.Set(float64(ts.CodeBytes))
	return ts
}

// Run advances the server for the given virtual duration.
func (s *Server) Run(seconds float64) []TickStats {
	n := int(seconds / s.cfg.TickSeconds)
	out := make([]TickStats, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.Tick())
	}
	return out
}

// runInit performs initialization work against a cycle budget,
// transitioning to the first serving phase when everything is paid
// for. It returns the cycles consumed.
//
// Init has two stages: the fixed process-start work (InitCycles), then
// the mode-specific startup (package load + precompilation + warmup
// requests for consumers; sequential warmup requests otherwise). The
// second stage's work is *performed* once — mutating JIT and unit
// state — and its cycle cost is then drained against tick budgets.
func (s *Server) runInit(budget float64) float64 {
	spent := 0.0
	for spent < budget {
		if s.initRemaining > 0 {
			use := s.initRemaining
			if use > budget-spent {
				use = budget - spent
			}
			s.initRemaining -= use
			spent += use
			continue
		}
		if !s.startupDone {
			s.startupDone = true
			// The fixed process-start stage is fully paid for at this
			// point; attribute it before the startup stage is costed.
			s.chargeBG(telemetry.CycleInit, s.cfg.InitCycles)
			s.initRemaining = s.startupCost()
			continue
		}
		// Fully initialized: transition to serving. The runtime's
		// fine-grained cycle attribution starts here — init-phase
		// execution was attributed to the coarse init buckets by
		// startupCost.
		s.rt.SetCycleProfile(s.tel.CycleProf())
		if s.cfg.Mode == ModeConsumer {
			s.setPhase(PhaseServing)
		} else {
			s.setPhase(PhaseProfiling)
			s.col = prof.NewCollector(s.site.Prog)
		}
		s.applyMemoizer()
		break
	}
	return spent
}

// startupCost performs the one-time mode-specific startup work and
// returns its cycle cost. Called exactly once.
func (s *Server) startupCost() float64 {
	cores := float64(s.cfg.Cores)

	switch s.cfg.Mode {
	case ModeConsumer:
		if s.cfg.LazyWarmup {
			return s.armLazyWarmup()
		}
		p := s.cfg.Package
		total := 0.0
		// Preload the units named by the package, in parallel
		// (Figure 3c / Section VII-A's parallel warmup).
		preload := float64(len(p.Units)) * s.cfg.UnitPreloadCycles / cores
		total += preload
		s.chargeBG(telemetry.CycleUnitLoad, preload)
		s.st.preload(p.Units)
		s.tel.Event(s.now, "server", "consumer-preload",
			telemetry.I("units", int64(len(p.Units))))
		// Compile every sufficiently-profiled function in optimized
		// mode on all cores (the "JIT optimized code" box of
		// Figure 3c).
		compileCycles := 0.0
		compiled := 0
		for _, name := range p.HotFunctionsMin(uint64(s.cfg.OptimizeMinEntries)) {
			fn, ok := s.site.Prog.FuncByName(name)
			if !ok {
				continue
			}
			tr, err := s.j.CompileOptimized(fn, p)
			if err != nil {
				continue // stale entries are skipped, not fatal
			}
			s.optTrans[name] = tr
			compiled++
			compileCycles += float64(len(fn.Code)) * tier2CompileCPI
		}
		total += compileCycles / cores
		s.chargeBG(telemetry.CycleOptimize, compileCycles/cores)
		s.tel.Event(s.now, "server", "consumer-precompile",
			telemetry.I("funcs", int64(compiled)))
		// Relocate following the package's precomputed function order
		// (category 4, built from the seeded call graph) when the V-B
		// optimization is on; otherwise recompute locally from the
		// tier-1 call-target profiles.
		order := p.FuncOrder
		if !s.cfg.JITOpts.UseSeededCallGraph || len(order) == 0 {
			order = s.j.FunctionOrderWith(p,
				p.HotFunctionsMin(uint64(s.cfg.OptimizeMinEntries)), false)
		}
		relocBytes := 0
		for _, tr := range s.optTrans {
			relocBytes += tr.HotSize + tr.ColdSize
		}
		if err := s.j.RelocateOptimized(s.optTrans, order); err == nil {
			reloc := float64(relocBytes) * relocCyclesPerByte / cores
			total += reloc
			s.chargeBG(telemetry.CycleReloc, reloc)
		}
		// Warmup requests run in parallel (Section VII-A).
		warmupCycles := s.runWarmupRequests() / cores
		total += warmupCycles
		s.chargeBG(telemetry.CycleWarmup, warmupCycles)
		return total

	default:
		// No Jump-Start (and seeder): warmup requests run
		// *sequentially* because the metadata load order matters
		// (Section VII-A).
		warmupCycles := s.runWarmupRequests()
		s.chargeBG(telemetry.CycleWarmup, warmupCycles)
		return warmupCycles
	}
}

// runWarmupRequests executes the configured warmup requests and
// returns their total cycle cost (the caller decides whether they were
// sequential or parallel).
func (s *Server) runWarmupRequests() float64 {
	total := 0.0
	for i := 0; i < s.cfg.WarmupRequests; i++ {
		cycles, err := s.execute(s.traffic.Next(), false)
		if err != nil {
			s.faults++
		}
		total += float64(cycles)
	}
	return total
}

// execute runs one request through the interpreter and returns the
// cycles it charged. It is the one place a request starts: the runtime
// always (micro selects micro-architecture sampling), the collector
// only while profiling.
func (s *Server) execute(req workload.Request, micro bool) (uint64, error) {
	s.rt.BeginRequest(micro)
	if s.col != nil {
		s.col.BeginRequest()
	}
	_, err := s.ip.Call(s.site.Endpoints[req.Endpoint].Fn, req.Arg)
	return s.rt.TakeCycles(), err
}

// serveOne executes the next request and returns its cycle cost.
func (s *Server) serveOne() (uint64, error) {
	s.reqCount++
	micro := s.reqCount%s.cfg.MicroSampleEvery == 0
	cycles, err := s.execute(s.traffic.Next(), micro)
	s.totalCharged += float64(cycles)
	s.mRequests.Inc()
	if err != nil {
		s.mFaults.Inc()
	}
	s.hReqCycles.Observe(float64(cycles))

	switch s.phase {
	case PhaseProfiling:
		s.profiledReqs++
		if s.profiledReqs >= s.cfg.ProfileWindow {
			s.reachPointA()
		}
	case PhaseCollecting:
		s.collectReqs++
		if s.collectReqs >= s.cfg.SeederCollectWindow {
			s.sealSeederPackage()
		}
	}
	return cycles, err
}

// reachPointA stops profiling (Figure 1's point A) and queues tier-2
// compilation of every profiled function.
func (s *Server) reachPointA() {
	s.snapshot = s.col.Snapshot(prof.Meta{
		Region:   int32(s.cfg.Region),
		Bucket:   int32(s.cfg.Bucket),
		SeederID: int32(s.cfg.Seed),
	})
	s.col = nil
	s.applyMemoizer()
	for _, name := range s.snapshot.HotFunctionsMin(uint64(s.cfg.OptimizeMinEntries)) {
		if fn, ok := s.site.Prog.FuncByName(name); ok {
			s.optQueue = append(s.optQueue, fn)
		}
	}
	s.tel.Event(s.now, "server", "point-A",
		telemetry.I("profiled_reqs", int64(s.profiledReqs)),
		telemetry.I("opt_queue", int64(len(s.optQueue))))
	s.setPhase(PhaseOptimizing)
}

// advanceOptimization spends background cycles compiling queued tier-2
// jobs, then relocating (B→C). When done, optimized code activates and
// the phase advances.
func (s *Server) advanceOptimization(budget float64) {
	for budget > 0 && len(s.optQueue) > 0 {
		fn := s.optQueue[0]
		if s.optBudget == 0 {
			s.optBudget = float64(len(fn.Code)) * tier2CompileCPI
		}
		if s.optBudget > budget {
			s.optBudget -= budget
			return
		}
		budget -= s.optBudget
		s.optBudget = 0
		s.optQueue = s.optQueue[1:]
		// The full job cost is attributed when the job completes; the
		// partial spends across earlier ticks sum to the same amount.
		s.chargeBG(telemetry.CycleOptimize, float64(len(fn.Code))*tier2CompileCPI)
		if tr, err := s.j.CompileOptimized(fn, s.snapshot); err == nil {
			s.optTrans[fn.Name] = tr
			if s.relocBudget == 0 {
				s.relocBudget = -1 // sentinel: compute after all compiles
			}
		}
	}
	if len(s.optQueue) > 0 {
		return
	}
	// All compiled: relocation phase (B→C).
	if s.relocBudget < 0 {
		bytes := 0
		for _, tr := range s.optTrans {
			bytes += tr.HotSize + tr.ColdSize
		}
		s.relocBudget = float64(bytes) * relocCyclesPerByte
		s.relocTotal = s.relocBudget
	}
	if s.relocBudget > budget {
		s.relocBudget -= budget
		return
	}
	// Point C: relocate and activate.
	s.chargeBG(telemetry.CycleReloc, s.relocTotal)
	order := s.j.FunctionOrder(s.snapshot,
		s.snapshot.HotFunctionsMin(uint64(s.cfg.OptimizeMinEntries)))
	if err := s.j.RelocateOptimized(s.optTrans, order); err != nil {
		s.liveFull = true
	}
	s.tel.Event(s.now, "server", "point-C",
		telemetry.I("optimized_funcs", int64(len(s.optTrans))))
	if s.cfg.Mode == ModeSeeder {
		s.setPhase(PhaseCollecting)
	} else {
		s.setPhase(PhaseServing)
	}
}

// sealSeederPackage harvests the tier-2 instrumentation, computes the
// function order, and freezes the package (Figure 3b's tail).
func (s *Server) sealSeederPackage() {
	p := s.snapshot
	p.Meta.RequestCount = int64(s.profiledReqs)
	s.rt.HarvestInto(p)
	// The package's precomputed order (profile category 4) is built
	// from the *accurate* tier-2 call graph — that is Section V-B's
	// contribution. Consumers with the optimization disabled recompute
	// a tier-1-graph order locally instead.
	p.FuncOrder = s.j.FunctionOrderWith(p,
		p.HotFunctionsMin(uint64(s.cfg.OptimizeMinEntries)), true)
	s.pkg = p
	s.tel.Event(s.now, "server", "package-sealed",
		telemetry.I("funcs", int64(len(p.Funcs))),
		telemetry.I("collect_reqs", int64(s.collectReqs)))
	s.setPhase(PhaseExited)
}
