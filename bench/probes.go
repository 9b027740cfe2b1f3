package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"jumpstart/internal/bytecode"
	"jumpstart/internal/hackc"
	"jumpstart/internal/interp"
	"jumpstart/internal/jit"
	"jumpstart/internal/jumpstart"
	"jumpstart/internal/jumpstart/multistore"
	"jumpstart/internal/jumpstart/transport"
	"jumpstart/internal/lang"
	"jumpstart/internal/layout"
	"jumpstart/internal/microarch"
	"jumpstart/internal/netsim"
	"jumpstart/internal/object"
	"jumpstart/internal/obs"
	"jumpstart/internal/parallel"
	"jumpstart/internal/prof"
	"jumpstart/internal/release"
	"jumpstart/internal/scenario"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/value"
	"jumpstart/internal/workload"
)

// prober times direct calls into one layer. Each probe repeats until
// it has 20 samples or 200 ms of them (whichever comes first, at least
// one) and reports the median; div shrinks both targets for -smoke.
type prober struct {
	div int
	err error // first failure of any probe
}

func (p *prober) fail(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// sample returns the median host seconds of run. prep, if not nil,
// rebuilds the state run consumes and is not timed.
func (p *prober) sample(prep, run func()) float64 {
	iters, budget := 20/p.div, 200*time.Millisecond/time.Duration(p.div)
	if iters < 2 {
		iters = 2
	}
	var xs []float64
	for spent := time.Duration(0); len(xs) < iters && (len(xs) == 0 || spent < budget); {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		run()
		d := time.Since(t0)
		spent += d
		xs = append(xs, d.Seconds())
	}
	return median(xs)
}

// each returns the median host seconds of one call of fn, timing it in
// batches of n because a single call is too short for the clock.
func (p *prober) each(n int, fn func(i int)) float64 {
	return p.sample(nil, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}) / float64(n)
}

// blockCounter is the cheapest possible tracer: it counts blocks.
type blockCounter struct{ blocks uint64 }

func (c *blockCounter) OnEnter(*bytecode.Function)                             {}
func (c *blockCounter) OnBlock(*bytecode.Function, int)                        { c.blocks++ }
func (c *blockCounter) OnCallSite(*bytecode.Function, int, *bytecode.Function) {}
func (c *blockCounter) OnReturn(*bytecode.Function)                            {}
func (c *blockCounter) OnNewObj(*object.Object)                                {}
func (c *blockCounter) OnPropAccess(*object.Object, int, bool)                 {}
func (c *blockCounter) OnOpTypes(*bytecode.Function, int, value.Kind, value.Kind) {
}

// runProbes measures the layers below the ops by calling them directly
// with the workload's own site, package and seed-generated inputs.
func runProbes(m metrics, e *env, rc runConfig) error {
	p := &prober{div: rc.probeDiv}
	probeFrontEnd(p, m, e)
	probeInterp(p, m, e, rc.seed)
	probeProf(p, m, e)
	probeJIT(p, m, e)
	probeMicroarch(p, m, e, rc.seed)
	probeStores(p, m, e, rc.seed)
	probeSmall(p, m, rc.seed)
	return p.err
}

// probeFrontEnd: source → AST → bytecode, and the release mutator that
// chains them. All of it is set-up cost; none of it is in any window.
func probeFrontEnd(p *prober, m metrics, e *env) {
	site := e.sc.Site
	srcBytes := 0
	for _, name := range site.UnitNames {
		srcBytes += len(site.Sources[name])
	}
	files := make([]*lang.File, len(site.UnitNames))
	parse := p.sample(nil, func() {
		for i, name := range site.UnitNames {
			f, err := lang.Parse(name, site.Sources[name])
			p.fail(err)
			files[i] = f
		}
	})
	if p.err != nil {
		return
	}
	m["lang.parse_mb_per_s"] = float64(srcBytes) / parse / 1e6
	printed := 0
	printS := p.sample(nil, func() {
		printed = 0
		for _, f := range files {
			printed += len(lang.PrintFile(f))
		}
	})
	m["lang.print_mb_per_s"] = float64(printed) / printS / 1e6
	compile := p.sample(nil, func() {
		_, err := hackc.CompileSources(site.Sources, site.UnitNames, hackc.Options{Optimize: true})
		p.fail(err)
	})
	m["hackc.compile_mb_per_s"] = float64(srcBytes) / compile / 1e6
	verify := p.sample(nil, func() { p.fail(site.Prog.Verify()) })
	m["bytecode.verify_funcs_per_s"] = float64(len(site.Prog.Funcs)) / verify
	m["release.next_revision_ms"] = p.sample(nil, func() {
		chain, err := release.NewChain(site, release.DefaultChurnConfig())
		if err == nil {
			_, err = chain.Next()
		}
		p.fail(err)
	}) * 1e3
}

// probeInterp stacks the hot path one layer at a time over the same
// request stream: bare interpreter, + counting tracer, + profile
// collector, + JIT runtime feeding the micro-architecture model. Each
// layer's cost is the difference to the line above it.
func probeInterp(p *prober, m metrics, e *env, seed uint64) {
	site := e.sc.Site
	const requests = 200
	var heapAllocs uint64
	serve := func(tracer func() (interp.Tracer, func())) float64 {
		return p.sample(nil, func() {
			reg, err := object.NewRegistry(site.Prog, nil)
			if err != nil {
				p.fail(err)
				return
			}
			ip := interp.New(site.Prog, reg, interp.Config{})
			perRequest := func() {}
			if tracer != nil {
				t, f := tracer()
				ip.SetTracer(t)
				perRequest = f
			}
			traffic := site.NewTraffic(0, 0, seed)
			for i := 0; i < requests; i++ {
				req := traffic.Next()
				perRequest()
				_, err := ip.Call(site.Endpoints[req.Endpoint].Fn, req.Arg)
				p.fail(err)
			}
			heapAllocs = reg.Heap().Allocations()
		}) / requests
	}
	bare := serve(nil)
	m["interp.us_per_request"] = bare * 1e6
	m["object.allocs_per_request"] = float64(heapAllocs) / requests
	var counter *blockCounter
	counted := serve(func() (interp.Tracer, func()) {
		counter = &blockCounter{}
		return counter, func() {}
	})
	m["interp.ns_per_block"] = counted * requests / float64(counter.blocks) * 1e9
	collected := serve(func() (interp.Tracer, func()) {
		col := prof.NewCollector(site.Prog)
		return col, col.BeginRequest
	})
	m["prof.collector_overhead_ratio"] = collected / bare
	charged := serve(func() (interp.Tracer, func()) {
		j := jit.New(site.Prog, e.cfg.ServerCfg.JITOpts, jit.NewCodeCache(e.cfg.ServerCfg.CacheCfg))
		rt := jit.NewRuntime(j, microarch.New(e.cfg.ServerCfg.MemCfg))
		return rt, func() { rt.BeginRequest(true) }
	})
	m["jit.runtime_overhead_ratio"] = charged / bare
}

// probeProf: the package codec, the consensus merge of three seeders'
// packages, and the cross-release remap.
func probeProf(p *prober, m metrics, e *env) {
	mb := float64(len(e.pkgBytes)) / 1e6
	m["prof.package_bytes"] = float64(len(e.pkgBytes))
	m["prof.encode_mb_per_s"] = mb / p.sample(nil, func() { e.pkg.Encode() })
	m["prof.decode_mb_per_s"] = mb / p.sample(nil, func() {
		_, err := prof.Decode(e.pkgBytes)
		p.fail(err)
	})
	clone := func(seeder int32) *prof.Profile {
		c, err := prof.Decode(e.pkgBytes)
		p.fail(err)
		c.Meta.SeederID = seeder
		return c
	}
	// Three seeders' packages: wire-format clones of the one seeded
	// package. The merge walks the same structures as with three
	// distinct seeders; it only never sees a conflict.
	var seeders []*prof.Profile
	m["prof.aggregate_ms"] = p.sample(
		func() { seeders = []*prof.Profile{clone(1), clone(2), clone(3)} },
		func() {
			_, _, err := prof.Aggregate(seeders)
			p.fail(err)
		}) * 1e3

	chain, err := release.NewChain(e.sc.Site, release.DefaultChurnConfig())
	if err != nil {
		p.fail(err)
		return
	}
	rev, err := chain.Next()
	if err != nil {
		p.fail(err)
		return
	}
	var pkg *prof.Profile
	var stats prof.RemapStats
	m["prof.remap_ms"] = p.sample(
		func() {
			pkg = clone(1)
			pkg.Meta.Revision = int64(chain.Rev(0).Checksum)
		},
		func() { _, stats = prof.Remap(pkg, chain.Rev(0).Prog, rev.Prog, int64(rev.Checksum)) }) * 1e3
	m["prof.remap_hit_ratio"] = stats.HitRate()
}

// probeJIT: tier-1 and tier-2 compilation, relocation, and the two
// layout algorithms on the package's real CFGs and call graph.
func probeJIT(p *prober, m metrics, e *env) {
	prog, cfg := e.sc.Site.Prog, e.cfg.ServerCfg
	newJIT := func() *jit.JIT { return jit.New(prog, cfg.JITOpts, jit.NewCodeCache(cfg.CacheCfg)) }
	m["jit.compile_profiling_funcs_per_s"] = float64(len(prog.Funcs)) / p.sample(nil, func() {
		j := newJIT()
		for _, fn := range prog.Funcs {
			_, err := j.CompileProfiling(fn)
			p.fail(err)
		}
	})

	hot := e.pkg.HotFunctionsMin(uint64(cfg.OptimizeMinEntries))
	var j *jit.JIT
	var trans map[string]*jit.Translation
	compile := func() {
		j = newJIT()
		trans = make(map[string]*jit.Translation, len(hot))
		for _, name := range hot {
			if fn, ok := prog.FuncByName(name); ok {
				tr, err := j.CompileOptimized(fn, e.pkg)
				p.fail(err)
				trans[name] = tr
			}
		}
	}
	m["jit.compile_optimized_funcs_per_s"] = float64(len(hot)) / p.sample(nil, compile)
	if p.err != nil {
		return
	}
	m["jit.relocate_ms"] = p.sample(compile, func() {
		p.fail(j.RelocateOptimized(trans, e.pkg.FuncOrder))
	}) * 1e3

	instrs, blocks := 0, 0
	graphs := make([]*layout.Graph, 0, len(trans))
	for _, name := range hot {
		if tr := trans[name]; tr != nil {
			instrs += tr.CFG.NInstrs()
			blocks += len(tr.CFG.Blocks)
			graphs = append(graphs, tr.CFG.ToLayoutGraph())
		}
	}
	m["vasm.instrs"] = float64(instrs)
	m["layout.exttsp_blocks_per_s"] = float64(blocks) / p.sample(nil, func() {
		for _, g := range graphs {
			layout.ExtTSP(g)
		}
	})

	cg := &layout.CallGraph{}
	idx := make(map[string]int, len(hot))
	for i, name := range hot {
		idx[name] = i
		cg.Nodes = append(cg.Nodes, layout.FuncNode{Name: name, Size: trans[name].CodeSize(),
			Weight: e.pkg.Funcs[name].EntryCount})
	}
	for pair, weight := range e.pkg.CallPairs {
		caller, ok1 := idx[pair.Caller]
		callee, ok2 := idx[pair.Callee]
		if ok1 && ok2 {
			cg.Arcs = append(cg.Arcs, layout.Arc{Caller: caller, Callee: callee, Weight: weight})
		}
	}
	sort.Slice(cg.Arcs, func(a, b int) bool { // map order must not reach the timed call
		x, y := cg.Arcs[a], cg.Arcs[b]
		if x.Caller != y.Caller {
			return x.Caller < y.Caller
		}
		return x.Callee < y.Callee
	})
	m["layout.c3_funcs_per_s"] = float64(len(hot)) / p.sample(nil, func() {
		layout.C3(cg, layout.DefaultMaxClusterSize)
	})
}

// probeMicroarch streams a seed-generated access slice whose footprint
// is several times the modelled LLC through the hierarchy.
func probeMicroarch(p *prober, m metrics, e *env, seed uint64) {
	cfg := e.cfg.ServerCfg.MemCfg
	footprint := uint64(8 * cfg.LLCSets * cfg.LLCWays * cfg.LineSize)
	rnd := netsim.NewStream(workload.Fork(seed, 0x6d61))
	accs := make([]microarch.Access, 1<<16)
	for i := range accs {
		r := rnd.Uint64()
		a := microarch.Access{Addr: (r >> 8) % footprint, Kind: microarch.AccessKind(r % 3)}
		switch a.Kind {
		case microarch.AccessFetch:
			a.Aux = 16
		case microarch.AccessBranch:
			a.Aux = uint32(r>>4) & 1
		}
		accs[i] = a
	}
	h := microarch.New(cfg)
	sec := p.sample(nil, func() { h.Stream(accs, 1<<32) })
	m["microarch.stream_maccs_per_s"] = float64(len(accs)) / sec / 1e6
}

// probeStores: the in-memory store, the validator, one transport fetch
// (healthy and under a brownout) and the multi-region hierarchy.
func probeStores(p *prober, m metrics, e *env, seed uint64) {
	store := jumpstart.NewStore()
	for i := 0; i < 8; i++ {
		store.Publish(0, 0, e.pkgBytes)
	}
	rnd := netsim.NewStream(workload.Fork(seed, 0x7374))
	m["jumpstart.store_pick_ns"] = p.each(1000, func(int) {
		if _, ok := store.Pick(0, 0, rnd.Uint64()); !ok {
			p.fail(fmt.Errorf("store pick found no package"))
		}
	}) * 1e9

	v := &jumpstart.Validator{Site: e.sc.Site, ConsumerConfig: e.cfg.ServerCfg, Requests: 100, MaxFaultRate: 0.01}
	m["jumpstart.validate_ms"] = p.sample(nil, func() { p.fail(v.Validate(e.pkgBytes)) }) * 1e3

	// One client stack per fetch, so no fetch sees state left by the
	// one before; the i-th stack always draws the same streams.
	cc := transport.ClientConfig{RPCTimeout: 1, Budget: 30, BackoffBase: 0.1, BackoffCap: 5}
	var cli *transport.Client
	stack := func(net netsim.Config) func() {
		i := uint64(0)
		return func() {
			tsrv := transport.NewServer(jumpstart.NewStore(), transport.DefaultChunkSize)
			tsrv.Publish(0, 0, 0, e.pkgBytes)
			clock := netsim.NewVirtualClock(0)
			conn := transport.NewSimConn(tsrv, netsim.NewFabric(net), "consumer", clock,
				netsim.NewStream(workload.Fork(seed, 0x1000+i)), cc.RPCTimeout)
			c := cc
			c.Seed = workload.Fork(seed, 0x2000+i)
			cli = transport.NewClient(conn, clock, c)
			i++
		}
	}
	m["transport.publish_us"] = p.sample(stack(netsim.Config{}), func() {
		_, err := cli.Publish(0, 0, 0, e.pkgBytes)
		p.fail(err)
	}) * 1e6
	m["transport.fetch_us"] = p.sample(stack(netsim.Config{}), func() {
		res, err := cli.Fetch(0, 0, 1, nil)
		p.fail(err)
		if err == nil {
			m["transport.bytes_per_fetch"] = float64(len(res.Data))
		}
	}) * 1e6
	brown := netsim.Config{BaseLatency: 0.02, Faults: []netsim.Fault{netsim.Brownout(0, 1e9, 0.3, 0.05)}}
	m["transport.fetch_brownout_us"] = p.sample(stack(brown), func() {
		_, err := cli.Fetch(0, 0, 1, nil) // may legitimately exhaust its budget
		_ = err
	}) * 1e6
	// Retries are counted over a fixed number of fetches, not over
	// however many the timing loop happened to make.
	retries, next := 0, stack(brown)
	for i := 0; i < 8; i++ {
		next()
		if res, err := cli.Fetch(0, 0, 1, nil); err == nil {
			retries += res.Attempts - 1
		} else {
			retries++
		}
	}
	m["transport.fetch_retries"] = float64(retries)

	fab := netsim.NewFabric(brown)
	m["netsim.sample_ns"] = p.each(1000, func(i int) { fab.Sample("consumer", float64(i), rnd) }) * 1e9

	payload := e.pkgBytes
	if len(payload) > 2048 {
		payload = payload[:2048]
	}
	var h *multistore.Hierarchy
	hierarchy := func() {
		h = multistore.New(multistore.Config{Regions: 3, NodesPerRegion: 3, Replicas: 2, ChunkSize: 512,
			Intra: netsim.Config{BaseLatency: 0.02}, Inter: netsim.Config{BaseLatency: 0.3},
			Client: cc, Seed: seed})
		for b := 0; b < 10; b++ {
			h.PublishDirect(b%3, b, 0, payload)
		}
	}
	m["multistore.propagate_ms"] = p.sample(hierarchy, func() {
		if st := h.Propagate(60); st.Transferred == 0 {
			p.fail(fmt.Errorf("multistore propagated nothing"))
		}
	}) * 1e3
	m["multistore.fetch_us"] = p.sample(nil, func() { // h is now fully propagated
		_, err := h.Fetch(1, 4, rnd.Uint64(), nil, 120)
		p.fail(err)
	}) * 1e6
}

// probeSmall: the helpers whose cost should stay invisible.
func probeSmall(p *prober, m metrics, seed uint64) {
	eng, err := scenario.New(scenario.DefaultConfig(scenario.Diurnal, 3, 3000))
	if err != nil {
		p.fail(err)
		return
	}
	sink := 0.0
	m["scenario.demand_ns"] = p.each(1000, func(i int) { sink += eng.EffectiveDemand(i%3, float64(i)) }) * 1e9
	m["parallel.map_overhead_us"] = p.sample(nil, func() {
		parallel.Map(benchWorkers, 64, func(i int) int { return i })
	}) * 1e6

	// A 1k-sample warmup-shaped curve with seeded noise.
	rnd := netsim.NewStream(workload.Fork(seed, 0x6f62))
	series := make([]float64, 1000)
	for i := range series {
		series[i] = 1 - math.Exp(-float64(i)/150) + 0.02*rnd.Float()
	}
	m["obs.pelt_1k_ms"] = p.sample(nil, func() { obs.Changepoints(series, 0) }) * 1e3
	m["obs.classify_1k_ms"] = p.sample(nil, func() { obs.Classify(series, 1) }) * 1e3

	set := telemetry.NewSet()
	m["telemetry.span_ns"] = p.each(1000, func(i int) {
		id := set.BeginSpan()
		set.EndSpan(id, 0, float64(i), float64(i)+1, "bench", "probe")
	}) * 1e9
	_ = sink
}
