package server

import (
	"jumpstart/internal/bytecode"
	"jumpstart/internal/jit"
	"jumpstart/internal/telemetry"
)

// Pager materializes one function's optimized translation artifact in
// lazy warmup mode. PageIn returns the virtual seconds the fetch took
// and whether the artifact arrived; a miss (budget exhausted, store
// unreachable) leaves the function on the interpreter/live-JIT path —
// lazy boots degrade, they do not fail. Implementations live above the
// server (jumpstart.LazyPager fetches over the transport); a nil Pager
// means page-ins are local and cost only the install.
type Pager interface {
	PageIn(fn string) (seconds float64, ok bool)
}

// LazyStats reports the lazy-warmup bookkeeping.
type LazyStats struct {
	Armed  int // hot functions marked for on-demand page-in at boot
	Paged  int // page-ins that landed an optimized translation
	Misses int // page-ins the pager failed; fell back to interp/live JIT
}

// LazyStats returns the lazy-warmup counters (zeros unless
// Config.LazyWarmup).
func (s *Server) LazyStats() LazyStats { return s.lazyStats }

// armLazyWarmup is the consumer startup path under LazyWarmup: instead
// of eagerly preloading, precompiling and relocating the package, it
// only marks every sufficiently-profiled function as pending page-in.
// The server starts serving immediately; each marked function's first
// call materializes its translation via lazyPageIn. Startup therefore
// costs nothing beyond InitCycles.
func (s *Server) armLazyWarmup() float64 {
	p := s.cfg.Package
	s.lazyPending = make([]bool, len(s.site.Prog.Funcs))
	for _, name := range p.HotFunctionsMin(uint64(s.cfg.OptimizeMinEntries)) {
		if fn, ok := s.site.Prog.FuncByName(name); ok && !s.lazyPending[fn.ID] {
			s.lazyPending[fn.ID] = true
			s.lazyStats.Armed++
		}
	}
	s.tel.Event(s.now, "server", "consumer-lazy-arm",
		telemetry.I("funcs", int64(s.lazyStats.Armed)))
	return 0
}

// lazyPageIn materializes fn's packaged translation on its first call:
// the pager fetches the artifact (charging its virtual fetch time to
// the running request), then the translation is installed at
// relocation cost — no tier-2 compile, the package already holds the
// optimized code. A pager miss is terminal for fn: it stays on the
// interpreter and the normal live-JIT path picks it up, with no retry
// storm against a degraded store.
func (s *Server) lazyPageIn(fn *bytecode.Function) {
	if s.cfg.Pager != nil {
		secs, ok := s.cfg.Pager.PageIn(fn.Name)
		if cycles := secs * clockHz; cycles > 0 {
			s.rt.AddCyclesBucket(uint64(cycles), telemetry.CyclePageIn)
		}
		if !ok {
			s.lazyStats.Misses++
			s.tel.Counter("server.lazy_miss_total").Inc()
			s.tel.Event(s.now, "server", "lazy-pagein-miss",
				telemetry.S("fn", fn.Name))
			return
		}
	}
	tr, err := s.j.CompileOptimized(fn, s.cfg.Package)
	if err != nil {
		s.lazyStats.Misses++
		s.tel.Counter("server.lazy_miss_total").Inc()
		return
	}
	// Install one translation alone: relocation activates it, but —
	// unlike the eager path's whole-package relocation in call-graph
	// order — a function paged in by itself cannot share cache lines
	// with its callers. Worse steady-state locality is part of the
	// lazy tradeoff the experiments measure.
	if err := s.j.RelocateOptimized(
		map[string]*jit.Translation{fn.Name: tr}, []string{fn.Name}); err != nil {
		s.lazyStats.Misses++
		s.tel.Counter("server.lazy_miss_total").Inc()
		return
	}
	s.optTrans[fn.Name] = tr
	s.rt.AddCyclesBucket(
		uint64(float64(tr.HotSize+tr.ColdSize)*relocCyclesPerByte),
		telemetry.CyclePageIn)
	s.lazyStats.Paged++
	s.tel.Counter("server.lazy_pagein_total").Inc()
}
