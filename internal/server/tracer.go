package server

import (
	"jumpstart/internal/bytecode"
	"jumpstart/internal/interp"
	"jumpstart/internal/object"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/value"
)

// serverTracer is the one tracer the server installs. On entry it
// charges unit first-touch (metadata load) costs and drives tier
// transitions (interpret → profile translation → live translation)
// based on call counts, mirroring HHVM's request-driven JIT triggering.
// Every event then goes to the tier-1 collector (only while profiling)
// and the cost-charging runtime, in that order: the runtime comes last
// so it charges for a translation the trigger has just compiled.
type serverTracer struct {
	s      *Server
	unitOf []int32 // by FuncID: position of the function's unit in Program.Units
	loaded []bool  // by unit position: metadata loaded
	calls  []uint32
}

var _ interp.Tracer = (*serverTracer)(nil)

func newServerTracer(s *Server) *serverTracer {
	prog := s.site.Prog
	t := &serverTracer{
		s:      s,
		unitOf: make([]int32, len(prog.Funcs)),
		loaded: make([]bool, len(prog.Units)),
		calls:  make([]uint32, len(prog.Funcs)),
	}
	for i, u := range prog.Units {
		for _, fn := range u.Funcs {
			t.unitOf[fn.ID] = int32(i)
		}
	}
	return t
}

// preload marks the named units loaded, as a consumer's package
// preload does before the first request.
func (t *serverTracer) preload(names []string) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	for i, u := range t.s.site.Prog.Units {
		if want[u.Name] {
			t.loaded[i] = true
		}
	}
}

// OnEnter implements interp.Tracer.
func (t *serverTracer) OnEnter(fn *bytecode.Function) {
	s := t.s
	// First touch of a unit loads its metadata on demand — the cost
	// that makes early no-Jump-Start requests so slow (Section VII-A).
	if u := t.unitOf[fn.ID]; !t.loaded[u] {
		t.loaded[u] = true
		s.rt.AddCyclesBucket(uint64(s.cfg.UnitPreloadCycles), telemetry.CycleUnitLoad)
	}
	t.calls[fn.ID]++

	// Lazy warmup: a marked hot function's first call materializes its
	// packaged translation. The mark clears regardless of outcome, so a
	// pager miss degrades to the live-JIT path below instead of
	// re-fetching against a broken store on every call.
	if s.lazyPending != nil && s.lazyPending[fn.ID] {
		s.lazyPending[fn.ID] = false
		s.lazyPageIn(fn)
	}

	switch s.phase {
	case PhaseProfiling:
		if s.j.Active(fn.ID) == nil && t.calls[fn.ID] >= profileTriggerCalls {
			if _, err := s.j.CompileProfiling(fn); err == nil {
				s.rt.AddCyclesBucket(
					uint64(float64(len(fn.Code))*tier1CompileCPI),
					telemetry.CycleTier1Compile)
			}
		}
	case PhaseOptimizing, PhaseServing, PhaseCollecting:
		// The long tail: functions first reached after profiling
		// stopped get live translations until the cache fills
		// (Figure 1's C→D).
		if !s.liveFull && s.j.Active(fn.ID) == nil &&
			t.calls[fn.ID] >= liveTriggerCalls {
			if _, err := s.j.CompileLive(fn); err != nil {
				s.liveFull = true // point D: JITing ceases
			} else {
				s.rt.AddCyclesBucket(
					uint64(float64(len(fn.Code))*liveCompileCPI),
					telemetry.CycleLiveCompile)
			}
		}
	}

	if s.col != nil {
		s.col.OnEnter(fn)
	}
	s.rt.OnEnter(fn)
}

// OnBlock implements interp.Tracer.
func (t *serverTracer) OnBlock(fn *bytecode.Function, block int) {
	if col := t.s.col; col != nil {
		col.OnBlock(fn, block)
	}
	t.s.rt.OnBlock(fn, block)
}

// OnCallSite implements interp.Tracer.
func (t *serverTracer) OnCallSite(fn *bytecode.Function, pc int, callee *bytecode.Function) {
	if col := t.s.col; col != nil {
		col.OnCallSite(fn, pc, callee)
	}
	t.s.rt.OnCallSite(fn, pc, callee)
}

// OnReturn implements interp.Tracer.
func (t *serverTracer) OnReturn(fn *bytecode.Function) {
	if col := t.s.col; col != nil {
		col.OnReturn(fn)
	}
	t.s.rt.OnReturn(fn)
}

// OnNewObj implements interp.Tracer. The collector does not count
// allocations, so only the runtime sees them.
func (t *serverTracer) OnNewObj(obj *object.Object) { t.s.rt.OnNewObj(obj) }

// OnPropAccess implements interp.Tracer.
func (t *serverTracer) OnPropAccess(obj *object.Object, slot int, write bool) {
	if col := t.s.col; col != nil {
		col.OnPropAccess(obj, slot, write)
	}
	t.s.rt.OnPropAccess(obj, slot, write)
}

// OnOpTypes implements interp.Tracer.
func (t *serverTracer) OnOpTypes(fn *bytecode.Function, pc int, a, b value.Kind) {
	if col := t.s.col; col != nil {
		col.OnOpTypes(fn, pc, a, b)
	}
	t.s.rt.OnOpTypes(fn, pc, a, b)
}
