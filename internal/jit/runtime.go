package jit

import (
	"jumpstart/internal/bytecode"
	"jumpstart/internal/interp"
	"jumpstart/internal/object"
	"jumpstart/internal/prof"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/value"
)

// Cycle-cost constants.
const (
	// InterpCyclesPerInstr is the interpreter's dispatch+execute cost
	// per bytecode instruction.
	InterpCyclesPerInstr = 30
	// CyclesPerVasmInstr is the translated code's cost per
	// pseudo-instruction (before micro-architectural penalties).
	CyclesPerVasmInstr = 1
	// GuardFailPenalty is charged when a specialization or
	// devirtualization guard fails (side exit + generic fallback).
	GuardFailPenalty = 60
)

// Runtime charges execution costs for whatever translation each
// function currently has, feeds the micro-architecture simulator, and
// (in seeder mode) harvests the tier-2 instrumentation counters. It
// implements interp.Tracer; the server's own tracer forwards every
// event to it, after the prof.Collector while profiling.
type Runtime struct {
	jit *JIT
	mem MemSim

	cycles     uint64
	guardFails uint64
	microOn    bool

	// rec, when non-nil, receives a copy of every charge and memory
	// event (replay capture). Installed only for the duration of one
	// capture, so the nil check is the entire steady-state cost.
	rec Recorder

	frames []rtFrame

	callPairs map[prof.CallPair]uint64

	// cp attributes every charged cycle to a telemetry bucket (nil =
	// profiling off; all CycleProfile methods are nil-safe). The server
	// installs it once init completes, so init-phase execution stays
	// attributed to the coarse server-level init buckets.
	cp *telemetry.CycleProfile
}

// MemSim is the slice of the micro-architecture simulator the runtime
// needs; *microarch.Hierarchy satisfies it. A nil MemSim disables
// penalty modelling.
type MemSim interface {
	Fetch(addr uint64, size int) int
	Data(addr uint64) int
	Branch(pc uint64, taken bool) int
}

// Recorder mirrors the runtime's charge stream while a replay capture
// is in flight (see internal/replay). Every cycle the runtime charges
// and every memory event it feeds to the MemSim is echoed to the
// recorder so the capture can be replayed later without re-executing.
// MarkDirty poisons the capture: something happened that a replay
// could not reproduce (a unit load, a compile, a write to an
// instrumented tier-2 translation's counters), so the entry must be
// discarded.
type Recorder interface {
	RecordBase(b telemetry.CycleBucket, cycles uint64)
	RecordFetch(addr uint64, size int)
	RecordData(addr uint64)
	RecordBranch(pc uint64, taken bool)
	RecordGuardFail()
	RecordEnter(fn *bytecode.Function)
	RecordReturn()
	MarkDirty()
}

type rtFrame struct {
	fn     *bytecode.Function
	trans  *Translation // nil → interpreter
	inline *InlineMap   // non-nil → body inlined into parent trans
	parent *Translation // owner translation when inline != nil

	lastVasm int
	lastAddr uint64
	lastSize int
	lastCond bool

	pendingInline *InlineMap
	pendingParent *Translation
}

var _ interp.Tracer = (*Runtime)(nil)

// NewRuntime creates a serving-mode runtime for j. mem may be nil.
func NewRuntime(j *JIT, mem MemSim) *Runtime {
	return &Runtime{
		jit:       j,
		mem:       mem,
		callPairs: make(map[prof.CallPair]uint64),
	}
}

// BeginRequest resets per-request state. micro selects whether this
// request feeds the micro-architecture simulator (sampling keeps the
// simulation fast; costs for unsampled requests use base cycles only).
func (r *Runtime) BeginRequest(micro bool) {
	r.frames = r.frames[:0]
	r.microOn = micro && r.mem != nil
}

// TakeCycles returns and clears the accumulated cycle count.
func (r *Runtime) TakeCycles() uint64 {
	c := r.cycles
	r.cycles = 0
	return c
}

// Cycles returns the accumulated cycle count.
func (r *Runtime) Cycles() uint64 { return r.cycles }

// AddCyclesBucket charges extra cycles attributed to the given
// telemetry bucket (used by the server for unit loads and compile
// costs charged on the request path). External charges are invisible
// to a replay capture, so it poisons any capture in flight: unit loads
// and compiles are one-time effects a replay could not reproduce.
func (r *Runtime) AddCyclesBucket(c uint64, b telemetry.CycleBucket) {
	r.cycles += c
	r.cp.AddUint(b, c)
	if r.rec != nil {
		r.rec.MarkDirty()
	}
}

// ReplayCharge credits cycles from a replayed capture to the given
// bucket. Unlike AddCyclesBucket it does not poison captures — it is
// only callable when no capture is in flight (replay and capture are
// mutually exclusive by construction).
func (r *Runtime) ReplayCharge(b telemetry.CycleBucket, c uint64) {
	r.cycles += c
	r.cp.AddUint(b, c)
}

// AddGuardFails credits guard failures observed during a replay.
func (r *Runtime) AddGuardFails(n uint64) { r.guardFails += n }

// SetRecorder installs (or, with nil, removes) the capture recorder.
func (r *Runtime) SetRecorder(rec Recorder) { r.rec = rec }

// MicroOn reports whether the current request feeds the
// micro-architecture simulator.
func (r *Runtime) MicroOn() bool { return r.microOn }

// CallContext keys the dispatch behaviour of a direct call at pc in
// the currently executing frame. It is non-zero only when the frame
// runs an optimized translation with an inline or devirtualization
// decision at that site — the cases where OnCallSite charges depend on
// the caller's translation, so a replay captured under one caller
// context must not be reused under another.
func (r *Runtime) CallContext(pc int) uint64 {
	n := len(r.frames)
	if n == 0 {
		return 0
	}
	f := &r.frames[n-1]
	if f.inline != nil || f.trans == nil || f.trans.Tier != TierOptimized {
		return 0
	}
	t := f.trans
	if _, ok := t.Inlines[int32(pc)]; ok {
		return uint64(f.fn.ID)<<20 | uint64(pc) + 1
	}
	if _, ok := t.Devirt[int32(pc)]; ok {
		return uint64(f.fn.ID)<<20 | uint64(pc) + 1
	}
	return 0
}

// SetCycleProfile installs (or removes, with nil) the cycle
// attribution profiler.
func (r *Runtime) SetCycleProfile(cp *telemetry.CycleProfile) { r.cp = cp }

// GuardFails returns the number of failed specialization guards.
func (r *Runtime) GuardFails() uint64 { return r.guardFails }

// OnEnter implements interp.Tracer.
func (r *Runtime) OnEnter(fn *bytecode.Function) {
	if r.rec != nil {
		r.rec.RecordEnter(fn)
	}
	var f rtFrame
	f.fn = fn
	f.lastVasm = -1
	if n := len(r.frames); n > 0 {
		top := &r.frames[n-1]
		if top.pendingInline != nil && top.pendingInline.Callee == fn.ID {
			f.inline = top.pendingInline
			f.parent = top.pendingParent
		}
		top.pendingInline = nil
		top.pendingParent = nil
	}
	if f.inline == nil {
		f.trans = r.jit.Active(fn.ID)
		if t := f.trans; t != nil && t.Instrumented() {
			t.EntryCount++
			if r.rec != nil {
				r.rec.MarkDirty() // instrumentation writes are unreplayable
			}
			// Accurate tier-2 call graph (Section V-B): record the
			// caller/callee pair when the caller also runs optimized
			// code. Inlined calls never reach here — exactly why this
			// graph is more accurate than the tier-1 one.
			if n := len(r.frames); n > 0 {
				caller := r.frames[n-1]
				if caller.trans != nil && caller.trans.Tier == TierOptimized {
					r.callPairs[prof.CallPair{Caller: caller.fn.Name, Callee: fn.Name}]++
				}
			}
		}
	}
	r.frames = append(r.frames, f)
}

// OnReturn implements interp.Tracer.
func (r *Runtime) OnReturn(fn *bytecode.Function) {
	if r.rec != nil {
		r.rec.RecordReturn()
	}
	if n := len(r.frames); n > 0 {
		r.frames = r.frames[:n-1]
	}
}

// OnBlock implements interp.Tracer: the cost-charging heart.
func (r *Runtime) OnBlock(fn *bytecode.Function, block int) {
	n := len(r.frames)
	if n == 0 {
		return
	}
	f := &r.frames[n-1]

	var t *Translation
	var vb int
	switch {
	case f.inline != nil:
		t = f.parent
		if block >= len(f.inline.BlockOf) {
			return
		}
		vb = f.inline.BlockOf[block]
	case f.trans != nil:
		t = f.trans
		if block >= len(t.MainMap) {
			return
		}
		vb = t.MainMap[block]
	default:
		// Interpreter: dispatch cost per bytecode instruction.
		blocks := fn.Blocks()
		if block < len(blocks) {
			c := uint64(blocks[block].Len()) * InterpCyclesPerInstr
			r.cycles += c
			r.cp.AddUint(telemetry.CycleInterp, c)
			if r.rec != nil {
				r.rec.RecordBase(telemetry.CycleInterp, c)
			}
		}
		return
	}

	blk := &t.CFG.Blocks[vb]
	c := uint64(blk.NInstrs) * CyclesPerVasmInstr
	r.cycles += c
	r.cp.AddUint(telemetry.CycleJITExec, c)
	if r.rec != nil {
		r.rec.RecordBase(telemetry.CycleJITExec, c)
	}
	if t.Counts != nil {
		t.Counts[vb]++
		if r.rec != nil {
			r.rec.MarkDirty() // instrumentation writes are unreplayable
		}
	}
	if r.microOn {
		addr := t.BlockAddr[vb]
		fetch := uint64(r.mem.Fetch(addr, blk.Size()))
		r.cycles += fetch
		r.cp.AddUint(telemetry.CycleIFetch, fetch)
		if r.rec != nil {
			r.rec.RecordFetch(addr, blk.Size())
		}
		if f.lastVasm >= 0 && f.lastCond {
			taken := addr != f.lastAddr+uint64(f.lastSize)
			br := uint64(r.mem.Branch(f.lastAddr, taken))
			r.cycles += br
			r.cp.AddUint(telemetry.CycleBranch, br)
			if r.rec != nil {
				r.rec.RecordBranch(f.lastAddr, taken)
			}
		}
	}
	f.lastVasm = vb
	f.lastAddr = t.BlockAddr[vb]
	f.lastSize = blk.Size()
	f.lastCond = len(blk.Succs) > 1
}

// OnCallSite implements interp.Tracer: inline dispatch and
// devirtualization guards.
func (r *Runtime) OnCallSite(fn *bytecode.Function, pc int, callee *bytecode.Function) {
	n := len(r.frames)
	if n == 0 {
		return
	}
	f := &r.frames[n-1]
	if f.inline != nil || f.trans == nil || f.trans.Tier != TierOptimized {
		return
	}
	t := f.trans
	if im, ok := t.Inlines[int32(pc)]; ok {
		if im.Callee == callee.ID {
			f.pendingInline = im
			f.pendingParent = t
		} else {
			// Inline guard failed: side exit, generic dispatch.
			r.chargeGuardFail()
		}
		return
	}
	if target, ok := t.Devirt[int32(pc)]; ok && target != callee.Name {
		r.chargeGuardFail()
	}
}

// chargeGuardFail charges one failed guard (side exit + generic
// fallback), echoing it to a capture in flight.
func (r *Runtime) chargeGuardFail() {
	r.guardFails++
	r.cycles += GuardFailPenalty
	r.cp.AddUint(telemetry.CycleGuard, GuardFailPenalty)
	if r.rec != nil {
		r.rec.RecordBase(telemetry.CycleGuard, GuardFailPenalty)
		r.rec.RecordGuardFail()
	}
}

// OnNewObj implements interp.Tracer.
func (r *Runtime) OnNewObj(obj *object.Object) {
	if r.microOn {
		c := uint64(r.mem.Data(obj.Addr()))
		r.cycles += c
		r.cp.AddUint(telemetry.CycleData, c)
		if r.rec != nil {
			r.rec.RecordData(obj.Addr())
		}
	}
}

// OnPropAccess implements interp.Tracer: property slot touches drive
// the D-cache/D-TLB model, which is where Section V-C's reordering
// pays off.
func (r *Runtime) OnPropAccess(obj *object.Object, slot int, write bool) {
	if r.microOn {
		c := uint64(r.mem.Data(obj.SlotAddr(slot)))
		r.cycles += c
		r.cp.AddUint(telemetry.CycleData, c)
		if r.rec != nil {
			r.rec.RecordData(obj.SlotAddr(slot))
		}
	}
}

// OnOpTypes implements interp.Tracer: specialization guard checks.
func (r *Runtime) OnOpTypes(fn *bytecode.Function, pc int, a, b value.Kind) {
	n := len(r.frames)
	if n == 0 {
		return
	}
	f := &r.frames[n-1]
	var spec []uint32
	switch {
	case f.inline != nil:
		spec = f.inline.SpecTypes
	case f.trans != nil:
		spec = f.trans.SpecTypes
	}
	if uint(pc) < uint(len(spec)) {
		if want := spec[pc]; want != 0 && want != guardWant(uint8(a), uint8(b))+1 {
			r.chargeGuardFail()
		}
	}
}

// HarvestInto copies the tier-2 instrumentation results (Vasm block
// counters, accurate call pairs) into p — the seeder-side step between
// "collect profile data for optimized code" and "serialize profile
// data" in Figure 3b.
func (r *Runtime) HarvestInto(p *prof.Profile) {
	for id := range r.jit.active {
		t := r.jit.active[id]
		if t == nil || !t.Instrumented() {
			continue
		}
		fp := p.Funcs[t.Fn.Name]
		if fp == nil {
			continue
		}
		fp.VasmCounts = append([]uint64{}, t.Counts...)
	}
	for pair, w := range r.callPairs {
		p.CallPairs[pair] += w
	}
}
