// Package jit simulates HHVM's tiered JIT compiler. It does not emit
// machine code; it lowers bytecode into sized Vasm CFGs (package vasm),
// applies the profile-guided optimizations the paper describes — type
// specialization, guarded devirtualization, profile-guided inlining,
// Ext-TSP block layout with hot/cold splitting, and C3 function
// sorting — and places the results in a simulated code cache. A
// Runtime tracer charges execution cycles for whichever translation a
// function currently has, which is how tier transitions, Jump-Start
// and the Section V optimizations become measurable.
package jit

import (
	"fmt"
	"sort"

	"jumpstart/internal/bytecode"
	"jumpstart/internal/layout"
	"jumpstart/internal/prof"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/vasm"
)

// Tier identifies a translation flavour.
type Tier uint8

// Translation tiers, mirroring HHVM's.
const (
	// TierNone means the function executes in the interpreter.
	TierNone Tier = iota
	// TierLive is a tracelet-style translation built from live VM
	// state, without profile data.
	TierLive
	// TierProfile is the instrumented tier-1 translation.
	TierProfile
	// TierOptimized is the profile-guided tier-2 translation.
	TierOptimized
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierNone:
		return "none"
	case TierLive:
		return "live"
	case TierProfile:
		return "profile"
	case TierOptimized:
		return "optimized"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// FunctionSort selects the function-sorting algorithm.
type FunctionSort string

// Function-sort choices.
const (
	SortC3   FunctionSort = "c3"
	SortPH   FunctionSort = "ph"
	SortNone FunctionSort = "none"
)

// Options parameterizes compilation. The Use* fields are the Figure 6
// ablation switches; the Instrument* fields enable the extra seeder
// instrumentation of Sections V-A/V-B.
type Options struct {
	// UseVasmCounters uses seeded Vasm-level block counters for block
	// layout instead of bytecode-derived weights (Section V-A).
	UseVasmCounters bool
	// UseSeededCallGraph builds the function-sorting call graph from
	// the seeder's tier-2 entry instrumentation instead of the tier-1
	// call-target profiles (Section V-B).
	UseSeededCallGraph bool
	// InstrumentOptimized adds block counters and entry counters to
	// optimized translations (seeder mode, Figure 3b). server.New sets
	// it from the server's mode.
	InstrumentOptimized bool

	// FuncSort selects the function-sorting algorithm.
	FuncSort FunctionSort
}

// DefaultOptions returns production-like settings.
func DefaultOptions() Options {
	return Options{FuncSort: SortC3}
}

// Optimization thresholds, fixed at production-like settings.
const (
	// inlineMaxBlocks bounds the callee size (in bytecode basic
	// blocks) eligible for inlining.
	inlineMaxBlocks = 12
	// inlineMinFraction is the dominant-target fraction required to
	// inline or devirtualize a call site.
	inlineMinFraction = 0.9
	// coldFraction is the hot/cold split threshold relative to the
	// hottest block.
	coldFraction = 0.02
	// guardAssumedWeight is the fraction of a block's weight assumed
	// to reach its guard exits when no Vasm counters are available —
	// the bytecode/Vasm semantic gap of Section V-A.
	guardAssumedWeight = 0.05
)

// InlineMap records how an inlined callee's bytecode blocks map into
// the caller's translation.
type InlineMap struct {
	Callee bytecode.FuncID
	// BlockOf maps callee bytecode block id -> vasm block id in the
	// caller's CFG.
	BlockOf []int
	// SpecTypes guards specialized sites inside the inlined body: a
	// table indexed by callee pc (see Translation.SpecTypes).
	SpecTypes []uint32
}

// Translation is one compiled body.
type Translation struct {
	Fn   *bytecode.Function
	Tier Tier
	CFG  *vasm.CFG

	// MainMap maps the function's bytecode block ids to vasm blocks.
	MainMap []int
	// Inlines maps call-site pc -> inlined callee info.
	Inlines map[int32]*InlineMap
	// SpecTypes is the guard table of the specialized sites, indexed
	// by pc: the kind pair a site guards on (a<<8|b) plus one, and 0 at
	// an unguarded pc. The runtime charges a side exit when execution
	// deviates. nil when nothing was specialized.
	SpecTypes []uint32
	// Devirt records guarded direct-call targets by call-site pc.
	Devirt map[int32]string

	// Order is the final block order (hot section then cold section);
	// HotCount is the length of the hot prefix.
	Order    []int
	HotCount int
	// BlockAddr assigns each vasm block its simulated address.
	BlockAddr []uint64
	// HotSize/ColdSize are section sizes in bytes.
	HotSize, ColdSize int

	// Counts are runtime per-vasm-block counters. Only the seeder's
	// instrumented tier-2 code has them (Options.InstrumentOptimized):
	// tier-1 code executes its counter instructions, but nothing reads
	// their values, so it keeps none.
	Counts []uint64
	// EntryCount counts activations (instrumented optimized only).
	EntryCount uint64
}

// Instrumented reports whether the translation carries counters, which
// implies it is instrumented tier-2 code.
func (t *Translation) Instrumented() bool { return t.Counts != nil }

// CodeSize returns the translation's total emitted bytes.
func (t *Translation) CodeSize() int {
	size := 0
	for _, b := range t.Order {
		size += t.CFG.Blocks[b].Size()
	}
	return size
}

// JIT is the compilation manager for one server.
type JIT struct {
	prog *bytecode.Program
	opts Options
	cc   *CodeCache

	active []*Translation // by FuncID; nil = interpreter

	// epoch counts changes to running code: it moves once per change
	// of some function's active translation, and changed[fn] is its
	// value at fn's latest change (see Epoch and ChangedAt).
	epoch   uint64
	changed []uint64 // by FuncID

	// Telemetry (all nil when disabled — the methods are nil-safe).
	tel        *telemetry.Set
	clock      func() float64
	cCompile   [4]*telemetry.Counter // by Tier
	gOccupancy [numRegions]*telemetry.Gauge
}

// New creates a JIT for prog with the given options and code cache.
func New(prog *bytecode.Program, opts Options, cc *CodeCache) *JIT {
	return &JIT{
		prog:    prog,
		opts:    opts,
		cc:      cc,
		active:  make([]*Translation, len(prog.Funcs)),
		changed: make([]uint64, len(prog.Funcs)),
	}
}

// SetTelemetry installs the observation set. clock supplies the
// owner's virtual time for trace events (nil = always 0). Safe to
// leave uncalled; everything below is nil-safe.
func (j *JIT) SetTelemetry(tel *telemetry.Set, clock func() float64) {
	j.tel = tel
	j.clock = clock
	for t := TierLive; t <= TierOptimized; t++ {
		j.cCompile[t] = tel.Counter("jit.compile." + t.String() + "_total")
	}
	for r := Region(0); r < numRegions; r++ {
		j.gOccupancy[r] = tel.Gauge("jit.cache." + r.String() + "_bytes")
	}
}

// now returns the owner's virtual time for trace events.
func (j *JIT) now() float64 {
	if j.clock == nil {
		return 0
	}
	return j.clock()
}

// noteCompile records one compilation in the metrics and trace.
func (j *JIT) noteCompile(t *Translation) {
	if j.tel == nil {
		return
	}
	j.cCompile[t.Tier].Inc()
	j.gOccupancy[regionOfTier(t.Tier)].Set(float64(j.cc.Used(regionOfTier(t.Tier))))
	j.tel.Event(j.now(), "jit", "compile",
		telemetry.S("fn", t.Fn.Name),
		telemetry.S("tier", t.Tier.String()),
		telemetry.I("bytes", int64(t.CodeSize())))
}

// regionOfTier maps a tier to the region its fresh translations are
// placed in (optimized code starts in the temp buffers).
func regionOfTier(t Tier) Region {
	switch t {
	case TierProfile:
		return RegionProfile
	case TierOptimized:
		return RegionTemp
	default:
		return RegionLive
	}
}

// Options returns the JIT's options.
func (j *JIT) Options() Options { return j.opts }

// Cache returns the code cache.
func (j *JIT) Cache() *CodeCache { return j.cc }

// Active returns the translation currently executing for fn (nil =
// interpreter).
func (j *JIT) Active(id bytecode.FuncID) *Translation { return j.active[id] }

// SetActive installs t as fn's current translation (nil = back to the
// interpreter) and stamps the change.
func (j *JIT) SetActive(id bytecode.FuncID, t *Translation) {
	j.active[id] = t
	j.epoch++
	j.changed[id] = j.epoch
}

// Epoch returns the running-code epoch: a monotonic counter that moves
// exactly when some function's active translation changes — a tier-1
// or live compile that was placed, each function a relocation
// activates, a SetActive. A tier-2 compile parked in RegionTemp and a
// placement that fails in Alloc change nothing that executes and do
// not move it. A replay capture that sees it move between its start
// and its end ran partly on code that no longer runs, and is discarded.
func (j *JIT) Epoch() uint64 { return j.epoch }

// ChangedAt returns the epoch at which fn's active translation last
// changed (0 = never: still the interpreter it started on). Whatever
// was derived from fn's tier or block addresses under epoch e is still
// exact iff ChangedAt(fn) <= e.
func (j *JIT) ChangedAt(id bytecode.FuncID) uint64 { return j.changed[id] }

// CompileProfiling builds and places the tier-1 translation for fn and
// makes it active.
func (j *JIT) CompileProfiling(fn *bytecode.Function) (*Translation, error) {
	t := j.lower(fn, TierProfile, nil, nil)
	if err := j.place(t, RegionProfile); err != nil {
		return nil, err
	}
	j.SetActive(fn.ID, t)
	j.noteCompile(t)
	return t, nil
}

// CompileLive builds and places a live translation for fn and makes it
// active (used for the long tail after optimized code is in place).
func (j *JIT) CompileLive(fn *bytecode.Function) (*Translation, error) {
	t := j.lower(fn, TierLive, nil, nil)
	if err := j.place(t, RegionLive); err != nil {
		return nil, err
	}
	j.SetActive(fn.ID, t)
	j.noteCompile(t)
	return t, nil
}

// CompileOptimized builds the tier-2 translation for fn from profile
// data. The translation is placed in the temporary buffer region; it
// becomes active (and correctly addressed) only after
// RelocateOptimized, reproducing Figure 1's B→C phase.
func (j *JIT) CompileOptimized(fn *bytecode.Function, p *prof.Profile) (*Translation, error) {
	fp := p.Funcs[fn.Name]
	if fp == nil {
		return nil, fmt.Errorf("jit: no profile for %s", fn.Name)
	}
	if fp.Checksum != prof.FuncChecksum(fn) {
		return nil, fmt.Errorf("jit: stale profile for %s (checksum mismatch)", fn.Name)
	}
	t := j.lower(fn, TierOptimized, fp, p)
	j.applyLayout(t, fp)
	if err := j.place(t, RegionTemp); err != nil {
		return nil, err
	}
	j.noteCompile(t)
	return t, nil
}

// RelocateOptimized moves the given optimized translations from the
// temporary buffers into their final hot/cold code-cache locations in
// the given order, and activates them. Unknown names are skipped (a
// stale function order must not break startup).
func (j *JIT) RelocateOptimized(trans map[string]*Translation, order []string) error {
	seen := make(map[string]bool, len(order))
	place := func(name string) error {
		t := trans[name]
		if t == nil || seen[name] {
			return nil
		}
		seen[name] = true
		if err := j.relocate(t); err != nil {
			return err
		}
		j.SetActive(t.Fn.ID, t)
		return nil
	}
	for _, name := range order {
		if err := place(name); err != nil {
			return err
		}
	}
	// Anything not named by the order still gets placed, after.
	names := make([]string, 0, len(trans))
	for name := range trans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := place(name); err != nil {
			return err
		}
	}
	j.cc.ReleaseTemp()
	if j.tel != nil {
		hot, cold := 0, 0
		for _, t := range trans {
			hot += t.HotSize
			cold += t.ColdSize
		}
		j.tel.Counter("jit.relocations_total").Inc()
		j.tel.Event(j.now(), "jit", "relocate",
			telemetry.I("funcs", int64(len(trans))),
			telemetry.I("hot_bytes", int64(hot)),
			telemetry.I("cold_bytes", int64(cold)))
		for r := Region(0); r < numRegions; r++ {
			j.gOccupancy[r].Set(float64(j.cc.Used(r)))
		}
	}
	return nil
}

// FunctionOrder computes the code-cache placement order for the named
// functions using the JIT's configured call-graph source (see
// FunctionOrderWith).
func (j *JIT) FunctionOrder(p *prof.Profile, names []string) []string {
	return j.FunctionOrderWith(p, names, j.opts.UseSeededCallGraph)
}

// FunctionOrderWith computes the placement order. With useSeeded (and
// seeded CallPairs present) the accurate tier-2 entry-instrumentation
// graph is used; otherwise the tier-1 call-target profiles approximate
// it — including arcs that tier-2 inlining eliminates, which is
// exactly the inaccuracy Section V-B fixes.
func (j *JIT) FunctionOrderWith(p *prof.Profile, names []string, useSeeded bool) []string {
	idx := make(map[string]int, len(names))
	cg := &layout.CallGraph{}
	for i, name := range names {
		idx[name] = i
		fp := p.Funcs[name]
		size := 64
		var weight uint64
		if fn, ok := j.prog.FuncByName(name); ok {
			size = estimateOptSize(fn)
			if fp != nil {
				weight = fp.EntryCount
			}
		}
		cg.Nodes = append(cg.Nodes, layout.FuncNode{Name: name, Size: size, Weight: weight})
	}

	if useSeeded && len(p.CallPairs) > 0 {
		for pair, w := range p.CallPairs {
			ci, ok1 := idx[pair.Caller]
			ce, ok2 := idx[pair.Callee]
			if ok1 && ok2 {
				cg.Arcs = append(cg.Arcs, layout.Arc{Caller: ci, Callee: ce, Weight: w})
			}
		}
	} else {
		// Tier-1 approximation: call-target profiles, which still
		// include arcs that tier-2 inlining will eliminate.
		for caller, fp := range p.Funcs {
			ci, ok := idx[caller]
			if !ok {
				continue
			}
			for _, targets := range fp.CallTargets {
				for callee, w := range targets {
					if ce, ok := idx[callee]; ok {
						cg.Arcs = append(cg.Arcs, layout.Arc{Caller: ci, Callee: ce, Weight: w})
					}
				}
			}
		}
	}

	var order []int
	switch j.opts.FuncSort {
	case SortPH:
		order = layout.PettisHansen(cg)
	case SortNone:
		order = make([]int, len(names))
		for i := range order {
			order[i] = i
		}
	default:
		order = layout.C3(cg, layout.DefaultMaxClusterSize)
	}
	out := make([]string, len(order))
	for i, id := range order {
		out[i] = names[id]
	}
	return out
}

// estimateOptSize approximates a function's optimized code size from
// its bytecode (used for call-graph node sizes before compilation).
func estimateOptSize(fn *bytecode.Function) int {
	n := 0
	for _, in := range fn.Code {
		n += vasm.SpecializedInstrs(in.Op)
	}
	return n * vasm.BytesPerInstr
}

// place allocates addresses for a freshly lowered translation in the
// given region using its current Order.
func (j *JIT) place(t *Translation, region Region) error {
	size := 0
	for _, b := range t.Order {
		size += t.CFG.Blocks[b].Size()
	}
	base, err := j.cc.Alloc(region, size)
	if err != nil {
		return err
	}
	addr := base
	for _, b := range t.Order {
		t.BlockAddr[b] = addr
		addr += uint64(t.CFG.Blocks[b].Size())
	}
	return nil
}

// relocate assigns a tier-2 translation's final hot and cold section
// addresses.
func (j *JIT) relocate(t *Translation) error {
	hotBase, err := j.cc.Alloc(RegionHot, t.HotSize)
	if err != nil {
		return err
	}
	coldBase := uint64(0)
	if t.ColdSize > 0 {
		coldBase, err = j.cc.Alloc(RegionCold, t.ColdSize)
		if err != nil {
			return err
		}
	}
	addr := hotBase
	for i, b := range t.Order {
		if i == t.HotCount {
			addr = coldBase
		}
		t.BlockAddr[b] = addr
		addr += uint64(t.CFG.Blocks[b].Size())
	}
	return nil
}
