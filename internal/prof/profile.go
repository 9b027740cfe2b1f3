// Package prof implements JIT profile data: the counters collected by
// the VM's profiling tier, the extra counters collected by instrumented
// optimized code on Jump-Start seeders, and the serialized profile-data
// package that seeders publish and consumers load (paper Section IV-B).
//
// The package contents mirror the paper's four categories:
//
//  1. repo global data to preload (unit list, in first-touch order);
//  2. JIT profile data (block/edge counters, call-target profiles,
//     type feedback) keyed by function name + bytecode checksum;
//  3. profile data for the optimized code (Vasm block counters and the
//     accurate tier-2 caller/callee graph of Sections V-A/V-B, plus
//     the property-access counts whose hotness orders object
//     properties in V-C);
//  4. intermediate JIT results (the precomputed function order).
package prof

import (
	"sort"

	"jumpstart/internal/bytecode"
)

// EdgeKey identifies a bytecode-block CFG edge within one function.
type EdgeKey struct {
	Src, Dst int32
}

// CallPair is a caller→callee pair in the tier-2 call graph.
type CallPair struct {
	Caller, Callee string
}

// FuncProfile aggregates all profile data for one function.
type FuncProfile struct {
	// Checksum fingerprints the function bytecode the profile was
	// collected against; consumers reject mismatches (stale profiles
	// after a code push).
	Checksum uint64
	// EntryCount is how many activations were profiled.
	EntryCount uint64
	// BlockCounts holds per-bytecode-basic-block execution counts.
	BlockCounts []uint64
	// EdgeCounts holds taken-edge counts between bytecode blocks.
	EdgeCounts map[EdgeKey]uint64
	// CallTargets maps a call-site pc to callee-name → count. This is
	// the "call target profile" driving guarded devirtualization and
	// profile-guided inlining.
	CallTargets map[int32]map[string]uint64
	// TypeObs maps an instruction pc to observed operand-kind pairs
	// (a<<8|b) → count. Monomorphic sites enable type specialization.
	TypeObs map[int32]map[uint16]uint64
	// VasmCounts holds the per-Vasm-block execution counts collected by
	// the instrumented optimized code on seeders (Section V-A). Its
	// length matches the tier-2 translation's block count; nil when the
	// optimization is disabled.
	VasmCounts []uint64
}

// Profile is a complete profile-data package (in-memory form).
type Profile struct {
	// Meta describes provenance and health of the package.
	Meta Meta
	// Units lists unit names in first-touch order: the preload list
	// (category 1).
	Units []string
	// Funcs holds per-function profiles keyed by qualified name.
	Funcs map[string]*FuncProfile
	// Props holds property-access counts keyed "Class::prop" (V-C).
	Props map[string]uint64
	// CallPairs is the accurate tier-2 call graph (V-B). Unlike the
	// tier-1 call-target profiles, these are collected from optimized
	// code with inlining applied.
	CallPairs map[CallPair]uint64
	// FuncOrder is the precomputed code-cache placement order
	// (category 4), computed on the seeder so consumers skip the
	// C3 run.
	FuncOrder []string
}

// Meta is the package header's descriptive fields.
type Meta struct {
	// Region and Bucket identify the data-center region and semantic
	// bucket the profile was collected in.
	Region, Bucket int32
	// SeederID identifies the collecting server.
	SeederID int32
	// Revision is the website revision the profile matches.
	Revision int64
	// RequestCount is how many requests fed the profile.
	RequestCount int64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		Funcs:     make(map[string]*FuncProfile),
		Props:     make(map[string]uint64),
		CallPairs: make(map[CallPair]uint64),
	}
}

// FuncChecksum fingerprints a function's bytecode (FNV-1a over the
// instruction stream).
func FuncChecksum(fn *bytecode.Function) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	mix(uint64(fn.NumParams))
	mix(uint64(fn.NumLocals))
	for _, in := range fn.Code {
		mix(uint64(in.Op))
		mix(uint64(uint32(in.A)))
		mix(uint64(uint32(in.B)))
	}
	return h
}

// Coverage summarizes how much of the program a profile covers; the
// seeder checks these against thresholds before publishing (paper
// Section VI-B).
type Coverage struct {
	Funcs        int    // functions with any profile data
	Blocks       int    // blocks with nonzero counts
	TotalCount   uint64 // sum of all block counts
	RequestCount int64
}

// Coverage computes the profile's coverage summary.
func (p *Profile) Coverage() Coverage {
	c := Coverage{RequestCount: p.Meta.RequestCount}
	for _, fp := range p.Funcs {
		c.Funcs++
		for _, n := range fp.BlockCounts {
			if n > 0 {
				c.Blocks++
				c.TotalCount += n
			}
		}
	}
	return c
}

// Thresholds are the minimum coverage levels a profile must meet to be
// published (Section VI-B: "profile coverage ... is checked against
// pre-configured thresholds before the profile data is published").
type Thresholds struct {
	MinFuncs    int
	MinBlocks   int
	MinRequests int64
}

// MeetsThresholds reports whether the profile's coverage meets t.
func (p *Profile) MeetsThresholds(t Thresholds) bool {
	c := p.Coverage()
	return c.Funcs >= t.MinFuncs && c.Blocks >= t.MinBlocks &&
		c.RequestCount >= t.MinRequests
}

// HotFunctions returns function names ordered by decreasing entry
// count (ties by name) — the set the JIT compiles in optimized mode.
func (p *Profile) HotFunctions() []string { return p.HotFunctionsMin(1) }

// HotFunctionsMin returns functions with at least min profiled
// activations, ordered by decreasing entry count. HHVM only optimizes
// functions with enough profile data; everything below the threshold
// stays on the live-JIT path after point C, forming the long tail of
// Figure 1's C→D phase.
func (p *Profile) HotFunctionsMin(min uint64) []string {
	if min == 0 {
		min = 1
	}
	names := make([]string, 0, len(p.Funcs))
	for n, fp := range p.Funcs {
		if fp.EntryCount >= min {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		ci, cj := p.Funcs[names[i]].EntryCount, p.Funcs[names[j]].EntryCount
		if ci != cj {
			return ci > cj
		}
		return names[i] < names[j]
	})
	return names
}

// DominantTarget returns the callee receiving at least frac of the
// calls at the given site, if any — the devirtualization/inlining
// decision procedure.
func (fp *FuncProfile) DominantTarget(pc int32, frac float64) (string, bool) {
	targets := fp.CallTargets[pc]
	if len(targets) == 0 {
		return "", false
	}
	var total, best uint64
	bestName := ""
	for name, n := range targets {
		total += n
		if n > best || (n == best && name < bestName) {
			best = n
			bestName = name
		}
	}
	if float64(best) >= frac*float64(total) {
		return bestName, true
	}
	return "", false
}

// MonoTypes reports whether the operands at pc were monomorphic, and
// returns the dominant kind pair. A site is monomorphic when one kind
// pair accounts for at least 95% of observations.
func (fp *FuncProfile) MonoTypes(pc int32) (a, b uint8, mono bool) {
	obs := fp.TypeObs[pc]
	if len(obs) == 0 {
		return 0, 0, false
	}
	var total, best uint64
	var bestKey uint16
	first := true
	for k, n := range obs {
		total += n
		if n > best || (n == best && (first || k < bestKey)) {
			best = n
			bestKey = k
			first = false
		}
	}
	if float64(best) >= 0.95*float64(total) {
		return uint8(bestKey >> 8), uint8(bestKey & 0xff), true
	}
	return 0, 0, false
}
