package prof

import (
	"sort"

	"jumpstart/internal/bytecode"
)

// RemapStats reports how a cross-release remap went. The hit rate is
// the fraction of profiled functions whose data survived onto the new
// revision (exactly or fuzzily).
type RemapStats struct {
	// Exact counts functions matched by identical body fingerprint
	// under the same name — including functions whose raw checksum
	// changed only because literal-pool indices or function ids
	// shifted in the relink.
	Exact int
	// Renamed counts functions recovered by body fingerprint under a
	// *new* name (renamed with an identical body).
	Renamed int
	// Fuzzy counts functions matched by name + arity + CFG shape:
	// constants changed, control flow did not, so block and edge
	// counters still line up.
	Fuzzy int
	// Ambiguous counts functions dropped because two or more new
	// functions in the target shared the same body fingerprint — the
	// rename target cannot be decided, so the profile must not guess.
	Ambiguous int
	// Dropped counts functions whose profile could not be carried over
	// (body restructured, or the function was deleted).
	Dropped int
}

// Matched is the number of functions whose profile survived.
func (s RemapStats) Matched() int { return s.Exact + s.Renamed + s.Fuzzy }

// Total is the number of profiled functions considered.
func (s RemapStats) Total() int { return s.Matched() + s.Ambiguous + s.Dropped }

// HitRate is Matched/Total in [0,1]; 1.0 for an empty profile (there
// was nothing to lose).
func (s RemapStats) HitRate() float64 {
	if s.Total() == 0 {
		return 1
	}
	return float64(s.Matched()) / float64(s.Total())
}

// Remap translates a profile collected against program `from`
// (revision N) onto program `to` (revision N+1), returning a new
// profile stamped with newRevision. The input is not mutated.
//
// Per-function cascade, mirroring what HHVM's jumpstart merge would
// need under continuous deployment:
//
//  1. exact — the target has a same-named function with an identical
//     body fingerprint; everything carries over.
//  2. rename — exactly one function that is *new* in the target (its
//     name is absent from `from`) has an identical body fingerprint
//     and arity; the profile follows the rename. Two or more such
//     candidates are ambiguous and the profile drops instead.
//  3. fuzzy — the same-named target function kept its arity and CFG
//     shape (only constants changed); counters still line up
//     block-for-block and carry over.
//  4. drop — anything else (body restructured, function deleted).
//
// Matched functions get their Checksum rewritten to the target
// function's raw bytecode checksum: that is the gate the consumer JIT
// enforces (CompileOptimized rejects mismatches), and it is exactly
// the field that goes stale across a relink even for untouched code.
func Remap(p *Profile, from, to *bytecode.Program, newRevision int64) (*Profile, RemapStats) {
	var stats RemapStats

	// Index target functions that are new names (rename candidates) by
	// body fingerprint.
	newByBody := map[uint64][]*bytecode.Function{}
	for _, tf := range to.Funcs {
		if _, existed := from.FuncByName(tf.Name); !existed {
			newByBody[tf.Fingerprint.Body] = append(newByBody[tf.Fingerprint.Body], tf)
		}
	}

	out := NewProfile()
	out.Meta = p.Meta
	out.Meta.Revision = newRevision

	renames := map[string]string{} // old name -> new name
	survives := map[string]bool{}  // target-name set that made it

	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		fp := p.Funcs[name]
		sf, sok := from.FuncByName(name)
		if !sok {
			stats.Dropped++
			continue
		}
		tf, tok := to.FuncByName(name)
		switch {
		case tok && tf.Fingerprint.Body == sf.Fingerprint.Body:
			out.Funcs[name] = remapFunc(fp, tf, true)
			survives[name] = true
			stats.Exact++
		default:
			cands := candidates(newByBody[sf.Fingerprint.Body], sf.NumParams)
			switch {
			case len(cands) == 1:
				nf := cands[0]
				out.Funcs[nf.Name] = remapFunc(fp, nf, true)
				renames[name] = nf.Name
				survives[nf.Name] = true
				stats.Renamed++
			case len(cands) > 1:
				stats.Ambiguous++
			case tok && tf.NumParams == sf.NumParams &&
				tf.Fingerprint.Shape == sf.Fingerprint.Shape:
				out.Funcs[name] = remapFunc(fp, tf, false)
				survives[name] = true
				stats.Fuzzy++
			default:
				stats.Dropped++
			}
		}
	}

	// Rewrite call-target callee names through the rename map so
	// devirtualization keeps pointing at the surviving symbol.
	for _, fp := range out.Funcs {
		for _, targets := range fp.CallTargets {
			for callee, n := range targets {
				if to, ok := renames[callee]; ok {
					delete(targets, callee)
					targets[to] += n
				}
			}
		}
	}

	// Units: preload list carries over for units the target still has.
	known := map[string]bool{}
	for _, u := range to.Units {
		known[u.Name] = true
	}
	for _, name := range p.Units {
		if known[name] {
			out.Units = append(out.Units, name)
		}
	}

	// Property counters: keyed "Class::prop", independent of layout
	// order; keep entries whose class still exists.
	for k, n := range p.Props {
		if propClassExists(k, to) {
			out.Props[k] = n
		}
	}

	// Tier-2 call graph: follow renames, drop arcs to dead functions.
	for pair, n := range p.CallPairs {
		caller, callee := pair.Caller, pair.Callee
		if to, ok := renames[caller]; ok {
			caller = to
		}
		if to, ok := renames[callee]; ok {
			callee = to
		}
		if survives[caller] && survives[callee] {
			out.CallPairs[CallPair{Caller: caller, Callee: callee}] += n
		}
	}

	// Precomputed code-cache order: follow renames, keep survivors.
	for _, name := range p.FuncOrder {
		if to, ok := renames[name]; ok {
			name = to
		}
		if survives[name] {
			out.FuncOrder = append(out.FuncOrder, name)
		}
	}

	return out, stats
}

// candidates filters rename candidates by arity.
func candidates(fns []*bytecode.Function, numParams int) []*bytecode.Function {
	var out []*bytecode.Function
	for _, fn := range fns {
		if fn.NumParams == numParams {
			out = append(out, fn)
		}
	}
	return out
}

// remapFunc deep-copies a function profile onto the target function,
// restamping the checksum the consumer JIT checks. The fuzzy path only
// fires when the CFG shape is identical, so BlockCounts and EdgeCounts
// keep their meaning; VasmCounts describe the *optimized* translation,
// which re-lowering may shape differently when constants changed, so
// they only survive an exact body match.
func remapFunc(fp *FuncProfile, target *bytecode.Function, exact bool) *FuncProfile {
	out := &FuncProfile{
		Checksum:    FuncChecksum(target),
		EntryCount:  fp.EntryCount,
		BlockCounts: append([]uint64(nil), fp.BlockCounts...),
		EdgeCounts:  make(map[EdgeKey]uint64, len(fp.EdgeCounts)),
		CallTargets: make(map[int32]map[string]uint64, len(fp.CallTargets)),
		TypeObs:     make(map[int32]map[uint16]uint64, len(fp.TypeObs)),
	}
	if exact {
		out.VasmCounts = append([]uint64(nil), fp.VasmCounts...)
	}
	for k, n := range fp.EdgeCounts {
		out.EdgeCounts[k] = n
	}
	for pc, targets := range fp.CallTargets {
		m := make(map[string]uint64, len(targets))
		for name, n := range targets {
			m[name] = n
		}
		out.CallTargets[pc] = m
	}
	for pc, obs := range fp.TypeObs {
		m := make(map[uint16]uint64, len(obs))
		for k, n := range obs {
			m[k] = n
		}
		out.TypeObs[pc] = m
	}
	return out
}

// propClassExists reports whether the "Class::prop" key's class is
// still defined in the target program.
func propClassExists(key string, p *bytecode.Program) bool {
	for i := 0; i < len(key)-1; i++ {
		if key[i] == ':' && key[i+1] == ':' {
			_, ok := p.ClassByName(key[:i])
			return ok
		}
	}
	return false
}
