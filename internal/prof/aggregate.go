package prof

import (
	"errors"
	"fmt"
	"sort"
)

// AggregateStats reports how a multi-seeder consensus merge went.
type AggregateStats struct {
	// Seeders is how many input profiles were merged.
	Seeders int
	// Funcs is how many functions the consensus profile carries.
	Funcs int
	// ChecksumConflicts counts functions where seeders disagreed on the
	// bytecode checksum; the majority-weight checksum won and the other
	// seeders' data for that function was discarded.
	ChecksumConflicts int
	// TypeSitesKept / TypeSitesDropped count type-observation sites
	// that survived the per-site vote vs sites where no strict majority
	// of observers agreed on a dominant kind pair (those drop to
	// generic: the consumer JIT emits unspecialized code there).
	TypeSitesKept    int
	TypeSitesDropped int
	// VasmDropped counts functions whose optimized-translation counters
	// were discarded because the contributing seeders disagreed on the
	// translation's block count.
	VasmDropped int
}

// ErrAggregateRevisions rejects mixing profiles collected against
// different revisions: the consensus package carries one revision
// stamp, and the remap cascade must stay applicable to it.
var ErrAggregateRevisions = errors.New("prof: aggregate inputs span revisions")

// scaleCount computes n·num/den in integer arithmetic without
// overflowing for the count magnitudes profiles carry (quotient and
// remainder scaled separately).
func scaleCount(n, num, den uint64) uint64 {
	if den == 0 {
		return n
	}
	q, r := n/den, n%den
	return q*num + r*num/den
}

// Aggregate merges N seeders' profiles into one consensus profile
// (the multi-seeder package the paper's §VI-A2 randomized-selection
// design stops short of):
//
//   - counters are weight-normalized before the union, so every seeder
//     gets an equal vote regardless of how much traffic it saw: each
//     count is scaled by maxRequests/ownRequests;
//   - functions whose checksum the seeders disagree on resolve by
//     majority weighted entry count (ties to the lower checksum); the
//     losing seeders' data for that function is discarded;
//   - call-graph edges (tier-1 call targets and the tier-2 CallPairs
//     graph) merge by weighted sum;
//   - type-observation sites take a per-site vote: each seeder's
//     dominant kind pair is its ballot, and only a strict majority of
//     the site's observers keeps the site (merged, weighted); ties and
//     split votes drop the site to generic;
//   - Vasm counters survive only when every contributing seeder agrees
//     on the optimized translation's shape.
//
// All inputs must carry the same Meta.Revision; the output preserves
// it, so the cross-release remap cascade applies to consensus packages
// exactly as it does to single-seeder ones. The output's SeederID is
// -1, marking it as consensus. The merge is deterministic in the input
// order (ties between equally heavy profiles resolve to the earlier
// input).
func Aggregate(profiles []*Profile) (*Profile, AggregateStats, error) {
	stats := AggregateStats{Seeders: len(profiles)}
	if len(profiles) == 0 {
		return nil, stats, errors.New("prof: aggregate of zero profiles")
	}
	rev := profiles[0].Meta.Revision
	var norm uint64 = 1
	for _, p := range profiles {
		if p.Meta.Revision != rev {
			return nil, stats, fmt.Errorf("%w: %d vs %d", ErrAggregateRevisions, rev, p.Meta.Revision)
		}
		if uint64(p.Meta.RequestCount) > norm {
			norm = uint64(p.Meta.RequestCount)
		}
	}
	// weight[i] scales profile i's counts to norm requests; a profile
	// with no request count keeps its counts as-is.
	weight := make([][2]uint64, len(profiles)) // {num, den}
	for i, p := range profiles {
		if p.Meta.RequestCount > 0 {
			weight[i] = [2]uint64{norm, uint64(p.Meta.RequestCount)}
		} else {
			weight[i] = [2]uint64{1, 1}
		}
	}
	scale := func(i int, n uint64) uint64 { return scaleCount(n, weight[i][0], weight[i][1]) }

	out := NewProfile()
	out.Meta = Meta{
		Region:   profiles[0].Meta.Region,
		Bucket:   profiles[0].Meta.Bucket,
		SeederID: -1,
		Revision: rev,
	}
	for _, p := range profiles {
		out.Meta.RequestCount += p.Meta.RequestCount
	}

	// heaviest orders profile indices by descending request weight
	// (ties to input order); Units and FuncOrder concatenate in this
	// order so the best-fed seeder's first-touch ordering leads.
	heaviest := make([]int, len(profiles))
	for i := range heaviest {
		heaviest[i] = i
	}
	sort.SliceStable(heaviest, func(a, b int) bool {
		return profiles[heaviest[a]].Meta.RequestCount > profiles[heaviest[b]].Meta.RequestCount
	})
	seenUnit := map[string]bool{}
	for _, i := range heaviest {
		for _, u := range profiles[i].Units {
			if !seenUnit[u] {
				seenUnit[u] = true
				out.Units = append(out.Units, u)
			}
		}
	}
	seenFn := map[string]bool{}
	for _, i := range heaviest {
		for _, name := range profiles[i].FuncOrder {
			if !seenFn[name] {
				seenFn[name] = true
				out.FuncOrder = append(out.FuncOrder, name)
			}
		}
	}

	// Function merge. Names are walked sorted so conflict resolution
	// and stats are independent of map iteration order.
	names := map[string]bool{}
	for _, p := range profiles {
		for name := range p.Funcs {
			names[name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	for _, name := range sorted {
		// Checksum vote: weighted entry count per checksum.
		type ballot struct {
			sum   uint64
			first int // earliest input holding this checksum
		}
		votes := map[uint64]*ballot{}
		for i, p := range profiles {
			fp, ok := p.Funcs[name]
			if !ok {
				continue
			}
			b := votes[fp.Checksum]
			if b == nil {
				b = &ballot{first: i}
				votes[fp.Checksum] = b
			}
			w := scale(i, fp.EntryCount)
			if w == 0 {
				w = 1 // a profiled function is never a zero-weight vote
			}
			b.sum += w
		}
		var winner uint64
		var best *ballot
		for sum, b := range votes {
			if best == nil || b.sum > best.sum || (b.sum == best.sum && sum < winner) {
				winner, best = sum, b
			}
		}
		if len(votes) > 1 {
			stats.ChecksumConflicts++
		}

		// Merge the winning-checksum contributors.
		var merged *FuncProfile
		var contributors []int
		for i, p := range profiles {
			fp, ok := p.Funcs[name]
			if !ok || fp.Checksum != winner {
				continue
			}
			if merged == nil {
				merged = &FuncProfile{
					Checksum:    winner,
					BlockCounts: make([]uint64, len(fp.BlockCounts)),
					EdgeCounts:  map[EdgeKey]uint64{},
					CallTargets: map[int32]map[string]uint64{},
					TypeObs:     map[int32]map[uint16]uint64{},
				}
			}
			if len(fp.BlockCounts) != len(merged.BlockCounts) {
				continue // same checksum, different shape: defensive skip
			}
			contributors = append(contributors, i)
			merged.EntryCount += scale(i, fp.EntryCount)
			for bi, n := range fp.BlockCounts {
				merged.BlockCounts[bi] += scale(i, n)
			}
			for k, n := range fp.EdgeCounts {
				merged.EdgeCounts[k] += scale(i, n)
			}
			for pc, targets := range fp.CallTargets {
				dt := merged.CallTargets[pc]
				if dt == nil {
					dt = map[string]uint64{}
					merged.CallTargets[pc] = dt
				}
				for callee, n := range targets {
					dt[callee] += scale(i, n)
				}
			}
		}
		if merged == nil {
			continue
		}
		stats.Funcs++

		// Vasm counters: unanimity on translation shape or nothing.
		vasmLen := -1
		vasmOK := true
		for _, i := range contributors {
			fp := profiles[i].Funcs[name]
			if vasmLen == -1 {
				vasmLen = len(fp.VasmCounts)
			} else if len(fp.VasmCounts) != vasmLen {
				vasmOK = false
			}
		}
		if vasmOK && vasmLen > 0 {
			merged.VasmCounts = make([]uint64, vasmLen)
			for _, i := range contributors {
				for vi, n := range profiles[i].Funcs[name].VasmCounts {
					merged.VasmCounts[vi] += scale(i, n)
				}
			}
		} else if !vasmOK {
			stats.VasmDropped++
		}

		// Type-site vote, per pc over the contributing seeders.
		pcs := map[int32]bool{}
		for _, i := range contributors {
			for pc := range profiles[i].Funcs[name].TypeObs {
				pcs[pc] = true
			}
		}
		pcList := make([]int32, 0, len(pcs))
		for pc := range pcs {
			pcList = append(pcList, pc)
		}
		sort.Slice(pcList, func(a, b int) bool { return pcList[a] < pcList[b] })
		for _, pc := range pcList {
			tally := map[uint16]int{}
			observers := 0
			for _, i := range contributors {
				obs := profiles[i].Funcs[name].TypeObs[pc]
				if len(obs) == 0 {
					continue
				}
				observers++
				tally[dominantKind(obs)]++
			}
			bestVotes := 0
			for _, v := range tally {
				if v > bestVotes {
					bestVotes = v
				}
			}
			if bestVotes*2 <= observers {
				// Tie or split vote: the site drops to generic rather
				// than letting one seeder's skew specialize everyone.
				stats.TypeSitesDropped++
				continue
			}
			stats.TypeSitesKept++
			dobs := map[uint16]uint64{}
			for _, i := range contributors {
				for k, n := range profiles[i].Funcs[name].TypeObs[pc] {
					dobs[k] += scale(i, n)
				}
			}
			merged.TypeObs[pc] = dobs
		}
		out.Funcs[name] = merged
	}

	// Property counters and the tier-2 call graph: weighted union.
	for i, p := range profiles {
		for k, n := range p.Props {
			out.Props[k] += scale(i, n)
		}
		for k, n := range p.CallPairs {
			out.CallPairs[k] += scale(i, n)
		}
	}
	return out, stats, nil
}

// dominantKind returns a site's dominant kind pair (ties to the lower
// key) — one seeder's ballot in the type-site vote.
func dominantKind(obs map[uint16]uint64) uint16 {
	var bestKey uint16
	var best uint64
	first := true
	for k, n := range obs {
		if n > best || (n == best && (first || k < bestKey)) {
			best, bestKey, first = n, k, false
		}
	}
	return bestKey
}
