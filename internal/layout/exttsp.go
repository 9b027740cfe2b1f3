// Package layout implements the profile-guided code-layout algorithms
// the paper's Section V builds on: Ext-TSP basic-block reordering with
// hot/cold splitting (Newell & Pupyrev, used by HHVM and BOLT) and the
// C3 function-sorting algorithm (Ottoni & Maher, CGO'17), plus a
// Pettis-Hansen baseline for comparison benches.
//
// All algorithms are pure: they consume weighted graphs and produce
// orderings. The JIT maps translations onto these graphs and applies
// the resulting orders when placing code in the code cache.
package layout

import (
	"cmp"
	"slices"
)

// Graph is a weighted CFG prepared for block layout. Block 0 is the
// entry and must remain first in any produced order.
type Graph struct {
	Blocks []BlockInfo
	Edges  []Edge
}

// BlockInfo describes one layout unit (a Vasm basic block).
type BlockInfo struct {
	Size   int    // code bytes
	Weight uint64 // execution count
}

// Edge is a weighted branch between blocks.
type Edge struct {
	Src, Dst int
	Weight   uint64
}

// Ext-TSP scoring constants from Newell & Pupyrev: a fall-through
// branch scores its full weight; short forward/backward jumps score a
// distance-discounted fraction.
const (
	fallthroughFactor = 1.0
	forwardFactor     = 0.1
	backwardFactor    = 0.1
	forwardDistance   = 1024
	backwardDistance  = 640
)

// Score computes the Ext-TSP objective for the given block order: the
// higher, the better the expected I-cache/branch behaviour.
func Score(g *Graph, order []int) float64 {
	addr := make([]int, len(g.Blocks))
	pos := 0
	for _, b := range order {
		addr[b] = pos
		pos += g.Blocks[b].Size
	}
	total := 0.0
	for _, e := range g.Edges {
		if e.Src == e.Dst || e.Weight == 0 {
			continue
		}
		total += edgeScore(addr[e.Src]+g.Blocks[e.Src].Size, addr[e.Dst], e.Weight)
	}
	return total
}

// edgeScore is the Ext-TSP score of a branch of the given weight from
// a block ending at srcEnd to one starting at dst: its full weight on
// a fall-through, a distance-discounted fraction on a short forward or
// backward jump, 0 otherwise.
func edgeScore(srcEnd, dst int, weight uint64) float64 {
	w := float64(weight)
	switch {
	case srcEnd == dst:
		return fallthroughFactor * w
	case srcEnd < dst && dst-srcEnd < forwardDistance:
		return forwardFactor * w * (1 - float64(dst-srcEnd)/forwardDistance)
	case srcEnd > dst && srcEnd-dst < backwardDistance:
		return backwardFactor * w * (1 - float64(srcEnd-dst)/backwardDistance)
	}
	return 0
}

// ExtTSP orders the graph's blocks to (approximately) maximize Score.
// It uses the greedy chain-merging construction from the Ext-TSP
// paper: every block starts as a singleton chain; at each step the
// merge (of any pair of chains, in either orientation) with the
// highest score gain is applied. The entry block is pinned to the
// front of its chain and the final order.
//
// Apart from the returned order it allocates only a fixed set of
// per-call buffers: a chain is a list threaded through the blocks, so
// neither scoring a candidate merge nor applying one copies blocks.
func ExtTSP(g *Graph) []int {
	n := len(g.Blocks)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []int{0}
	}

	// A chain is named by its first block, its head. next threads its
	// blocks (-1 ends the chain); tail and score are indexed by head.
	// score is the chain's Ext-TSP score laid out alone, the base every
	// merge gain is measured against (0 for a singleton, which has no
	// internal edge). live holds the heads of the unmerged chains in
	// ascending order, so the entry chain is always live[0].
	next := make([]int, n)
	tail := make([]int, n)
	live := make([]int, n)
	score := make([]float64, n)
	for b := range next {
		next[b], tail[b], live[b] = -1, b, b
	}

	// pairScore scores chain x followed by chain y laid out alone,
	// counting only the edges with both ends in the pair.
	inPair := make([]int, n) // block -> serial of the last pair holding it
	addr := make([]int, n)
	serial := 0
	pairScore := func(x, y int) float64 {
		serial++
		pos := 0
		for _, head := range [2]int{x, y} {
			for b := head; b >= 0; b = next[b] {
				inPair[b] = serial
				addr[b] = pos
				pos += g.Blocks[b].Size
			}
		}
		total := 0.0
		for _, e := range g.Edges {
			if e.Src == e.Dst || e.Weight == 0 {
				continue
			}
			if inPair[e.Src] != serial || inPair[e.Dst] != serial {
				continue
			}
			total += edgeScore(addr[e.Src]+g.Blocks[e.Src].Size, addr[e.Dst], e.Weight)
		}
		return total
	}

	for len(live) > 1 {
		// The best merge so far joins live[bestI] and live[bestJ], in
		// that order unless swapped. Pairs are tried in live order, ab
		// before ba, and only a strictly larger gain replaces the best,
		// so among equal gains the first tried wins.
		bestI, bestJ, swapped := -1, -1, false
		bestGain := 0.0
		for i, a := range live {
			for j := i + 1; j < len(live); j++ {
				b := live[j]
				base := score[a] + score[b]
				if gain := pairScore(a, b) - base; gain > bestGain {
					bestI, bestJ, swapped, bestGain = i, j, false, gain
				}
				// The entry chain (i == 0) only accepts merges that keep
				// the entry first.
				if i == 0 {
					continue
				}
				if gain := pairScore(b, a) - base; gain > bestGain {
					bestI, bestJ, swapped, bestGain = i, j, true, gain
				}
			}
		}
		if bestI < 0 {
			break // no merge improves the score
		}
		// The merged chain keeps its first chain's head, and with it that
		// chain's place in live; the second chain's entry goes.
		a, b := live[bestI], live[bestJ]
		merged := score[a] + score[b] + bestGain
		drop := bestJ
		if swapped {
			a, b, drop = b, a, bestI
		}
		next[tail[a]] = b
		tail[a] = tail[b]
		score[a] = merged
		live = append(live[:drop], live[drop+1:]...)
	}

	// Concatenate the remaining chains: the entry chain first, then by
	// decreasing total weight density, ties by head block.
	density := func(head int) float64 {
		var w uint64
		size := 0
		for b := head; b >= 0; b = next[b] {
			w += g.Blocks[b].Weight
			size += g.Blocks[b].Size
		}
		if size == 0 {
			return 0
		}
		return float64(w) / float64(size)
	}
	slices.SortFunc(live[1:], func(x, y int) int {
		if c := cmp.Compare(density(y), density(x)); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	order := make([]int, 0, n)
	for _, head := range live {
		for b := head; b >= 0; b = next[b] {
			order = append(order, b)
		}
	}

	// Safety net: the greedy merge maximizes within-chain score, but
	// the final chain concatenation can occasionally land below the
	// source order on adversarial graphs (accidental fallthroughs in
	// the original order that cross chain boundaries here). Never
	// return a layout worse than the one the compiler already had.
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	if Score(g, order) < Score(g, identity) {
		return identity
	}
	return order
}

// SplitHotCold partitions an ordered block list into hot and cold
// sections. A block is cold when its weight is zero or below
// coldFraction of the maximum block weight. The relative order within
// each section is preserved, and the entry block is always hot.
func SplitHotCold(g *Graph, order []int, coldFraction float64) (hot, cold []int) {
	var maxW uint64
	for _, b := range g.Blocks {
		if b.Weight > maxW {
			maxW = b.Weight
		}
	}
	threshold := uint64(coldFraction * float64(maxW))
	for _, b := range order {
		if b == 0 || (g.Blocks[b].Weight > threshold && g.Blocks[b].Weight > 0) {
			hot = append(hot, b)
		} else {
			cold = append(cold, b)
		}
	}
	return hot, cold
}
