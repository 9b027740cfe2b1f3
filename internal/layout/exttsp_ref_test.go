package layout

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// fuzzGraph decodes a graph of 1–40 blocks from data: a block count
// byte, a (size, weight) byte pair per block, then (src, dst, weight)
// byte triples, one per edge. Missing bytes read as zero. Sizes and
// weights include zero, src == dst makes a self-loop, and an edge may
// repeat; edge weights stay below 16 so equal merge gains are common
// and tie-breaking is exercised.
func fuzzGraph(data []byte) *Graph {
	p := 0
	next := func() int {
		if p >= len(data) {
			return 0
		}
		p++
		return int(data[p-1])
	}
	n := 1 + next()%40
	g := &Graph{Blocks: make([]BlockInfo, n)}
	for i := range g.Blocks {
		g.Blocks[i] = BlockInfo{Size: next(), Weight: uint64(next())}
	}
	for p+3 <= len(data) {
		g.Edges = append(g.Edges, Edge{Src: next() % n, Dst: next() % n, Weight: uint64(next() % 16)})
	}
	return g
}

// TestExtTSPMatchesReference requires ExtTSP to return exactly
// refExtTSP's order on random graphs of every size up to 40 blocks.
func TestExtTSPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		data := make([]byte, rng.Intn(240))
		rng.Read(data)
		g := fuzzGraph(data)
		if got, want := ExtTSP(g), refExtTSP(g); !slices.Equal(got, want) {
			t.Fatalf("graph %d (%d blocks, %d edges): ExtTSP %v, reference %v",
				i, len(g.Blocks), len(g.Edges), got, want)
		}
	}
}

// FuzzExtTSP is the differential fuzz target behind
// TestExtTSPMatchesReference. The committed corpus
// (testdata/fuzz/FuzzExtTSP) holds a diamond, self-loops with zero-
// weight and duplicate edges, and a 40-block chain.
func FuzzExtTSP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400]
		}
		g := fuzzGraph(data)
		if got, want := ExtTSP(g), refExtTSP(g); !slices.Equal(got, want) {
			t.Fatalf("ExtTSP %v, reference %v on %+v", got, want, g)
		}
	})
}

// refChain is a chain of refExtTSP's greedy merge.
type refChain struct {
	blocks []int
	score  float64
}

// refExtTSP is the straightforward Ext-TSP construction ExtTSP must
// reproduce order for order: it materializes both orientations of
// every candidate pair as fresh slices and re-sorts the live chains on
// every merge step. It is the reference TestExtTSPMatchesReference and
// FuzzExtTSP compare against.
func refExtTSP(g *Graph) []int {
	n := len(g.Blocks)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []int{0}
	}

	chains := make([]*refChain, n)
	chainOf := make([]*refChain, n)
	for i := 0; i < n; i++ {
		c := &refChain{blocks: []int{i}}
		chains[i] = c
		chainOf[i] = c
	}

	// To score a candidate merged chain in isolation we lay out only
	// its blocks contiguously and count only edges internal to it.
	inChain := make([]int, n) // block -> chain serial for filtering
	serial := 0
	markChain := func(blocks []int) {
		serial++
		for _, b := range blocks {
			inChain[b] = serial
		}
	}
	chainScore := func(blocks []int) float64 {
		markChain(blocks)
		addr := make(map[int]int, len(blocks))
		pos := 0
		for _, b := range blocks {
			addr[b] = pos
			pos += g.Blocks[b].Size
		}
		total := 0.0
		for _, e := range g.Edges {
			if e.Src == e.Dst || e.Weight == 0 {
				continue
			}
			if inChain[e.Src] != serial || inChain[e.Dst] != serial {
				continue
			}
			srcEnd := addr[e.Src] + g.Blocks[e.Src].Size
			dst := addr[e.Dst]
			w := float64(e.Weight)
			switch {
			case srcEnd == dst:
				total += fallthroughFactor * w
			case srcEnd < dst && dst-srcEnd < forwardDistance:
				total += forwardFactor * w * (1 - float64(dst-srcEnd)/forwardDistance)
			case srcEnd > dst && srcEnd-dst < backwardDistance:
				total += backwardFactor * w * (1 - float64(srcEnd-dst)/backwardDistance)
			}
		}
		return total
	}

	for _, c := range chains {
		c.score = chainScore(c.blocks)
	}

	live := make(map[*refChain]bool, n)
	for _, c := range chains {
		live[c] = true
	}
	entryChain := chainOf[0]

	for len(live) > 1 {
		var bestA, bestB *refChain
		bestGain := 0.0
		var bestMerged []int
		liveList := make([]*refChain, 0, len(live))
		for c := range live {
			liveList = append(liveList, c)
		}
		// Deterministic iteration: order by first block id.
		sort.Slice(liveList, func(i, j int) bool {
			return liveList[i].blocks[0] < liveList[j].blocks[0]
		})
		for i := 0; i < len(liveList); i++ {
			for j := i + 1; j < len(liveList); j++ {
				a, b := liveList[i], liveList[j]
				// Candidate orientations. The entry chain only accepts
				// merges that keep the entry first.
				var candidates [][]int
				ab := append(append([]int{}, a.blocks...), b.blocks...)
				ba := append(append([]int{}, b.blocks...), a.blocks...)
				switch {
				case a == entryChain:
					candidates = [][]int{ab}
				case b == entryChain:
					candidates = [][]int{ba}
				default:
					candidates = [][]int{ab, ba}
				}
				base := a.score + b.score
				for _, cand := range candidates {
					gain := chainScore(cand) - base
					if gain > bestGain {
						bestGain = gain
						bestA, bestB = a, b
						bestMerged = cand
					}
				}
			}
		}
		if bestA == nil {
			break // no merge improves the score
		}
		merged := &refChain{blocks: bestMerged, score: bestA.score + bestB.score + bestGain}
		delete(live, bestA)
		delete(live, bestB)
		live[merged] = true
		for _, b := range bestMerged {
			chainOf[b] = merged
		}
		if bestA == entryChain || bestB == entryChain {
			entryChain = merged
		}
	}

	// Concatenate remaining chains: entry chain first, then by
	// decreasing total weight density, ties by first block id.
	rest := make([]*refChain, 0, len(live))
	for c := range live {
		if c != entryChain {
			rest = append(rest, c)
		}
	}
	density := func(c *refChain) float64 {
		var w uint64
		size := 0
		for _, b := range c.blocks {
			w += g.Blocks[b].Weight
			size += g.Blocks[b].Size
		}
		if size == 0 {
			return 0
		}
		return float64(w) / float64(size)
	}
	sort.Slice(rest, func(i, j int) bool {
		di, dj := density(rest[i]), density(rest[j])
		if di != dj {
			return di > dj
		}
		return rest[i].blocks[0] < rest[j].blocks[0]
	})

	order := append([]int{}, entryChain.blocks...)
	for _, c := range rest {
		order = append(order, c.blocks...)
	}

	// Never return a layout worse than the source order.
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	if Score(g, order) < Score(g, identity) {
		return identity
	}
	return order
}
