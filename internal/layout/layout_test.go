package layout

import (
	"testing"
	"testing/quick"
)

// diamond builds entry->A/B->exit with a hot and a cold arm.
func diamond() *Graph {
	return &Graph{
		Blocks: []BlockInfo{
			{Size: 32, Weight: 100}, // 0 entry
			{Size: 64, Weight: 95},  // 1 hot arm
			{Size: 64, Weight: 5},   // 2 cold arm
			{Size: 32, Weight: 100}, // 3 exit
		},
		Edges: []Edge{
			{Src: 0, Dst: 1, Weight: 95},
			{Src: 0, Dst: 2, Weight: 5},
			{Src: 1, Dst: 3, Weight: 95},
			{Src: 2, Dst: 3, Weight: 5},
		},
	}
}

func isPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, b := range order {
		if b < 0 || b >= n || seen[b] {
			return false
		}
		seen[b] = true
	}
	return true
}

func TestExtTSPDiamondPrefersHotPath(t *testing.T) {
	g := diamond()
	order := ExtTSP(g)
	if !isPermutation(order, 4) {
		t.Fatalf("order = %v", order)
	}
	if order[0] != 0 {
		t.Fatalf("entry not first: %v", order)
	}
	// Hot arm must immediately follow entry.
	if order[1] != 1 {
		t.Fatalf("hot arm not adjacent to entry: %v", order)
	}
	// Score must beat the worst layout (cold arm between entry and hot).
	bad := []int{0, 2, 1, 3}
	if Score(g, order) < Score(g, bad) {
		t.Fatalf("ExtTSP score %.1f < bad layout %.1f", Score(g, order), Score(g, bad))
	}
}

func TestExtTSPImprovesOverSourceOrder(t *testing.T) {
	// A loop with an unlikely side exit placed (in source order)
	// between the loop head and body.
	g := &Graph{
		Blocks: []BlockInfo{
			{Size: 16, Weight: 10},   // 0 entry
			{Size: 32, Weight: 1000}, // 1 loop head
			{Size: 48, Weight: 3},    // 2 error path
			{Size: 64, Weight: 997},  // 3 loop body
			{Size: 16, Weight: 10},   // 4 exit
		},
		Edges: []Edge{
			{Src: 0, Dst: 1, Weight: 10},
			{Src: 1, Dst: 2, Weight: 3},
			{Src: 1, Dst: 3, Weight: 997},
			{Src: 3, Dst: 1, Weight: 990},
			{Src: 3, Dst: 4, Weight: 7},
			{Src: 2, Dst: 4, Weight: 3},
		},
	}
	src := []int{0, 1, 2, 3, 4}
	order := ExtTSP(g)
	if !isPermutation(order, 5) || order[0] != 0 {
		t.Fatalf("order = %v", order)
	}
	if Score(g, order) <= Score(g, src) {
		t.Fatalf("ExtTSP %.1f must beat source order %.1f (%v)",
			Score(g, order), Score(g, src), order)
	}
}

func TestExtTSPTrivialGraphs(t *testing.T) {
	if got := ExtTSP(&Graph{}); got != nil {
		t.Fatalf("empty graph = %v", got)
	}
	g := &Graph{Blocks: []BlockInfo{{Size: 10, Weight: 1}}}
	if got := ExtTSP(g); len(got) != 1 || got[0] != 0 {
		t.Fatalf("singleton = %v", got)
	}
}

func TestExtTSPDeterministic(t *testing.T) {
	g := diamond()
	a := ExtTSP(g)
	b := ExtTSP(g)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

// Property: ExtTSP always returns a permutation with entry first, and
// never scores below the identity order.
func TestPropExtTSPPermutationAndNoRegression(t *testing.T) {
	f := func(sizes []uint8, weights []uint16, edgeBits []uint16) bool {
		n := len(sizes)
		if n == 0 || n > 12 || len(weights) == 0 {
			return true
		}
		g := &Graph{Blocks: make([]BlockInfo, n)}
		for i := range g.Blocks {
			g.Blocks[i] = BlockInfo{Size: int(sizes[i]%60) + 4, Weight: uint64(weights[i%len(weights)])}
		}
		// Derive some edges from edgeBits.
		for i, eb := range edgeBits {
			src := int(eb) % n
			dst := int(eb>>4) % n
			if src == dst {
				continue
			}
			g.Edges = append(g.Edges, Edge{Src: src, Dst: dst, Weight: uint64(eb%97) + 1})
			if i > 24 {
				break
			}
		}
		order := ExtTSP(g)
		if !isPermutation(order, n) || order[0] != 0 {
			return false
		}
		identity := make([]int, n)
		for i := range identity {
			identity[i] = i
		}
		return Score(g, order) >= Score(g, identity)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExtTSPAllocRegression bounds ExtTSP's allocations on a 40-block
// chain graph (forward fall-throughs plus a loop back-edge) below 2n.
// Its buffers are per call, so the count must not grow with the
// number of merge steps or candidate pairs; the version that copied
// every candidate made tens of thousands here.
func TestExtTSPAllocRegression(t *testing.T) {
	const n = 40
	g := &Graph{Blocks: make([]BlockInfo, n)}
	for i := range g.Blocks {
		g.Blocks[i] = BlockInfo{Size: 16 + 8*(i%5), Weight: uint64(100 + i)}
		if i > 0 {
			g.Edges = append(g.Edges, Edge{Src: i - 1, Dst: i, Weight: uint64(90 + i)})
		}
	}
	g.Edges = append(g.Edges, Edge{Src: n - 1, Dst: 1, Weight: 50})
	allocs := testing.AllocsPerRun(20, func() { ExtTSP(g) })
	t.Logf("ExtTSP, %d-block chain: %.0f allocations", n, allocs)
	if allocs >= 2*n {
		t.Fatalf("ExtTSP allocations regressed: %.0f >= %d", allocs, 2*n)
	}
}

func TestSplitHotCold(t *testing.T) {
	g := diamond()
	order := []int{0, 1, 2, 3}
	hot, cold := SplitHotCold(g, order, 0.1)
	// Block 2 (weight 5, max 100, threshold 10) is cold.
	if len(cold) != 1 || cold[0] != 2 {
		t.Fatalf("cold = %v", cold)
	}
	if len(hot) != 3 || hot[0] != 0 || hot[1] != 1 || hot[2] != 3 {
		t.Fatalf("hot = %v", hot)
	}
}

func TestSplitHotColdEntryAlwaysHot(t *testing.T) {
	g := &Graph{Blocks: []BlockInfo{{Size: 8, Weight: 0}, {Size: 8, Weight: 100}}}
	hot, cold := SplitHotCold(g, []int{0, 1}, 0.5)
	if len(hot) == 0 || hot[0] != 0 {
		t.Fatalf("entry must stay hot: hot=%v cold=%v", hot, cold)
	}
}

func TestSplitHotColdZeroWeightIsCold(t *testing.T) {
	g := &Graph{Blocks: []BlockInfo{
		{Size: 8, Weight: 10}, {Size: 8, Weight: 0}, {Size: 8, Weight: 10},
	}}
	hot, cold := SplitHotCold(g, []int{0, 1, 2}, 0)
	if len(cold) != 1 || cold[0] != 1 {
		t.Fatalf("hot=%v cold=%v", hot, cold)
	}
}

func chainGraph() *CallGraph {
	// main -> a (hot), a -> b (hot), main -> c (cold), d isolated.
	return &CallGraph{
		Nodes: []FuncNode{
			{Name: "main", Size: 100, Weight: 10},
			{Name: "a", Size: 200, Weight: 1000},
			{Name: "b", Size: 150, Weight: 900},
			{Name: "c", Size: 300, Weight: 5},
			{Name: "d", Size: 50, Weight: 0},
		},
		Arcs: []Arc{
			{Caller: 0, Callee: 1, Weight: 1000},
			{Caller: 1, Callee: 2, Weight: 900},
			{Caller: 0, Callee: 3, Weight: 5},
		},
	}
}

func posIn(order []int, f int) int {
	for i, x := range order {
		if x == f {
			return i
		}
	}
	return -1
}

func TestC3ClustersHotChains(t *testing.T) {
	cg := chainGraph()
	order := C3(cg, 0)
	if !isPermutation(order, 5) {
		t.Fatalf("order = %v", order)
	}
	// Hot chain main->a->b must be contiguous and in call order.
	pm, pa, pb := posIn(order, 0), posIn(order, 1), posIn(order, 2)
	if pa != pm+1 || pb != pa+1 {
		t.Fatalf("hot chain not contiguous: %v", order)
	}
}

func TestC3RespectsClusterSizeLimit(t *testing.T) {
	cg := chainGraph()
	// Limit below main+a: nothing merges with main.
	order := C3(cg, 250)
	pm, pa := posIn(order, 0), posIn(order, 1)
	// a (weight 1000, size 200 => density 5) still sorts before main.
	if pa > pm && pa == pm+1 {
		t.Fatalf("size limit ignored: %v", order)
	}
	// All functions still present.
	if !isPermutation(order, 5) {
		t.Fatalf("order = %v", order)
	}
}

func TestC3CalleeNotHeadSkipped(t *testing.T) {
	// a->b (100), c->b (90): after a|b merge, c cannot capture b.
	cg := &CallGraph{
		Nodes: []FuncNode{
			{Name: "a", Size: 10, Weight: 100},
			{Name: "b", Size: 10, Weight: 200},
			{Name: "c", Size: 10, Weight: 90},
		},
		Arcs: []Arc{
			{Caller: 0, Callee: 1, Weight: 100},
			{Caller: 2, Callee: 1, Weight: 90},
		},
	}
	order := C3(cg, 0)
	pa, pb := posIn(order, 0), posIn(order, 1)
	if pb != pa+1 {
		t.Fatalf("a-b adjacency lost: %v", order)
	}
}

func TestC3ParallelArcsSummed(t *testing.T) {
	// Two a->b arcs of 60 outweigh one a->c arc of 100.
	cg := &CallGraph{
		Nodes: []FuncNode{
			{Name: "a", Size: 10, Weight: 1},
			{Name: "b", Size: 10, Weight: 1},
			{Name: "c", Size: 10, Weight: 1},
		},
		Arcs: []Arc{
			{Caller: 0, Callee: 1, Weight: 60},
			{Caller: 0, Callee: 1, Weight: 60},
			{Caller: 0, Callee: 2, Weight: 100},
		},
	}
	order := C3(cg, 0)
	pa, pb := posIn(order, 0), posIn(order, 1)
	if pb != pa+1 {
		t.Fatalf("summed arcs not preferred: %v", order)
	}
}

func TestPettisHansenBasic(t *testing.T) {
	cg := chainGraph()
	order := PettisHansen(cg)
	if !isPermutation(order, 5) {
		t.Fatalf("order = %v", order)
	}
	// a and b joined by the heaviest edge must be adjacent.
	pa, pb := posIn(order, 1), posIn(order, 2)
	if pb-pa != 1 && pa-pb != 1 {
		t.Fatalf("heaviest edge endpoints not adjacent: %v", order)
	}
}

func TestC3BeatsUnsortedProximity(t *testing.T) {
	cg := chainGraph()
	identity := []int{0, 1, 2, 3, 4}
	worst := []int{3, 0, 4, 2, 1} // scatter the hot chain
	c3 := C3(cg, 0)
	if TSPProximity(cg, c3) < TSPProximity(cg, worst) {
		t.Fatalf("C3 proximity %.3f < scattered %.3f",
			TSPProximity(cg, c3), TSPProximity(cg, worst))
	}
	_ = identity
}

// Property: C3 and PettisHansen always return permutations.
func TestPropFunctionSortsPermutation(t *testing.T) {
	f := func(sizes []uint8, arcBits []uint16) bool {
		n := len(sizes)
		if n == 0 || n > 15 {
			return true
		}
		cg := &CallGraph{Nodes: make([]FuncNode, n)}
		for i := range cg.Nodes {
			cg.Nodes[i] = FuncNode{Size: int(sizes[i]%100) + 1, Weight: uint64(sizes[i])}
		}
		for _, ab := range arcBits {
			caller := int(ab) % n
			callee := int(ab>>5) % n
			cg.Arcs = append(cg.Arcs, Arc{Caller: caller, Callee: callee, Weight: uint64(ab%31) + 1})
		}
		return isPermutation(C3(cg, 0), n) && isPermutation(PettisHansen(cg), n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyCallGraphs(t *testing.T) {
	if C3(&CallGraph{}, 0) != nil {
		t.Error("empty C3")
	}
	if PettisHansen(&CallGraph{}) != nil {
		t.Error("empty PH")
	}
}
