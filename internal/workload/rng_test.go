package workload

import "testing"

func TestForkIsPureAndDistinct(t *testing.T) {
	if Fork(42, 7) != Fork(42, 7) {
		t.Fatal("Fork is not deterministic")
	}
	// No collisions across a grid of seeds × tasks: forked streams
	// must be independent per task (the parallel-engine contract).
	seen := map[uint64][2]uint64{}
	for seed := uint64(0); seed < 64; seed++ {
		for task := uint64(0); task < 64; task++ {
			v := Fork(seed, task)
			if prev, dup := seen[v]; dup {
				t.Fatalf("Fork collision: (%d,%d) and (%d,%d) -> %d",
					seed, task, prev[0], prev[1], v)
			}
			seen[v] = [2]uint64{seed, task}
		}
	}
}

func TestForkedStreamsDiverge(t *testing.T) {
	base := newRNG(1)
	a := newRNG(Fork(1, 0))
	b := newRNG(Fork(1, 1))
	same := 0
	for i := 0; i < 16; i++ {
		x, y, z := base.Uint64(), a.Uint64(), b.Uint64()
		if x == y || x == z || y == z {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams overlap the parent or each other (%d matches)", same)
	}
}

func TestPickWeighted(t *testing.T) {
	cases := []struct {
		name    string
		cum     []float64
		allowed map[int]bool // indices that may be returned
	}{
		{"empty", nil, map[int]bool{0: true}},
		{"single", []float64{3}, map[int]bool{0: true}},
		{"zero-weight-middle", []float64{1, 1, 2}, map[int]bool{0: true, 2: true}},
		{"all-zero", []float64{0, 0, 0}, map[int]bool{0: true, 1: true, 2: true}},
		{"normal", []float64{0.5, 1.5, 3}, map[int]bool{0: true, 1: true, 2: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRNG(7)
			hits := map[int]int{}
			for i := 0; i < 2000; i++ {
				idx := pickWeighted(r, c.cum)
				if !c.allowed[idx] {
					t.Fatalf("picked disallowed index %d", idx)
				}
				hits[idx]++
			}
			// Every allowed index must actually occur (the all-zero
			// vector used to collapse onto the last index).
			if len(c.cum) > 0 {
				for idx := range c.allowed {
					if hits[idx] == 0 {
						t.Fatalf("index %d never picked: %v", idx, hits)
					}
				}
			}
		})
	}
}

func TestPickWeightedEmptyConsumesNoDraw(t *testing.T) {
	a, b := newRNG(9), newRNG(9)
	pickWeighted(a, nil)
	if a.Uint64() != b.Uint64() {
		t.Fatal("empty pick consumed a draw")
	}
}

func TestPickWeightedDeterministic(t *testing.T) {
	cum := []float64{1, 4, 9, 9.5}
	a, b := newRNG(123), newRNG(123)
	for i := 0; i < 500; i++ {
		if pickWeighted(a, cum) != pickWeighted(b, cum) {
			t.Fatalf("divergence at draw %d", i)
		}
	}
}
