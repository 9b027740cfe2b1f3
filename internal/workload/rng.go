package workload

import "jumpstart/internal/netsim"

// golden is splitmix64's state increment (2^64 / φ).
const golden = 0x9e3779b97f4a7c15

// newRNG returns the splitmix64 stream seeded with seed: tiny, fast
// and deterministic across platforms. All workload generation and
// traffic draws flow through one so every experiment is reproducible
// from a seed.
func newRNG(seed uint64) *netsim.Stream { return netsim.NewStream(seed + golden) }

// Fork derives an independent splitmix64 seed for one task of a
// parallel fan-out. Seeding newRNG with Fork(seed, i) gives task i its
// own stream: the (seed, task) pair is mixed through the full
// splitmix64 output permutation, so streams for different task indices
// (or different base seeds) are statistically independent, and the
// derivation is pure — the same pair always yields the same seed, at
// any worker count and in any execution order. This is what lets
// internal/parallel fan work out without sharing a mutable rng.
func Fork(seed, task uint64) uint64 {
	return netsim.NewStream(seed + task*golden).Uint64()
}

// rangeInt returns a uniform int in [lo, hi].
func rangeInt(r *netsim.Stream, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + r.Intn(hi-lo+1)
}

// pick chooses an index according to the given cumulative weights
// (cum[len-1] is the total). An empty slice returns 0 without
// consuming a draw; a non-positive total (all-zero weights) falls back
// to a uniform pick — both previously misbehaved (panic / always the
// last index).
func pickWeighted(r *netsim.Stream, cum []float64) int {
	if len(cum) == 0 {
		return 0
	}
	total := cum[len(cum)-1]
	f := r.Float()
	if total <= 0 {
		return int(f * float64(len(cum)))
	}
	x := f * total
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
