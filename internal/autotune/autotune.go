// Package autotune searches the Jump-Start policy space for the knob
// settings that best meet a fleet SLO under a traffic scenario.
//
// The search is a successive-halving tournament over a knob grid: the
// full candidate set is evaluated at a small simulation budget, the
// weakest (1 - 1/eta) are dropped, and the survivors re-run at eta
// times the budget until one round runs at full fidelity. Evaluation
// is delegated to a caller-supplied Evaluator (internal/experiments
// wires one that replays the fleet simulator), candidates within a
// round run in parallel via internal/parallel, and every ordering
// decision is tie-broken by candidate index — so the recommendation
// table is deterministic at any worker count.
package autotune

import (
	"fmt"
	"math"
	"sort"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/parallel"
)

// Knobs is one point in the policy space: the deployment-cadence,
// compatibility, warm-pool and warmup-mode settings a fleet operator
// actually controls.
type Knobs struct {
	PushEvery    float64 // push cadence in virtual seconds (0 = manual pushes)
	CompatPolicy jumpstart.CompatPolicy
	PoolSize     int // warm-pool standbys (0 = no pool tier)
	WarmupMode   jumpstart.WarmupMode
}

// String renders the knobs compactly and deterministically — the key
// used in recommendation tables.
func (k Knobs) String() string {
	return fmt.Sprintf("push=%g compat=%s pool=%d warmup=%s",
		k.PushEvery, k.CompatPolicy, k.PoolSize, k.WarmupMode)
}

// Grid spans the candidate set: the cross product of every non-empty
// axis, with empty axes pinned to Base's value. Axis order (and thus
// candidate index order) is fixed: PushEvery outermost, WarmupMode
// innermost.
type Grid struct {
	Base         Knobs
	PushEvery    []float64
	CompatPolicy []jumpstart.CompatPolicy
	PoolSize     []int
	WarmupMode   []jumpstart.WarmupMode
}

// Candidates enumerates the grid in deterministic order.
func (g Grid) Candidates() []Knobs {
	push := g.PushEvery
	if len(push) == 0 {
		push = []float64{g.Base.PushEvery}
	}
	compat := g.CompatPolicy
	if len(compat) == 0 {
		compat = []jumpstart.CompatPolicy{g.Base.CompatPolicy}
	}
	pool := g.PoolSize
	if len(pool) == 0 {
		pool = []int{g.Base.PoolSize}
	}
	warm := g.WarmupMode
	if len(warm) == 0 {
		warm = []jumpstart.WarmupMode{g.Base.WarmupMode}
	}
	var out []Knobs
	for _, pe := range push {
		for _, cp := range compat {
			for _, ps := range pool {
				for _, wm := range warm {
					out = append(out, Knobs{
						PushEvery:    pe,
						CompatPolicy: cp,
						PoolSize:     ps,
						WarmupMode:   wm,
					})
				}
			}
		}
	}
	return out
}

// Measurement is what one evaluation observed: the SLO-facing
// statistics of a candidate's simulated run.
type Measurement struct {
	CapLossP99      float64 // p99 of per-tick demand-weighted capacity shortfall
	CapLossMean     float64 // mean shortfall (integrated capacity loss)
	TimeToSteadyP95 float64 // p95 of boot-to-steady durations, seconds
	Crashes         int
	Fallbacks       int
}

// Objective scores a measurement (lower is better): a weighted sum of
// the p99 capacity shortfall and the normalized time-to-steady tail.
type Objective struct {
	LossWeight   float64 // weight on CapLossP99 (<= 0 selects 1)
	SteadyWeight float64 // weight on TimeToSteadyP95 / SteadyNorm
	SteadyNorm   float64 // seconds that count as one loss unit (<= 0 selects 1)
}

// Score folds m into a single lower-is-better number.
func (o Objective) Score(m Measurement) float64 {
	lw := o.LossWeight
	if lw <= 0 {
		lw = 1
	}
	norm := o.SteadyNorm
	if norm <= 0 {
		norm = 1
	}
	return lw*m.CapLossP99 + o.SteadyWeight*m.TimeToSteadyP95/norm
}

// Evaluator runs one candidate at a budget in (0, 1] — the fraction of
// full simulation fidelity (shorter horizon, smaller fleet; the wiring
// decides) — and returns what it measured.
type Evaluator func(k Knobs, budget float64) (Measurement, error)

// Config parameterizes a Search.
type Config struct {
	Grid      Grid
	Objective Objective
	// Eta is the halving factor: each round keeps ceil(n/Eta) of its
	// candidates and multiplies the budget by Eta (<= 1 selects 3).
	Eta int
	// Workers bounds per-round evaluation concurrency (<= 0 selects
	// one per CPU).
	Workers int
}

// Result is one candidate's final standing.
type Result struct {
	Index     int   // position in Grid.Candidates order
	Knobs     Knobs //
	Meas      Measurement
	Score     float64
	Rounds    int     // rounds the candidate was evaluated in
	Budget    float64 // largest budget it was evaluated at
	Dominated bool    // a finalist Pareto-dominated by another finalist
}

// Search runs the successive-halving tournament and returns every
// candidate ranked best-first: finalists by score, then earlier
// casualties by how far they got. Finalists that lose on both
// CapLossP99 and TimeToSteadyP95 to some other finalist are marked
// Dominated — the caller's recommendation table can skip them.
func Search(cfg Config, eval Evaluator) ([]Result, error) {
	cands := cfg.Grid.Candidates()
	if len(cands) == 0 {
		return nil, fmt.Errorf("autotune: empty candidate grid")
	}
	eta := cfg.Eta
	if eta <= 1 {
		eta = 3
	}
	// rounds = floor(log_eta(n)) + 1: the last round runs at budget 1.
	rounds := 1
	for p := 1; p*eta <= len(cands); p *= eta {
		rounds++
	}
	results := make([]Result, len(cands))
	for i, k := range cands {
		results[i] = Result{Index: i, Knobs: k, Score: math.Inf(1)}
	}
	alive := make([]int, len(cands))
	for i := range alive {
		alive[i] = i
	}
	for round := 0; round < rounds && len(alive) > 0; round++ {
		budget := 1.0 / math.Pow(float64(eta), float64(rounds-1-round))
		meas, err := parallel.MapErr(cfg.Workers, len(alive), func(j int) (Measurement, error) {
			return eval(cands[alive[j]], budget)
		})
		if err != nil {
			return nil, fmt.Errorf("autotune: round %d: %w", round, err)
		}
		for j, idx := range alive {
			r := &results[idx]
			r.Meas = meas[j]
			r.Score = cfg.Objective.Score(meas[j])
			r.Rounds++
			r.Budget = budget
		}
		// Keep the best ceil(len/eta); index breaks score ties so the
		// cut is deterministic.
		sort.Slice(alive, func(a, b int) bool {
			ra, rb := &results[alive[a]], &results[alive[b]]
			if ra.Score != rb.Score {
				return ra.Score < rb.Score
			}
			return ra.Index < rb.Index
		})
		if round < rounds-1 {
			keep := (len(alive) + eta - 1) / eta
			if keep < 1 {
				keep = 1
			}
			alive = alive[:keep]
		}
	}
	// Pareto pass over the finalists: a candidate loses only if some
	// other finalist is at least as good on both axes and strictly
	// better on one.
	for a := 0; a < len(alive); a++ {
		ma := results[alive[a]].Meas
		for b := 0; b < len(alive); b++ {
			if a == b {
				continue
			}
			mb := results[alive[b]].Meas
			if mb.CapLossP99 <= ma.CapLossP99 && mb.TimeToSteadyP95 <= ma.TimeToSteadyP95 &&
				(mb.CapLossP99 < ma.CapLossP99 || mb.TimeToSteadyP95 < ma.TimeToSteadyP95) {
				results[alive[a]].Dominated = true
				break
			}
		}
	}
	// Rank: deeper survivors first, then score, then index.
	sort.Slice(results, func(a, b int) bool {
		if results[a].Rounds != results[b].Rounds {
			return results[a].Rounds > results[b].Rounds
		}
		if results[a].Score != results[b].Score {
			return results[a].Score < results[b].Score
		}
		return results[a].Index < results[b].Index
	})
	return results, nil
}
