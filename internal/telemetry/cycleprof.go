package telemetry

import (
	"fmt"
	"io"
	"strconv"
)

// CycleBucket classifies where a simulated server spends its charged
// cycles — the attribution axes of the virtual flame profile. Every
// cycle the server charges lands in exactly one bucket, so the profile
// conserves cycles (asserted by internal/server's conservation test).
type CycleBucket uint8

// Cycle buckets.
const (
	// CycleInit is the fixed process-start work.
	CycleInit CycleBucket = iota
	// CycleWarmup is request execution during the init-phase warmup
	// (sequential for no-Jump-Start/seeder, parallel for consumers).
	CycleWarmup
	// CycleUnitLoad is unit first-touch metadata loading.
	CycleUnitLoad
	// CycleTier1Compile is profiling-translation compilation.
	CycleTier1Compile
	// CycleLiveCompile is live (tail) translation compilation.
	CycleLiveCompile
	// CycleOptimize is tier-2 optimized compilation (background A→B,
	// or consumer-startup precompilation).
	CycleOptimize
	// CycleReloc is optimized-code relocation (B→C).
	CycleReloc
	// CycleInterp is interpreter dispatch+execute.
	CycleInterp
	// CycleJITExec is translated-code execution (base cost).
	CycleJITExec
	// CycleIFetch is instruction-fetch penalties (I-cache/I-TLB).
	CycleIFetch
	// CycleBranch is branch-misprediction penalties.
	CycleBranch
	// CycleData is data-access penalties (D-cache/D-TLB).
	CycleData
	// CycleGuard is specialization/devirtualization guard failures.
	CycleGuard
	// CyclePageIn is lazy-warmup translation page-in: the on-demand
	// fetch plus install of a packaged translation at first call.
	CyclePageIn

	// NumCycleBuckets is the bucket count.
	NumCycleBuckets
)

var cycleBucketNames = [NumCycleBuckets]string{
	CycleInit:         "init",
	CycleWarmup:       "warmup-requests",
	CycleUnitLoad:     "unit-first-touch",
	CycleTier1Compile: "tier1-compile",
	CycleLiveCompile:  "live-compile",
	CycleOptimize:     "optimize",
	CycleReloc:        "relocation",
	CycleInterp:       "interp-dispatch",
	CycleJITExec:      "jit-exec",
	CycleIFetch:       "ifetch-penalty",
	CycleBranch:       "branch-penalty",
	CycleData:         "data-penalty",
	CycleGuard:        "guard-fail",
	CyclePageIn:       "lazy-pagein",
}

// String names the bucket.
func (b CycleBucket) String() string {
	if b < NumCycleBuckets {
		return cycleBucketNames[b]
	}
	return fmt.Sprintf("bucket(%d)", uint8(b))
}

// CycleProfile accumulates charged cycles by (phase, bucket).
// Single-writer: only the simulation goroutine may call SetPhase/Add;
// export after the run. Phases appear in first-seen order, which for a
// server is lifecycle order.
type CycleProfile struct {
	phases []string
	index  map[string]int
	cur    int
	counts [][NumCycleBuckets]float64
}

// NewCycleProfile returns an empty profile positioned at phase
// "init".
func NewCycleProfile() *CycleProfile {
	p := &CycleProfile{index: make(map[string]int)}
	p.SetPhase("init")
	return p
}

// SetPhase directs subsequent Add calls to the named phase row,
// creating it on first use.
func (p *CycleProfile) SetPhase(name string) {
	if p == nil {
		return
	}
	i, ok := p.index[name]
	if !ok {
		i = len(p.phases)
		p.index[name] = i
		p.phases = append(p.phases, name)
		p.counts = append(p.counts, [NumCycleBuckets]float64{})
	}
	p.cur = i
}

// Add charges cycles to bucket b in the current phase.
func (p *CycleProfile) Add(b CycleBucket, cycles float64) {
	if p == nil || cycles == 0 {
		return
	}
	p.counts[p.cur][b] += cycles
}

// AddUint charges an integral cycle count to bucket b.
func (p *CycleProfile) AddUint(b CycleBucket, cycles uint64) {
	if p == nil || cycles == 0 {
		return
	}
	p.counts[p.cur][b] += float64(cycles)
}

// Total returns the sum over all phases and buckets.
func (p *CycleProfile) Total() float64 {
	if p == nil {
		return 0
	}
	total := 0.0
	for i := range p.counts {
		for b := CycleBucket(0); b < NumCycleBuckets; b++ {
			total += p.counts[i][b]
		}
	}
	return total
}

// PhaseTotal returns the cycle sum charged under the named phase.
func (p *CycleProfile) PhaseTotal(phase string) float64 {
	if p == nil {
		return 0
	}
	i, ok := p.index[phase]
	if !ok {
		return 0
	}
	total := 0.0
	for b := CycleBucket(0); b < NumCycleBuckets; b++ {
		total += p.counts[i][b]
	}
	return total
}

// Bucket returns the cycles charged to (phase, bucket).
func (p *CycleProfile) Bucket(phase string, b CycleBucket) float64 {
	if p == nil {
		return 0
	}
	i, ok := p.index[phase]
	if !ok {
		return 0
	}
	return p.counts[i][b]
}

// Phases returns the phase names in first-seen order.
func (p *CycleProfile) Phases() []string {
	if p == nil {
		return nil
	}
	return append([]string{}, p.phases...)
}

// WriteFolded emits the profile as folded stacks —
// "root;phase;bucket count" lines, one per non-empty (phase, bucket) —
// the input format of standard flamegraph tools (flamegraph.pl,
// inferno, speedscope). Counts are rounded to whole cycles.
func (p *CycleProfile) WriteFolded(w io.Writer, root string) error {
	if p == nil {
		return nil
	}
	var b []byte
	for i, phase := range p.phases {
		for bk := CycleBucket(0); bk < NumCycleBuckets; bk++ {
			c := p.counts[i][bk]
			if c == 0 {
				continue
			}
			b = b[:0]
			b = append(b, root...)
			b = append(b, ';')
			b = append(b, phase...)
			b = append(b, ';')
			b = append(b, bk.String()...)
			b = append(b, ' ')
			b = strconv.AppendFloat(b, c, 'f', 0, 64)
			b = append(b, '\n')
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
	}
	return nil
}
