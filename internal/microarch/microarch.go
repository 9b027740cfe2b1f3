// Package microarch simulates the parts of a CPU's memory hierarchy
// and front end that code/data layout affects: set-associative L1
// instruction and data caches, a unified last-level cache, instruction
// and data TLBs, and a gshare-style branch predictor.
//
// The server simulation feeds it the fetch/data/branch stream of
// executed translations; the resulting miss counts drive both the
// cycle cost model and the Figure 5 metrics (I-cache, D-cache, LLC,
// I-TLB, D-TLB and branch miss reductions from Jump-Start).
package microarch

import (
	"fmt"
	"strings"
)

// Config sizes the simulated hierarchy. The defaults approximate the
// paper's Xeon D-1581 per-core resources, with the LLC scaled down in
// proportion to the synthetic website's code size (the real machine
// runs ~500 MB of JITed code against a 24 MB LLC; the simulation runs
// ~1-4 MB of code, so the LLC is scaled to keep the ratio meaningful).
type Config struct {
	LineSize int // bytes per cache line
	PageSize int // bytes per TLB page

	L1ISets, L1IWays int
	L1DSets, L1DWays int
	LLCSets, LLCWays int

	ITLBEntries, DTLBEntries int

	BPTableBits int // branch-predictor table size = 1<<bits
}

// Penalties in cycles, the same for every geometry.
const (
	l1MissPenalty     = 12 // L1 miss, LLC hit
	llcMissPenalty    = 60 // LLC miss (memory access)
	tlbMissPenalty    = 30 // TLB fill (page walk)
	branchMissPenalty = 15 // mispredicted branch
)

// DefaultConfig returns the scaled Xeon D-1581-like hierarchy.
func DefaultConfig() Config {
	return Config{
		LineSize: 64,
		PageSize: 4096,
		L1ISets:  64, L1IWays: 8, // 32 KB
		L1DSets: 64, L1DWays: 8, // 32 KB
		LLCSets: 1024, LLCWays: 16, // 1 MB (scaled)
		ITLBEntries: 64,
		DTLBEntries: 64,
		BPTableBits: 12,
	}
}

// Validate reports a descriptive error when the geometry would break
// the indexing arithmetic: newCache extracts set and page indexes
// with shift-and-mask (setMask = sets-1, lineBits = log2(lineSize)),
// which silently mis-indexes — aliasing lines into a fraction of the
// sets — unless sets, line size and page size are powers of two.
// Callers that can surface an error (server.New does) should Validate;
// New itself rounds offenders up via Normalize so a hierarchy can
// never be built mis-indexing.
func (c Config) Validate() error {
	var bad []string
	pow2 := func(name string, v int) {
		if v <= 0 || v&(v-1) != 0 {
			bad = append(bad, fmt.Sprintf("%s=%d", name, v))
		}
	}
	pos := func(name string, v int) {
		if v <= 0 {
			bad = append(bad, fmt.Sprintf("%s=%d", name, v))
		}
	}
	pow2("LineSize", c.LineSize)
	pow2("PageSize", c.PageSize)
	pow2("L1ISets", c.L1ISets)
	pow2("L1DSets", c.L1DSets)
	pow2("LLCSets", c.LLCSets)
	pos("L1IWays", c.L1IWays)
	pos("L1DWays", c.L1DWays)
	pos("LLCWays", c.LLCWays)
	pos("ITLBEntries", c.ITLBEntries)
	pos("DTLBEntries", c.DTLBEntries)
	if c.BPTableBits <= 0 || c.BPTableBits > 30 {
		bad = append(bad, fmt.Sprintf("BPTableBits=%d", c.BPTableBits))
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("microarch: invalid config: %s (line/page sizes and cache sets must be positive powers of two, ways and TLB entries positive, BPTableBits in 1..30)",
		strings.Join(bad, ", "))
}

// Normalize returns a copy with every offending field rounded up to
// the nearest legal value (next power of two for the indexed sizes,
// 1 for the counts, clamped 1..30 for the predictor bits). Normalizing
// a valid config is the identity.
func (c Config) Normalize() Config {
	c.LineSize = nextPow2(c.LineSize)
	c.PageSize = nextPow2(c.PageSize)
	c.L1ISets = nextPow2(c.L1ISets)
	c.L1DSets = nextPow2(c.L1DSets)
	c.LLCSets = nextPow2(c.LLCSets)
	c.L1IWays = atLeast1(c.L1IWays)
	c.L1DWays = atLeast1(c.L1DWays)
	c.LLCWays = atLeast1(c.LLCWays)
	c.ITLBEntries = atLeast1(c.ITLBEntries)
	c.DTLBEntries = atLeast1(c.DTLBEntries)
	if c.BPTableBits < 1 {
		c.BPTableBits = 1
	}
	if c.BPTableBits > 30 {
		c.BPTableBits = 30
	}
	return c
}

// nextPow2 rounds n up to the next power of two (minimum 1).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << log2(n)
}

func atLeast1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// Stats accumulates event and miss counts.
type Stats struct {
	Fetches    uint64 // instruction-fetch line accesses
	L1IMisses  uint64
	DataAccs   uint64
	L1DMisses  uint64
	LLCAccs    uint64
	LLCMisses  uint64
	ITLBAccs   uint64
	ITLBMisses uint64
	DTLBAccs   uint64
	DTLBMisses uint64
	Branches   uint64
	BranchMiss uint64
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Fetches += o.Fetches
	s.L1IMisses += o.L1IMisses
	s.DataAccs += o.DataAccs
	s.L1DMisses += o.L1DMisses
	s.LLCAccs += o.LLCAccs
	s.LLCMisses += o.LLCMisses
	s.ITLBAccs += o.ITLBAccs
	s.ITLBMisses += o.ITLBMisses
	s.DTLBAccs += o.DTLBAccs
	s.DTLBMisses += o.DTLBMisses
	s.Branches += o.Branches
	s.BranchMiss += o.BranchMiss
}

// Rate helpers (safe on zero denominators).
func rate(miss, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(miss) / float64(total)
}

// L1IMissRate returns I-cache misses per fetch.
func (s Stats) L1IMissRate() float64 { return rate(s.L1IMisses, s.Fetches) }

// L1DMissRate returns D-cache misses per access.
func (s Stats) L1DMissRate() float64 { return rate(s.L1DMisses, s.DataAccs) }

// LLCMissRate returns LLC misses per LLC access.
func (s Stats) LLCMissRate() float64 { return rate(s.LLCMisses, s.LLCAccs) }

// ITLBMissRate returns I-TLB misses per access.
func (s Stats) ITLBMissRate() float64 { return rate(s.ITLBMisses, s.ITLBAccs) }

// DTLBMissRate returns D-TLB misses per access.
func (s Stats) DTLBMissRate() float64 { return rate(s.DTLBMisses, s.DTLBAccs) }

// BranchMissRate returns mispredictions per branch.
func (s Stats) BranchMissRate() float64 { return rate(s.BranchMiss, s.Branches) }

// cache is a set-associative cache with LRU replacement. All ways of
// all sets live in one flat slice (set s occupies lines[s*ways :
// (s+1)*ways]) so an access touches a single allocation and the index
// arithmetic stays branch-free. A TLB is the one-set case: a
// fully-associative LRU over pages (lineSize = page size).
//
// mru remembers the line the previous access touched. A tag lives in
// at most one way of its set, and nothing changes between two
// accesses, so an access that repeats the previous tag finds that line
// without scanning the set and updates exactly what the scan would.
type cache struct {
	lines    []line
	ways     int
	lineBits uint
	setMask  uint64
	tick     uint64
	mru      *line
}

type line struct {
	tag  uint64
	used uint64
	ok   bool
}

func newCache(sets, ways, lineSize int) *cache {
	return &cache{
		lines:    make([]line, sets*ways),
		ways:     ways,
		lineBits: log2(lineSize),
		setMask:  uint64(sets - 1),
	}
}

func log2(n int) uint {
	var b uint
	for 1<<b < n {
		b++
	}
	return b
}

// access touches addr and reports whether it hit.
func (c *cache) access(addr uint64) bool {
	c.tick++
	tag := addr >> c.lineBits
	if m := c.mru; m != nil && m.tag == tag {
		m.used = c.tick
		return true
	}
	base := int(tag&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	victim := 0
	for i := range set {
		if set[i].ok && set[i].tag == tag {
			set[i].used = c.tick
			c.mru = &set[i]
			return true
		}
		if set[i].used < set[victim].used || !set[i].ok && set[victim].ok {
			victim = i
		}
	}
	// Prefer an invalid way.
	for i := range set {
		if !set[i].ok {
			victim = i
			break
		}
	}
	set[victim] = line{tag: tag, used: c.tick, ok: true}
	c.mru = &set[victim]
	return false
}

// predictor is a gshare branch predictor: 2-bit saturating counters
// indexed by pc xor global history.
type predictor struct {
	table   []uint8
	history uint64
	mask    uint64
}

func newPredictor(bits int) *predictor {
	return &predictor{table: make([]uint8, 1<<bits), mask: uint64(1<<bits - 1)}
}

func (p *predictor) predict(pc uint64, taken bool) bool {
	idx := (pc>>2 ^ p.history) & p.mask
	ctr := p.table[idx]
	predicted := ctr >= 2
	if taken {
		if ctr < 3 {
			p.table[idx] = ctr + 1
		}
	} else if ctr > 0 {
		p.table[idx] = ctr - 1
	}
	p.history = (p.history << 1) | b2u(taken)
	return predicted == taken
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Hierarchy bundles the simulated structures.
type Hierarchy struct {
	cfg  Config
	l1i  *cache
	l1d  *cache
	llc  *cache
	itlb *cache
	dtlb *cache
	bp   *predictor

	stats Stats
}

// New builds a hierarchy from cfg. A config that fails Validate is
// normalized first (sizes rounded up to powers of two, counts raised
// to 1), so the shift-and-mask indexing below is always sound;
// callers that want the invalid geometry reported instead of rounded
// should Validate before calling.
func New(cfg Config) *Hierarchy {
	cfg = cfg.Normalize()
	return &Hierarchy{
		cfg:  cfg,
		l1i:  newCache(cfg.L1ISets, cfg.L1IWays, cfg.LineSize),
		l1d:  newCache(cfg.L1DSets, cfg.L1DWays, cfg.LineSize),
		llc:  newCache(cfg.LLCSets, cfg.LLCWays, cfg.LineSize),
		itlb: newCache(1, cfg.ITLBEntries, cfg.PageSize),
		dtlb: newCache(1, cfg.DTLBEntries, cfg.PageSize),
		bp:   newPredictor(cfg.BPTableBits),
	}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Fetch simulates fetching size bytes of code starting at addr,
// returning the penalty cycles incurred (0 on all-hit).
func (h *Hierarchy) Fetch(addr uint64, size int) int {
	penalty := 0
	line := uint64(h.cfg.LineSize)
	end := addr + uint64(size)
	for a := addr &^ (line - 1); a < end; a += line {
		h.stats.Fetches++
		h.stats.ITLBAccs++
		if !h.itlb.access(a) {
			h.stats.ITLBMisses++
			penalty += tlbMissPenalty
		}
		if !h.l1i.access(a) {
			h.stats.L1IMisses++
			h.stats.LLCAccs++
			if h.llc.access(a) {
				penalty += l1MissPenalty
			} else {
				h.stats.LLCMisses++
				penalty += llcMissPenalty
			}
		}
	}
	return penalty
}

// Data simulates one data access at addr.
func (h *Hierarchy) Data(addr uint64) int {
	penalty := 0
	h.stats.DataAccs++
	h.stats.DTLBAccs++
	if !h.dtlb.access(addr) {
		h.stats.DTLBMisses++
		penalty += tlbMissPenalty
	}
	if !h.l1d.access(addr) {
		h.stats.L1DMisses++
		h.stats.LLCAccs++
		if h.llc.access(addr) {
			penalty += l1MissPenalty
		} else {
			h.stats.LLCMisses++
			penalty += llcMissPenalty
		}
	}
	return penalty
}

// Branch simulates one conditional branch at pc with the given
// outcome, returning the misprediction penalty (0 when predicted).
func (h *Hierarchy) Branch(pc uint64, taken bool) int {
	h.stats.Branches++
	if !h.bp.predict(pc, taken) {
		h.stats.BranchMiss++
		return branchMissPenalty
	}
	return 0
}

// Stats returns the accumulated counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResetStats zeroes the counters without flushing cache state (used to
// measure steady-state windows after warmup).
func (h *Hierarchy) ResetStats() { h.stats = Stats{} }

// AccessKind discriminates the events in a batched access stream.
type AccessKind uint8

// Access kinds.
const (
	// AccessFetch is an instruction fetch of Aux bytes at Addr.
	AccessFetch AccessKind = iota
	// AccessData is one data access. Addr is stored relative to a
	// caller-supplied base so recorded streams stay valid as the
	// simulated heap grows (see Stream's dataBase).
	AccessData
	// AccessBranch is a conditional branch at Addr, taken iff Aux != 0.
	AccessBranch
)

// Access is one element of a batched event stream — a recorded
// Fetch/Data/Branch call.
type Access struct {
	Addr uint64
	Aux  uint32
	Kind AccessKind
}

// Stream feeds a recorded access stream through the hierarchy in
// order, exactly as the equivalent sequence of Fetch/Data/Branch calls
// would, and returns the penalty cycles accumulated per event class.
// AccessData addresses are offsets added to dataBase. The call
// allocates nothing, which is what makes replayed translations cheap.
func (h *Hierarchy) Stream(accs []Access, dataBase uint64) (fetchPen, dataPen, branchPen uint64) {
	for i := range accs {
		a := &accs[i]
		switch a.Kind {
		case AccessFetch:
			fetchPen += uint64(h.Fetch(a.Addr, int(a.Aux)))
		case AccessData:
			dataPen += uint64(h.Data(dataBase + a.Addr))
		default:
			branchPen += uint64(h.Branch(a.Addr, a.Aux != 0))
		}
	}
	return fetchPen, dataPen, branchPen
}
