package microarch

import (
	"math/rand"
	"slices"
	"testing"
)

// refCache is the full-scan set-associative LRU cache that cache, with
// its MRU fast path, must match access for access: every access scans
// its set. It is the reference TestHierarchyMRUMatchesFullScan and
// FuzzHierarchyMRU compare against; with one set it is the reference
// TLB too.
type refCache struct {
	lines    []line
	ways     int
	lineBits uint
	setMask  uint64
	tick     uint64
}

func (c *refCache) access(addr uint64) bool {
	c.tick++
	tag := addr >> c.lineBits
	base := int(tag&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	victim := 0
	for i := range set {
		if set[i].ok && set[i].tag == tag {
			set[i].used = c.tick
			return true
		}
		if set[i].used < set[victim].used || !set[i].ok && set[victim].ok {
			victim = i
		}
	}
	for i := range set {
		if !set[i].ok {
			victim = i
			break
		}
	}
	set[victim] = line{tag: tag, used: c.tick, ok: true}
	return false
}

// refHierarchy is Hierarchy's Fetch and Data over the reference
// structures, counting into the same Stats.
type refHierarchy struct {
	lineSize      uint64
	l1i, l1d, llc *refCache
	itlb, dtlb    *refCache
	stats         Stats
}

func newRefHierarchy(cfg Config) *refHierarchy {
	c := func(sets, ways, lineSize int) *refCache {
		return &refCache{lines: make([]line, sets*ways), ways: ways,
			lineBits: log2(lineSize), setMask: uint64(sets - 1)}
	}
	return &refHierarchy{
		lineSize: uint64(cfg.LineSize),
		l1i:      c(cfg.L1ISets, cfg.L1IWays, cfg.LineSize),
		l1d:      c(cfg.L1DSets, cfg.L1DWays, cfg.LineSize),
		llc:      c(cfg.LLCSets, cfg.LLCWays, cfg.LineSize),
		itlb:     c(1, cfg.ITLBEntries, cfg.PageSize),
		dtlb:     c(1, cfg.DTLBEntries, cfg.PageSize),
	}
}

func (h *refHierarchy) fetch(addr uint64, size int) int {
	penalty := 0
	end := addr + uint64(size)
	for a := addr &^ (h.lineSize - 1); a < end; a += h.lineSize {
		h.stats.Fetches++
		h.stats.ITLBAccs++
		if !h.itlb.access(a) {
			h.stats.ITLBMisses++
			penalty += tlbMissPenalty
		}
		if !h.l1i.access(a) {
			h.stats.L1IMisses++
			penalty += h.fill(a)
		}
	}
	return penalty
}

func (h *refHierarchy) data(addr uint64) int {
	penalty := 0
	h.stats.DataAccs++
	h.stats.DTLBAccs++
	if !h.dtlb.access(addr) {
		h.stats.DTLBMisses++
		penalty += tlbMissPenalty
	}
	if !h.l1d.access(addr) {
		h.stats.L1DMisses++
		penalty += h.fill(addr)
	}
	return penalty
}

func (h *refHierarchy) fill(addr uint64) int {
	h.stats.LLCAccs++
	if h.llc.access(addr) {
		return l1MissPenalty
	}
	h.stats.LLCMisses++
	return llcMissPenalty
}

// mruTestConfig is small enough that a few hundred accesses evict from
// every structure, so the fast path is checked against replacement.
func mruTestConfig() Config {
	return Config{
		LineSize: 64, PageSize: 4096,
		L1ISets: 4, L1IWays: 2,
		L1DSets: 4, L1DWays: 2,
		LLCSets: 8, LLCWays: 4,
		ITLBEntries: 4, DTLBEntries: 3,
		BPTableBits: 4,
	}
}

// mruOp is one decoded access: a fetch of size bytes, or a data access
// when size is 0.
type mruOp struct {
	addr uint64
	size int
}

// checkMRU drives a Hierarchy and the reference through ops and fails
// on the first access whose penalty or Stats differ, so the two hit
// and miss sequences are equal structure by structure. The structures'
// final contents must match too.
func checkMRU(t *testing.T, cfg Config, ops []mruOp) {
	t.Helper()
	h, ref := New(cfg), newRefHierarchy(cfg)
	for i, op := range ops {
		var got, want int
		if op.size > 0 {
			got, want = h.Fetch(op.addr, op.size), ref.fetch(op.addr, op.size)
		} else {
			got, want = h.Data(op.addr), ref.data(op.addr)
		}
		if got != want || h.Stats() != ref.stats {
			t.Fatalf("access %d (%+v): penalty %d, reference %d\nstats     %+v\nreference %+v",
				i, op, got, want, h.Stats(), ref.stats)
		}
	}
	for _, p := range []struct {
		name      string
		got, want []line
	}{
		{"L1I", h.l1i.lines, ref.l1i.lines},
		{"L1D", h.l1d.lines, ref.l1d.lines},
		{"LLC", h.llc.lines, ref.llc.lines},
		{"ITLB", h.itlb.lines, ref.itlb.lines},
		{"DTLB", h.dtlb.lines, ref.dtlb.lines},
	} {
		if !slices.Equal(p.got, p.want) {
			t.Fatalf("%s contents diverged:\n%+v\nreference %+v", p.name, p.got, p.want)
		}
	}
}

// decodeMRUOps turns fuzz bytes into accesses, three bytes each: a
// kind/size byte and a 16-bit address (16 pages, 1024 lines), so
// mutated inputs revisit lines and pages often.
func decodeMRUOps(data []byte) []mruOp {
	ops := make([]mruOp, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		op := mruOp{addr: uint64(data[i+1])<<8 | uint64(data[i+2])}
		if data[i]&1 == 1 {
			op.size = int(data[i]>>1) + 1
		}
		ops = append(ops, op)
	}
	return ops
}

// TestHierarchyMRUMatchesFullScan compares the MRU fast paths with the
// full-scan reference on streams shaped like a server's: runs of
// fetches through neighbouring blocks and data accesses near recent
// ones, broken by jumps, on both the small test geometry and the
// default one.
func TestHierarchyMRUMatchesFullScan(t *testing.T) {
	for _, cfg := range []Config{mruTestConfig(), DefaultConfig()} {
		rng := rand.New(rand.NewSource(7))
		ops := make([]mruOp, 0, 50000)
		var pc, heap uint64 = 0x40_0000, 0x7f00_0000
		for len(ops) < cap(ops) {
			switch r := rng.Intn(100); {
			case r < 3:
				pc = 0x40_0000 + uint64(rng.Intn(1<<20))
			case r < 6:
				heap = 0x7f00_0000 + uint64(rng.Intn(1<<18))
			case r < 55:
				size := 1 + rng.Intn(160)
				ops = append(ops, mruOp{addr: pc, size: size})
				pc += uint64(size + rng.Intn(3)*8)
			default:
				ops = append(ops, mruOp{addr: heap + uint64(rng.Intn(512))})
			}
		}
		checkMRU(t, cfg, ops)
	}
}

// FuzzHierarchyMRU is the differential fuzz target behind
// TestHierarchyMRUMatchesFullScan, on the small test geometry.
func FuzzHierarchyMRU(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0, 0, 0, 0, 8, 0, 0, 8, 0x7f, 0x10, 0, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0x10, 0, 0, 0x20, 0, 0, 0x30, 0, 0, 0x40, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0x0f, 0xc0, 0xff, 0x0f, 0xc0, 3, 0x0f, 0xff, 0, 0x10, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3000 {
			data = data[:3000]
		}
		checkMRU(t, mruTestConfig(), decodeMRUOps(data))
	})
}
