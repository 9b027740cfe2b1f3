package prof

import (
	"jumpstart/internal/bytecode"
	"jumpstart/internal/interp"
	"jumpstart/internal/object"
	"jumpstart/internal/value"
)

// Collector accumulates tier-1 profile data. It implements
// interp.Tracer and is installed while the server runs profiling
// translations (the "JIT profile code / collect profile data" phases of
// Figure 3). Snapshot converts the raw counters into a Profile.
//
// The tracer callbacks are the hottest host-side path of the whole
// simulation (every block, call site and dynamic op of every profiled
// request lands here), so the counters are flat slices indexed by
// FuncID with packed integer keys, not nested maps; Snapshot unpacks
// them into the Profile's map shape once, at the end.
type Collector struct {
	prog *bytecode.Program

	entry  []uint64            // by FuncID
	blocks [][]uint64          // by FuncID, sized len(fn.Blocks()) on first touch
	edges  [][]edgeSite        // by FuncID, then src block
	calls  []map[uint64]uint64 // by FuncID; key = pc<<32 | callee FuncID
	types  [][]typeSite        // by FuncID, then pc
	props  [][]uint64          // by ClassID, then declared property index

	unitOrder []string
	unitSeen  map[string]bool
	fnSeen    []bool // by FuncID: unit membership already recorded

	// shadow stack tracking the last executed block per activation,
	// for edge attribution.
	stack []frameState

	requests int64
}

// edgeSite counts CFG edges leaving one source block. Almost every
// block transfers to a single successor in practice, so the first
// observed destination gets an inline counter and only polymorphic
// sources fall back to a map.
type edgeSite struct {
	dst   int32
	count uint64
	more  map[int32]uint64
}

// typeSite counts operand-kind observations at one pc. The inline slot
// covers the (overwhelmingly common) monomorphic case; `more` holds any
// additional kind pairs.
type typeSite struct {
	pair  uint16
	count uint64
	more  map[uint16]uint64
}

type frameState struct {
	fn        *bytecode.Function
	lastBlock int32
}

var _ interp.Tracer = (*Collector)(nil)

// NewCollector returns an empty collector for prog.
func NewCollector(prog *bytecode.Program) *Collector {
	n := len(prog.Funcs)
	return &Collector{
		prog:     prog,
		entry:    make([]uint64, n),
		blocks:   make([][]uint64, n),
		edges:    make([][]edgeSite, n),
		calls:    make([]map[uint64]uint64, n),
		types:    make([][]typeSite, n),
		props:    make([][]uint64, len(prog.Classes)),
		unitSeen: make(map[string]bool),
		fnSeen:   make([]bool, n),
	}
}

// BeginRequest marks the start of a profiled request (for coverage
// accounting).
func (c *Collector) BeginRequest() { c.requests++ }

// OnEnter implements interp.Tracer.
func (c *Collector) OnEnter(fn *bytecode.Function) {
	id := fn.ID
	c.entry[id]++
	if !c.fnSeen[id] {
		c.fnSeen[id] = true
		if fn.Unit != nil && !c.unitSeen[fn.Unit.Name] {
			c.unitSeen[fn.Unit.Name] = true
			c.unitOrder = append(c.unitOrder, fn.Unit.Name)
		}
	}
	c.stack = append(c.stack, frameState{fn: fn, lastBlock: -1})
}

// OnReturn implements interp.Tracer.
func (c *Collector) OnReturn(fn *bytecode.Function) {
	if n := len(c.stack); n > 0 {
		c.stack = c.stack[:n-1]
	}
}

// OnBlock implements interp.Tracer.
func (c *Collector) OnBlock(fn *bytecode.Function, block int) {
	id := fn.ID
	bc := c.blocks[id]
	if bc == nil {
		bc = make([]uint64, len(fn.Blocks()))
		c.blocks[id] = bc
	}
	if block < len(bc) {
		bc[block]++
	}
	if n := len(c.stack); n > 0 && c.stack[n-1].fn == fn {
		top := &c.stack[n-1]
		if src := top.lastBlock; src >= 0 && int(src) < len(bc) {
			es := c.edges[id]
			if es == nil {
				es = make([]edgeSite, len(bc))
				c.edges[id] = es
			}
			e := &es[src]
			switch {
			case e.count == 0 || e.dst == int32(block):
				e.dst = int32(block)
				e.count++
			default:
				if e.more == nil {
					e.more = make(map[int32]uint64)
				}
				e.more[int32(block)]++
			}
		}
		top.lastBlock = int32(block)
	}
}

// OnCallSite implements interp.Tracer.
func (c *Collector) OnCallSite(fn *bytecode.Function, pc int, callee *bytecode.Function) {
	sites := c.calls[fn.ID]
	if sites == nil {
		sites = make(map[uint64]uint64)
		c.calls[fn.ID] = sites
	}
	sites[uint64(uint32(pc))<<32|uint64(uint32(callee.ID))]++
}

// OnNewObj implements interp.Tracer.
func (c *Collector) OnNewObj(obj *object.Object) {}

// OnPropAccess implements interp.Tracer. It counts per (receiver
// class, declared property index); Snapshot folds the counts into the
// "K::P" keys of Section V-C.
func (c *Collector) OnPropAccess(obj *object.Object, slot int, write bool) {
	rc := obj.Class()
	cid := rc.Meta.ID
	counts := c.props[cid]
	if counts == nil {
		counts = make([]uint64, len(rc.DeclaredProps()))
		c.props[cid] = counts
	}
	counts[rc.DeclIndex(slot)]++
}

// declaringClass finds the class in cls's ancestry that declared the
// declIdx-th flattened property (flat layout is root layer first).
func (c *Collector) declaringClass(cls *bytecode.Class, declIdx int) string {
	var chain []*bytecode.Class
	for cur := cls; ; {
		chain = append(chain, cur)
		if cur.Parent == bytecode.NoClass {
			break
		}
		cur = c.prog.Classes[cur.Parent]
	}
	// chain is leaf-first; walk root-first.
	idx := declIdx
	for i := len(chain) - 1; i >= 0; i-- {
		k := chain[i]
		if idx < len(k.Props) {
			return k.Name
		}
		idx -= len(k.Props)
	}
	return cls.Name
}

// OnOpTypes implements interp.Tracer.
func (c *Collector) OnOpTypes(fn *bytecode.Function, pc int, a, b value.Kind) {
	sites := c.types[fn.ID]
	if sites == nil {
		sites = make([]typeSite, len(fn.Code))
		c.types[fn.ID] = sites
	}
	if pc < 0 || pc >= len(sites) {
		return
	}
	pair := uint16(a)<<8 | uint16(b)
	s := &sites[pc]
	switch {
	case s.count == 0 || s.pair == pair:
		s.pair = pair
		s.count++
	default:
		if s.more == nil {
			s.more = make(map[uint16]uint64)
		}
		s.more[pair]++
	}
}

// Snapshot converts the collected counters into a Profile for meta.
func (c *Collector) Snapshot(meta Meta) *Profile {
	p := NewProfile()
	meta.RequestCount = c.requests
	p.Meta = meta
	p.Units = append([]string{}, c.unitOrder...)
	for id, cnt := range c.entry {
		if cnt == 0 {
			continue
		}
		fn := c.prog.Funcs[id]
		fp := &FuncProfile{
			Checksum:    FuncChecksum(fn),
			EntryCount:  cnt,
			EdgeCounts:  map[EdgeKey]uint64{},
			CallTargets: map[int32]map[string]uint64{},
			TypeObs:     map[int32]map[uint16]uint64{},
		}
		if bc := c.blocks[id]; bc != nil {
			fp.BlockCounts = append([]uint64{}, bc...)
		} else {
			fp.BlockCounts = make([]uint64, len(fn.Blocks()))
		}
		for src, e := range c.edges[id] {
			if e.count > 0 {
				fp.EdgeCounts[EdgeKey{Src: int32(src), Dst: e.dst}] = e.count
			}
			for dst, n := range e.more {
				fp.EdgeCounts[EdgeKey{Src: int32(src), Dst: dst}] += n
			}
		}
		for key, n := range c.calls[id] {
			pc := int32(key >> 32)
			callee := c.prog.Funcs[bytecode.FuncID(uint32(key))]
			m := fp.CallTargets[pc]
			if m == nil {
				m = make(map[string]uint64)
				fp.CallTargets[pc] = m
			}
			m[callee.Name] += n
		}
		for pc, s := range c.types[id] {
			if s.count == 0 && s.more == nil {
				continue
			}
			m := make(map[uint16]uint64, 1+len(s.more))
			if s.count > 0 {
				m[s.pair] = s.count
			}
			for pair, n := range s.more {
				m[pair] += n
			}
			fp.TypeObs[int32(pc)] = m
		}
		p.Funcs[fn.Name] = fp
	}
	// A property's key names the class that *declares* it, so an
	// inherited access heats the declaring layer: every subclass's
	// count for it lands on one key.
	for cid, counts := range c.props {
		cls := c.prog.Classes[cid]
		for decl, n := range counts {
			if n > 0 {
				p.Props[c.declaringClass(cls, decl)+"::"+cls.FlatProps()[decl].Name] += n
			}
		}
	}
	return p
}
