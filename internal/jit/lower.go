package jit

import (
	"jumpstart/internal/bytecode"
	"jumpstart/internal/layout"
	"jumpstart/internal/prof"
	"jumpstart/internal/vasm"
)

// lower translates fn's bytecode into a Vasm CFG for the given tier.
// For TierOptimized, fp/p supply the profile data driving type
// specialization, guarded devirtualization and inlining; for the other
// tiers they are nil and lowering is fully generic (plus tier-1
// instrumentation).
func (j *JIT) lower(fn *bytecode.Function, tier Tier, fp *prof.FuncProfile, p *prof.Profile) *Translation {
	bcBlocks := fn.Blocks()
	t := &Translation{
		Fn:      fn,
		Tier:    tier,
		CFG:     &vasm.CFG{FuncName: fn.Name},
		MainMap: make([]int, len(bcBlocks)),
		Inlines: make(map[int32]*InlineMap),
		Devirt:  make(map[int32]string),
	}
	cfg := t.CFG

	newBlock := func(kind vasm.BlockKind, origin bytecode.FuncID, originBlock, instrs int) int {
		id := len(cfg.Blocks)
		cfg.Blocks = append(cfg.Blocks, vasm.Block{
			ID: id, Kind: kind, NInstrs: instrs,
			OriginFunc: origin, OriginBlock: originBlock,
		})
		return id
	}

	// pendingInlineEdges records ret-block → continuation-bc-block
	// links to resolve once all main blocks exist.
	type pendingEdge struct {
		fromVasm int
		toBCBlk  int
		weight   uint64
	}
	var pending []pendingEdge
	// guardEdges: specialized blocks get a side-exit block; weights
	// are assigned in applyLayout.
	type guardLink struct{ from, exit int }
	var guards []guardLink

	instrument := tier == TierProfile ||
		(tier == TierOptimized && j.opts.InstrumentOptimized)

	for bi, bb := range bcBlocks {
		instrs := 0
		specSites := 0
		callProfiles := 0
		propProfiles := 0

		for pc := bb.Start; pc < bb.End; pc++ {
			in := fn.Code[pc]
			switch {
			case tier == TierOptimized && isSpecializable(in.Op) && fp != nil:
				if a, b, mono := fp.MonoTypes(int32(pc)); mono {
					instrs += vasm.SpecializedInstrs(in.Op)
					t.SpecTypes = setGuard(t.SpecTypes, len(fn.Code), pc, a, b)
					specSites++
				} else {
					instrs += vasm.GenericInstrs(in.Op)
				}
			case tier == TierOptimized && (in.Op == bytecode.OpPropGet || in.Op == bytecode.OpPropSet):
				// Region compilation knows the receiver class: guard
				// on the class pointer and use a direct slot access.
				instrs += vasm.SpecializedPropInstrs
				specSites++
			case tier == TierOptimized && in.Op == bytecode.OpFCallM && fp != nil:
				target, ok := fp.DominantTarget(int32(pc), inlineMinFraction)
				if !ok {
					instrs += vasm.GenericInstrs(in.Op)
					break
				}
				callee, found := j.prog.FuncByName(target)
				switch {
				case found && j.inlinable(fn, callee, p):
					// Guard + spilled args; body spliced below.
					instrs += 3
					t.Inlines[int32(pc)] = &InlineMap{Callee: callee.ID}
				default:
					instrs += vasm.DevirtualizedCallInstrs
					t.Devirt[int32(pc)] = target
					specSites++
				}
			case tier == TierOptimized && in.Op == bytecode.OpFCallD && fp != nil:
				callee := j.prog.Funcs[in.A]
				if j.inlinable(fn, callee, p) {
					instrs += 2 // no dispatch guard needed: direct target
					t.Inlines[int32(pc)] = &InlineMap{Callee: callee.ID}
				} else {
					instrs += vasm.GenericInstrs(in.Op)
				}
			default:
				instrs += vasm.GenericInstrs(in.Op)
			}
			if instrument {
				if in.Op.IsCall() && tier == TierProfile {
					callProfiles++
				}
				if (in.Op == bytecode.OpPropGet || in.Op == bytecode.OpPropSet) && tier == TierProfile {
					propProfiles++
				}
			}
		}
		if instrument {
			instrs += vasm.BlockCounterInstrs
			instrs += callProfiles * vasm.CallProfileInstrs
			instrs += propProfiles * vasm.PropProfileInstrs
			if bi == 0 && tier == TierOptimized {
				instrs += vasm.FuncEntryProfileInstrs
			}
		}
		if instrs == 0 {
			instrs = 1 // every block materializes at least a jump
		}
		vb := newBlock(vasm.KindNormal, fn.ID, bi, instrs)
		t.MainMap[bi] = vb

		if specSites > 0 {
			exit := newBlock(vasm.KindGuardExit, fn.ID, -1, vasm.GuardExitInstrs)
			guards = append(guards, guardLink{from: vb, exit: exit})
		}

		// Splice the inlined callee's body right after the call block.
		if last := fn.Code[bb.End-1]; last.Op.IsCall() {
			if im, ok := t.Inlines[int32(bb.End-1)]; ok {
				callee := j.prog.Funcs[im.Callee]
				calleeFP := (*prof.FuncProfile)(nil)
				if p != nil {
					calleeFP = p.Funcs[callee.Name]
				}
				im.BlockOf = make([]int, len(callee.Blocks()))
				for cbi, cbb := range callee.Blocks() {
					ci := 0
					for pc := cbb.Start; pc < cbb.End; pc++ {
						cin := callee.Code[pc]
						if isSpecializable(cin.Op) && calleeFP != nil {
							if a, b, mono := calleeFP.MonoTypes(int32(pc)); mono {
								ci += vasm.SpecializedInstrs(cin.Op)
								im.SpecTypes = setGuard(im.SpecTypes, len(callee.Code), pc, a, b)
								continue
							}
						}
						if cin.Op == bytecode.OpPropGet || cin.Op == bytecode.OpPropSet {
							ci += vasm.SpecializedPropInstrs
							continue
						}
						if cin.Op == bytecode.OpRet {
							ci += 1 // inlined return is a move + jump
							continue
						}
						ci += vasm.GenericInstrs(cin.Op)
					}
					if instrument {
						ci += vasm.BlockCounterInstrs
					}
					if ci == 0 {
						ci = 1
					}
					im.BlockOf[cbi] = newBlock(vasm.KindNormal, callee.ID, cbi, ci)
				}
				// Callee-internal edges.
				for cbi, cbb := range callee.Blocks() {
					for _, s := range cbb.Succs {
						cfg.Edges = append(cfg.Edges, vasm.Edge{
							Src: im.BlockOf[cbi], Dst: im.BlockOf[s],
						})
					}
					if lastOp := callee.Code[cbb.End-1].Op; lastOp == bytecode.OpRet {
						// Ret blocks continue at the caller's next block.
						for _, s := range bb.Succs {
							pending = append(pending, pendingEdge{
								fromVasm: im.BlockOf[cbi], toBCBlk: s,
							})
						}
					}
				}
				// Call block enters the inlined entry.
				cfg.Edges = append(cfg.Edges, vasm.Edge{Src: vb, Dst: im.BlockOf[0]})
			}
		}
	}

	// Main bytecode CFG edges (skipping call→continuation when the
	// call was inlined: control flows through the inlined body).
	for bi, bb := range bcBlocks {
		if last := fn.Code[bb.End-1]; last.Op.IsCall() {
			if _, inlined := t.Inlines[int32(bb.End-1)]; inlined {
				continue
			}
		}
		for _, s := range bb.Succs {
			cfg.Edges = append(cfg.Edges, vasm.Edge{Src: t.MainMap[bi], Dst: t.MainMap[s]})
		}
	}
	for _, pe := range pending {
		cfg.Edges = append(cfg.Edges, vasm.Edge{
			Src: pe.fromVasm, Dst: t.MainMap[pe.toBCBlk], Weight: pe.weight,
		})
	}
	for _, gl := range guards {
		cfg.Edges = append(cfg.Edges, vasm.Edge{Src: gl.from, Dst: gl.exit})
	}

	// Fill successor lists from edges (the runtime's branch model and
	// the layout conversion both want them).
	for _, e := range cfg.Edges {
		cfg.Blocks[e.Src].Succs = append(cfg.Blocks[e.Src].Succs, e.Dst)
	}

	// Non-optimized tiers lay blocks out in lowering order, all hot.
	t.Order = make([]int, len(cfg.Blocks))
	for i := range t.Order {
		t.Order[i] = i
	}
	t.HotCount = len(t.Order)
	t.BlockAddr = make([]uint64, len(cfg.Blocks))
	for i := range cfg.Blocks {
		t.HotSize += cfg.Blocks[i].Size()
	}
	// Only the seeder's instrumented tier-2 code gets counters:
	// HarvestInto reads them, and nothing reads a tier-1 translation's.
	// Tier-1 still pays for its counter instructions (above); it just
	// has no memory behind them.
	if instrument && tier == TierOptimized {
		t.Counts = make([]uint64, len(cfg.Blocks))
	}
	return t
}

// setGuard records the operand-kind pair a specialized site at pc
// guards on, allocating the pc-indexed table (n = code length) on the
// first guard so unspecialized code carries none.
func setGuard(tab []uint32, n, pc int, a, b uint8) []uint32 {
	if tab == nil {
		tab = make([]uint32, n)
	}
	tab[pc] = guardWant(a, b) + 1
	return tab
}

// guardWant packs an operand-kind pair the way a guard table stores
// it (minus the +1 that marks a guarded pc).
func guardWant(a, b uint8) uint32 { return uint32(a)<<8 | uint32(b) }

// inlinable reports whether callee may be inlined into caller.
func (j *JIT) inlinable(caller, callee *bytecode.Function, p *prof.Profile) bool {
	if callee == nil || callee == caller {
		return false
	}
	if len(callee.Blocks()) > inlineMaxBlocks {
		return false
	}
	// The callee must not itself contain calls (one-level inlining,
	// keeping the runtime's shadow-stack model simple and bounding
	// code growth).
	for _, in := range callee.Code {
		if in.Op.IsCall() {
			return false
		}
	}
	if p == nil || p.Funcs[callee.Name] == nil {
		return false
	}
	return true
}

// isSpecializable reports whether the op benefits from monomorphic
// type feedback.
func isSpecializable(op bytecode.Op) bool {
	switch op {
	case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv,
		bytecode.OpMod, bytecode.OpConcat, bytecode.OpNeg,
		bytecode.OpCmpEq, bytecode.OpCmpNeq, bytecode.OpCmpSame,
		bytecode.OpCmpNSame, bytecode.OpCmpLt, bytecode.OpCmpLte,
		bytecode.OpCmpGt, bytecode.OpCmpGte:
		return true
	default:
		return false
	}
}

// applyLayout assigns block and edge weights and runs the Ext-TSP +
// hot/cold layout pipeline on an optimized translation.
//
// Weight sources (the crux of Section V-A):
//
//   - Without seeded Vasm counters, weights are *derived* from the
//     bytecode-level tier-1 profile: main blocks get their bytecode
//     block counts; inlined callee blocks get the callee's global
//     block counts (wrong for any specific call site); guard exits get
//     a fixed assumed fraction of their parent's weight (the JIT
//     cannot know real guard-failure rates).
//   - With seeded Vasm counters (UseVasmCounters and a matching
//     VasmCounts vector), every block gets its measured count.
func (j *JIT) applyLayout(t *Translation, fp *prof.FuncProfile) {
	cfg := t.CFG
	useVasm := j.opts.UseVasmCounters && len(fp.VasmCounts) == len(cfg.Blocks)

	if useVasm {
		for i := range cfg.Blocks {
			cfg.Blocks[i].Weight = fp.VasmCounts[i]
		}
	} else {
		for i := range cfg.Blocks {
			b := &cfg.Blocks[i]
			switch {
			case b.Kind == vasm.KindGuardExit:
				// Assigned below from the parent edge.
				b.Weight = 0
			case b.OriginFunc == t.Fn.ID:
				if b.OriginBlock >= 0 && b.OriginBlock < len(fp.BlockCounts) {
					b.Weight = fp.BlockCounts[b.OriginBlock]
				}
			default:
				// Inlined callee block: approximate with the callee's
				// global counts when available via the caller profile
				// — we only have the caller's fp here, so scale the
				// inline entry by the call-site count below; interior
				// blocks inherit it. (Assigned in the edge pass.)
				b.Weight = 0
			}
		}
	}

	// Edge weights from the bytecode edge profile where both endpoints
	// are main blocks; otherwise derived from block weights.
	bcOfVasm := make(map[int]int, len(t.MainMap))
	for bcb, vb := range t.MainMap {
		bcOfVasm[vb] = bcb
	}
	for i := range cfg.Edges {
		e := &cfg.Edges[i]
		if sb, ok1 := bcOfVasm[e.Src]; ok1 {
			if db, ok2 := bcOfVasm[e.Dst]; ok2 {
				e.Weight = fp.EdgeCounts[prof.EdgeKey{Src: int32(sb), Dst: int32(db)}]
				continue
			}
		}
		// Guard-exit edges.
		if cfg.Blocks[e.Dst].Kind == vasm.KindGuardExit {
			if useVasm {
				e.Weight = cfg.Blocks[e.Dst].Weight
			} else {
				w := uint64(float64(cfg.Blocks[e.Src].Weight) * guardAssumedWeight)
				e.Weight = w
				cfg.Blocks[e.Dst].Weight = w
			}
			continue
		}
		// Inline-related edges: weight of the source block.
		e.Weight = cfg.Blocks[e.Src].Weight
	}

	// Propagate weights into inlined bodies when not using measured
	// counters: the inline entry gets the call block's weight; deeper
	// blocks get a uniform share (this coarseness is exactly the
	// inaccuracy Section V-A's instrumentation removes).
	if !useVasm {
		for _, im := range t.Inlines {
			if len(im.BlockOf) == 0 {
				continue
			}
			entry := im.BlockOf[0]
			var entryW uint64
			for _, e := range cfg.Edges {
				if e.Dst == entry {
					entryW += cfg.Blocks[e.Src].Weight
				}
			}
			for _, vb := range im.BlockOf {
				cfg.Blocks[vb].Weight = entryW
			}
			// Recompute the weights of edges out of inlined blocks.
			inBody := make(map[int]bool, len(im.BlockOf))
			for _, vb := range im.BlockOf {
				inBody[vb] = true
			}
			for i := range cfg.Edges {
				e := &cfg.Edges[i]
				if inBody[e.Src] && cfg.Blocks[e.Dst].Kind != vasm.KindGuardExit {
					e.Weight = entryW
				}
			}
		}
	}

	g := cfg.ToLayoutGraph()
	order := layout.ExtTSP(g)
	hot, cold := layout.SplitHotCold(g, order, coldFraction)
	t.Order = append(append([]int{}, hot...), cold...)
	t.HotCount = len(hot)
	t.HotSize, t.ColdSize = 0, 0
	for i, b := range t.Order {
		if i < t.HotCount {
			t.HotSize += cfg.Blocks[b].Size()
		} else {
			t.ColdSize += cfg.Blocks[b].Size()
		}
	}
}
