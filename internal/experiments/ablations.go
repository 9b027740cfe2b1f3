package experiments

import (
	"jumpstart/internal/core"
	"jumpstart/internal/jit"
	"jumpstart/internal/parallel"
	"jumpstart/internal/server"
)

// FuncSortAblation compares the function-sorting algorithms the layout
// package implements — C3 (the paper's choice, Ottoni & Maher),
// Pettis-Hansen, and no sorting — on steady-state capacity, all with
// the seeded tier-2 call graph. This is the ablation DESIGN.md calls
// out for the Section V-B design choice.
type FuncSortAblation struct {
	C3RPS, PHRPS, NoneRPS float64
	// ITLB miss rates per variant (function placement's main lever).
	C3ITLB, PHITLB, NoneITLB float64
}

// FuncSort runs the function-sorting ablation; the three variants run
// in parallel across l.Cfg.Workers.
func (l *Lab) FuncSort() (FuncSortAblation, error) {
	measure := func(sort jit.FunctionSort) (server.SteadyStats, error) {
		cfg := l.Cfg.ServerCfg
		cfg.Mode = server.ModeConsumer
		cfg.Package = l.clonePkg()
		cfg.JITOpts.UseSeededCallGraph = true
		cfg.JITOpts.FuncSort = sort
		// The package's precomputed order was built with C3; force
		// consumers to re-sort with their configured algorithm.
		cfg.Package.FuncOrder = nil
		s, err := server.New(l.Scenario.Site, cfg)
		if err != nil {
			return server.SteadyStats{}, err
		}
		if err := s.WarmToServing(14400); err != nil {
			return server.SteadyStats{}, err
		}
		return s.MeasureSteady(l.Cfg.SteadyRequests), nil
	}
	sorts := []jit.FunctionSort{jit.SortC3, jit.SortPH, jit.SortNone}
	stats, err := parallel.MapErr(l.Cfg.Workers, len(sorts), func(i int) (server.SteadyStats, error) {
		return measure(sorts[i])
	})
	if err != nil {
		return FuncSortAblation{}, err
	}
	c3, ph, none := stats[0], stats[1], stats[2]
	return FuncSortAblation{
		C3RPS: c3.CapacityRPS, PHRPS: ph.CapacityRPS, NoneRPS: none.CapacityRPS,
		C3ITLB:   c3.Mem.ITLBMissRate(),
		PHITLB:   ph.Mem.ITLBMissRate(),
		NoneITLB: none.Mem.ITLBMissRate(),
	}, nil
}

// againstJS reads the plain Jump-Start cell and the cell of v, both
// Figure 6 cells, through the Lab's memo: an ablation run after (or
// alongside) Figure 6 measures nothing twice.
func (l *Lab) againstJS(v core.Variant) (base, with server.SteadyStats, err error) {
	grid := []core.Variant{{JumpStart: true}, v}
	stats, err := parallel.MapErr(l.Cfg.Workers, len(grid), func(i int) (server.SteadyStats, error) {
		return l.steadyState(grid[i], l.Cfg.SteadyRequests)
	})
	if err != nil {
		return base, with, err
	}
	return stats[0], stats[1], nil
}

// PropLayoutAblation compares the two object-layout policies:
// declared order (baseline) and hotness order (the paper's Section V-C).
type PropLayoutAblation struct {
	DeclaredRPS, HotnessRPS float64
	DeclaredL1D, HotnessL1D float64
}

// PropLayout runs the property-layout ablation on Figure 6's plain
// Jump-Start and property-reorder cells.
func (l *Lab) PropLayout() (PropLayoutAblation, error) {
	decl, hot, err := l.againstJS(core.Variant{JumpStart: true, PropertyOrder: true})
	if err != nil {
		return PropLayoutAblation{}, err
	}
	return PropLayoutAblation{
		DeclaredRPS: decl.CapacityRPS, HotnessRPS: hot.CapacityRPS,
		DeclaredL1D: decl.Mem.L1DMissRate(),
		HotnessL1D:  hot.Mem.L1DMissRate(),
	}, nil
}

// BlockLayoutAblation compares Ext-TSP block layout quality under the
// two weight sources of Section V-A (bytecode-derived vs measured Vasm
// counters), reporting hot-section bytes and branch/I-cache rates.
type BlockLayoutAblation struct {
	BytecodeRPS, VasmRPS       float64
	BytecodeL1I, VasmL1I       float64
	BytecodeBranch, VasmBranch float64
}

// BlockLayout runs the V-A weight-source ablation on Figure 6's plain
// Jump-Start and BB-layout cells.
func (l *Lab) BlockLayout() (BlockLayoutAblation, error) {
	bc, vm, err := l.againstJS(core.Variant{JumpStart: true, VasmCounters: true})
	if err != nil {
		return BlockLayoutAblation{}, err
	}
	return BlockLayoutAblation{
		BytecodeRPS: bc.CapacityRPS, VasmRPS: vm.CapacityRPS,
		BytecodeL1I: bc.Mem.L1IMissRate(), VasmL1I: vm.Mem.L1IMissRate(),
		BytecodeBranch: bc.Mem.BranchMissRate(), VasmBranch: vm.Mem.BranchMissRate(),
	}, nil
}
