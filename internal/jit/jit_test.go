package jit

import (
	"strings"
	"testing"

	"jumpstart/internal/bytecode"
	"jumpstart/internal/hackc"
	"jumpstart/internal/interp"
	"jumpstart/internal/microarch"
	"jumpstart/internal/object"
	"jumpstart/internal/prof"
	"jumpstart/internal/value"
	"jumpstart/internal/vasm"
)

const siteSrc = `
class Item { prop price = 0; prop qty = 0; prop tag = ""; }
fun itemTotal(it) { return it->price * it->qty; }
fun cartTotal(items) {
  t = 0;
  foreach (items as it) { t += itemTotal(it); }
  return t;
}
fun buildCart(n) {
  items = [];
  for (i = 0; i < n; i += 1) {
    it = new Item;
    it->price = i + 1;
    it->qty = 2;
    push(items, it);
  }
  return items;
}
fun handler(n) {
  items = buildCart(n);
  return cartTotal(items);
}`

type world struct {
	prog *bytecode.Program
	reg  *object.Registry
	ip   *interp.Interp
}

func newWorld(t *testing.T) *world {
	t.Helper()
	prog, err := hackc.CompileSources(
		map[string]string{"site.mh": siteSrc}, []string{"site.mh"}, hackc.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := object.NewRegistry(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{prog: prog, reg: reg}
	w.ip = interp.New(prog, reg, interp.Config{})
	return w
}

// collectProfile runs the workload under a collector with all
// functions in profiling translations, returning the snapshot.
func collectProfile(t *testing.T, w *world, j *JIT, reqs int) *prof.Profile {
	t.Helper()
	for _, fn := range w.prog.Funcs {
		if _, err := j.CompileProfiling(fn); err != nil {
			t.Fatal(err)
		}
	}
	col := prof.NewCollector(w.prog)
	w.ip.SetTracer(col)
	for i := 0; i < reqs; i++ {
		col.BeginRequest()
		if _, err := w.ip.CallByName("handler", value.Int(20)); err != nil {
			t.Fatal(err)
		}
	}
	w.ip.SetTracer(nil)
	return col.Snapshot(prof.Meta{Revision: 1})
}

func TestTierCostOrdering(t *testing.T) {
	w := newWorld(t)
	runCost := func(setup func(j *JIT, p *prof.Profile)) uint64 {
		j := New(w.prog, DefaultOptions(), NewCodeCache(DefaultCacheConfig()))
		p := collectProfile(t, w, j, 5)
		// Reset to interpreter, then apply setup.
		for _, fn := range w.prog.Funcs {
			j.SetActive(fn.ID, nil)
		}
		setup(j, p)
		rt := NewRuntime(j, nil)
		w.ip.SetTracer(rt)
		rt.BeginRequest(false)
		if _, err := w.ip.CallByName("handler", value.Int(20)); err != nil {
			t.Fatal(err)
		}
		w.ip.SetTracer(nil)
		return rt.TakeCycles()
	}

	interpCost := runCost(func(j *JIT, p *prof.Profile) {})
	tier1Cost := runCost(func(j *JIT, p *prof.Profile) {
		for _, fn := range w.prog.Funcs {
			if _, err := j.CompileProfiling(fn); err != nil {
				t.Fatal(err)
			}
		}
	})
	tier2Cost := runCost(func(j *JIT, p *prof.Profile) {
		trans := map[string]*Translation{}
		for _, name := range p.HotFunctions() {
			fn, _ := w.prog.FuncByName(name)
			tr, err := j.CompileOptimized(fn, p)
			if err != nil {
				t.Fatal(err)
			}
			trans[name] = tr
		}
		if err := j.RelocateOptimized(trans, p.HotFunctions()); err != nil {
			t.Fatal(err)
		}
	})

	if !(interpCost > tier1Cost && tier1Cost > tier2Cost) {
		t.Fatalf("cost ordering broken: interp=%d tier1=%d tier2=%d",
			interpCost, tier1Cost, tier2Cost)
	}
	// The interpreter should be several times slower than optimized.
	if float64(interpCost) < 3*float64(tier2Cost) {
		t.Fatalf("optimized speedup too small: interp=%d tier2=%d", interpCost, tier2Cost)
	}
}

func TestOptimizedSpecializesAndInlines(t *testing.T) {
	w := newWorld(t)
	j := New(w.prog, DefaultOptions(), NewCodeCache(DefaultCacheConfig()))
	p := collectProfile(t, w, j, 10)

	fn, _ := w.prog.FuncByName("cartTotal")
	tr, err := j.CompileOptimized(fn, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.SpecTypes) == 0 {
		t.Fatal("no type specialization in cartTotal (t += ... is int/int)")
	}
	// itemTotal is small, call-free and monomorphic: must inline.
	if len(tr.Inlines) == 0 {
		t.Fatal("itemTotal not inlined into cartTotal")
	}
	for _, im := range tr.Inlines {
		callee := w.prog.Funcs[im.Callee]
		if callee.Name != "itemTotal" {
			t.Fatalf("inlined %s", callee.Name)
		}
		if len(im.BlockOf) != len(callee.Blocks()) {
			t.Fatal("inline map incomplete")
		}
	}
	// Guard exits exist and are cold after layout.
	guards := 0
	for i := range tr.CFG.Blocks {
		if tr.CFG.Blocks[i].Kind == vasm.KindGuardExit {
			guards++
		}
	}
	if guards == 0 {
		t.Fatal("no guard exits")
	}
}

func TestRuntimeChargesInlinedBody(t *testing.T) {
	w := newWorld(t)
	j := New(w.prog, DefaultOptions(), NewCodeCache(DefaultCacheConfig()))
	p := collectProfile(t, w, j, 10)

	trans := map[string]*Translation{}
	for _, name := range p.HotFunctions() {
		fn, _ := w.prog.FuncByName(name)
		tr, err := j.CompileOptimized(fn, p)
		if err != nil {
			t.Fatal(err)
		}
		trans[name] = tr
	}
	if err := j.RelocateOptimized(trans, nil); err != nil {
		t.Fatal(err)
	}

	// Instrument manually: counts arrays exist only when instrumented,
	// so recompile with instrumentation to observe charging.
	j2 := New(w.prog, func() Options {
		o := DefaultOptions()
		o.InstrumentOptimized = true
		return o
	}(), NewCodeCache(DefaultCacheConfig()))
	trans2 := map[string]*Translation{}
	for _, name := range p.HotFunctions() {
		fn, _ := w.prog.FuncByName(name)
		tr, err := j2.CompileOptimized(fn, p)
		if err != nil {
			t.Fatal(err)
		}
		trans2[name] = tr
	}
	if err := j2.RelocateOptimized(trans2, nil); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(j2, nil)
	w.ip.SetTracer(rt)
	rt.BeginRequest(false)
	if _, err := w.ip.CallByName("handler", value.Int(8)); err != nil {
		t.Fatal(err)
	}
	w.ip.SetTracer(nil)

	ct := trans2["cartTotal"]
	// Inlined itemTotal blocks inside cartTotal must have counts.
	var inlineHits uint64
	for _, im := range ct.Inlines {
		for _, vb := range im.BlockOf {
			inlineHits += ct.Counts[vb]
		}
	}
	if inlineHits == 0 {
		t.Fatal("inlined body never charged")
	}
	// itemTotal itself must NOT appear in the accurate call graph
	// (inlined calls don't enter).
	if _, ok := rt.callPairs[prof.CallPair{Caller: "cartTotal", Callee: "itemTotal"}]; ok {
		t.Fatal("inlined call leaked into the tier-2 call graph")
	}
	// handler -> buildCart and handler -> cartTotal do appear.
	if rt.callPairs[prof.CallPair{Caller: "handler", Callee: "cartTotal"}] == 0 {
		t.Fatalf("call pairs = %v", rt.callPairs)
	}
}

func TestHarvestVasmCountsAndLayoutAccuracy(t *testing.T) {
	w := newWorld(t)
	opts := DefaultOptions()
	opts.InstrumentOptimized = true
	j := New(w.prog, opts, NewCodeCache(DefaultCacheConfig()))
	p := collectProfile(t, w, j, 10)

	trans := map[string]*Translation{}
	for _, name := range p.HotFunctions() {
		fn, _ := w.prog.FuncByName(name)
		tr, err := j.CompileOptimized(fn, p)
		if err != nil {
			t.Fatal(err)
		}
		trans[name] = tr
	}
	if err := j.RelocateOptimized(trans, nil); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(j, nil)
	w.ip.SetTracer(rt)
	for i := 0; i < 20; i++ {
		rt.BeginRequest(false)
		if _, err := w.ip.CallByName("handler", value.Int(20)); err != nil {
			t.Fatal(err)
		}
	}
	w.ip.SetTracer(nil)
	rt.HarvestInto(p)

	ct := p.Funcs["cartTotal"]
	if len(ct.VasmCounts) == 0 {
		t.Fatal("vasm counts not harvested")
	}
	if len(p.CallPairs) == 0 {
		t.Fatal("call pairs not harvested")
	}

	// Consumer with V-A enabled: guard exits must be laid out cold
	// (measured count 0), whereas the bytecode-derived layout gives
	// them nonzero assumed weight.
	copts := DefaultOptions()
	copts.UseVasmCounters = true
	jc := New(w.prog, copts, NewCodeCache(DefaultCacheConfig()))
	fn, _ := w.prog.FuncByName("cartTotal")
	tr, err := jc.CompileOptimized(fn, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.CFG.Blocks {
		if tr.CFG.Blocks[i].Kind == vasm.KindGuardExit && tr.CFG.Blocks[i].Weight != 0 {
			t.Fatalf("guard exit has measured weight %d", tr.CFG.Blocks[i].Weight)
		}
	}
	// All guard exits in the cold section.
	hotSet := map[int]bool{}
	for i, b := range tr.Order {
		if i < tr.HotCount {
			hotSet[b] = true
		}
	}
	for i := range tr.CFG.Blocks {
		if tr.CFG.Blocks[i].Kind == vasm.KindGuardExit && hotSet[i] {
			t.Fatal("guard exit in hot section despite measured counters")
		}
	}
	// The V-A layout should produce a hot section no larger than the
	// bytecode-derived one (guards moved out).
	jb := New(w.prog, DefaultOptions(), NewCodeCache(DefaultCacheConfig()))
	trB, err := jb.CompileOptimized(fn, p2noVasm(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if tr.HotSize > trB.HotSize {
		t.Fatalf("V-A hot size %d > bytecode-derived %d", tr.HotSize, trB.HotSize)
	}
}

// p2noVasm returns a copy of p without vasm counters.
func p2noVasm(t *testing.T, p *prof.Profile) *prof.Profile {
	t.Helper()
	q, err := prof.Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range q.Funcs {
		fp.VasmCounts = nil
	}
	return q
}

func TestGuardFailureCharged(t *testing.T) {
	src := `
fun addup(a, b) { return a + b; }
fun mono(n) { t = 0; for (i = 0; i < n; i += 1) { t = addup(t, i); } return t; }
fun poly() { return addup("x", "1"); }`
	prog, err := hackc.CompileSources(map[string]string{"m.mh": src}, []string{"m.mh"}, hackc.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = err
	reg, _ := object.NewRegistry(prog, nil)
	ip := interp.New(prog, reg, interp.Config{})

	j := New(prog, DefaultOptions(), NewCodeCache(DefaultCacheConfig()))
	for _, fn := range prog.Funcs {
		if _, err := j.CompileProfiling(fn); err != nil {
			t.Fatal(err)
		}
	}
	col := prof.NewCollector(prog)
	ip.SetTracer(col)
	if _, err := ip.CallByName("mono", value.Int(100)); err != nil {
		t.Fatal(err)
	}
	p := col.Snapshot(prof.Meta{})

	fn, _ := prog.FuncByName("addup")
	tr, err := j.CompileOptimized(fn, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.SpecTypes) == 0 {
		t.Fatal("addup should specialize to int/int")
	}
	trans := map[string]*Translation{"addup": tr}
	if err := j.RelocateOptimized(trans, nil); err != nil {
		t.Fatal(err)
	}

	rt := NewRuntime(j, nil)
	ip.SetTracer(rt)
	rt.BeginRequest(false)
	// "x" . "1": concat via + would fault; poly calls addup("x","1")
	// → "x"+"1" faults... use numeric strings instead: "x" is not
	// numeric. The call faults at runtime, but the guard-failure
	// penalty must be charged before the fault.
	_, callErr := ip.CallByName("poly")
	ip.SetTracer(nil)
	if callErr == nil {
		t.Fatal("string+ should fault")
	}
	if rt.GuardFails() == 0 {
		t.Fatal("guard failure not recorded")
	}
}

func TestCodeCacheRegions(t *testing.T) {
	cc := NewCodeCache(CacheConfig{HotCap: 100, ColdCap: 100, ProfileCap: 50, LiveCap: 50, TempCap: 100})
	a1, err := cc.Alloc(RegionHot, 60)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cc.Alloc(RegionHot, 40)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a1+60 {
		t.Fatal("bump allocation broken")
	}
	if _, err := cc.Alloc(RegionHot, 1); err == nil {
		t.Fatal("over-capacity alloc should fail")
	}
	var full *ErrRegionFull
	if _, err := cc.Alloc(RegionHot, 1); err != nil {
		var ok bool
		full, ok = err.(*ErrRegionFull)
		if !ok || full.Region != RegionHot {
			t.Fatalf("error = %v", err)
		}
	}
	if cc.TotalUsed() != 100 {
		t.Fatalf("total = %d", cc.TotalUsed())
	}
	// Temp region excluded from the Figure 1 total.
	if _, err := cc.Alloc(RegionTemp, 80); err != nil {
		t.Fatal(err)
	}
	if cc.TotalUsed() != 100 {
		t.Fatalf("temp counted in total: %d", cc.TotalUsed())
	}
	cc.ReleaseTemp()
	if cc.Used(RegionTemp) != 0 {
		t.Fatal("temp not released")
	}
	if !cc.Full(RegionHot, 1) || cc.Full(RegionCold, 100) {
		t.Fatal("Full() wrong")
	}
}

func TestRelocationMovesToFinalRegions(t *testing.T) {
	w := newWorld(t)
	j := New(w.prog, DefaultOptions(), NewCodeCache(DefaultCacheConfig()))
	p := collectProfile(t, w, j, 5)
	fn, _ := w.prog.FuncByName("cartTotal")
	tr, err := j.CompileOptimized(fn, p)
	if err != nil {
		t.Fatal(err)
	}
	tempBase := regionBase[RegionTemp]
	if tr.BlockAddr[0] < tempBase {
		t.Fatalf("pre-relocation address %#x not in temp region", tr.BlockAddr[0])
	}
	if err := j.RelocateOptimized(map[string]*Translation{"cartTotal": tr}, []string{"cartTotal"}); err != nil {
		t.Fatal(err)
	}
	hotBase := regionBase[RegionHot]
	entry := tr.BlockAddr[tr.MainMap[0]]
	if entry < hotBase || entry >= hotBase+regionStride {
		t.Fatalf("entry %#x not in hot region", entry)
	}
	if tr.ColdSize > 0 {
		coldBlock := tr.Order[len(tr.Order)-1]
		addr := tr.BlockAddr[coldBlock]
		if addr < regionBase[RegionCold] || addr >= regionBase[RegionCold]+regionStride {
			t.Fatalf("cold block %#x not in cold region", addr)
		}
	}
	if j.Active(fn.ID) != tr {
		t.Fatal("relocation must activate the translation")
	}
}

func TestFunctionOrderSeededVsTier1(t *testing.T) {
	w := newWorld(t)
	opts := DefaultOptions()
	opts.UseSeededCallGraph = true
	j := New(w.prog, opts, NewCodeCache(DefaultCacheConfig()))
	p := collectProfile(t, w, j, 10)
	p.CallPairs[prof.CallPair{Caller: "handler", Callee: "cartTotal"}] = 1000
	p.CallPairs[prof.CallPair{Caller: "handler", Callee: "buildCart"}] = 10

	names := p.HotFunctions()
	order := j.FunctionOrder(p, names)
	if len(order) != len(names) {
		t.Fatalf("order = %v", order)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if pos["cartTotal"] != pos["handler"]+1 {
		t.Fatalf("seeded order should chain handler->cartTotal: %v", order)
	}

	// Tier-1 fallback still yields a permutation.
	j2 := New(w.prog, DefaultOptions(), NewCodeCache(DefaultCacheConfig()))
	order2 := j2.FunctionOrder(p, names)
	if len(order2) != len(names) {
		t.Fatalf("order2 = %v", order2)
	}
}

func TestCompileOptimizedRejectsStaleProfile(t *testing.T) {
	w := newWorld(t)
	j := New(w.prog, DefaultOptions(), NewCodeCache(DefaultCacheConfig()))
	p := collectProfile(t, w, j, 3)
	fn, _ := w.prog.FuncByName("handler")
	p.Funcs["handler"].Checksum ^= 1
	if _, err := j.CompileOptimized(fn, p); err == nil ||
		!strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale profile accepted: %v", err)
	}
	if _, err := j.CompileOptimized(fn, prof.NewProfile()); err == nil {
		t.Fatal("missing profile accepted")
	}
}

func TestMicroarchFeedthrough(t *testing.T) {
	w := newWorld(t)
	j := New(w.prog, DefaultOptions(), NewCodeCache(DefaultCacheConfig()))
	p := collectProfile(t, w, j, 5)
	trans := map[string]*Translation{}
	for _, name := range p.HotFunctions() {
		fn, _ := w.prog.FuncByName(name)
		tr, err := j.CompileOptimized(fn, p)
		if err != nil {
			t.Fatal(err)
		}
		trans[name] = tr
	}
	if err := j.RelocateOptimized(trans, nil); err != nil {
		t.Fatal(err)
	}
	mem := microarch.New(microarch.DefaultConfig())
	rt := NewRuntime(j, mem)
	w.ip.SetTracer(rt)
	rt.BeginRequest(true)
	if _, err := w.ip.CallByName("handler", value.Int(20)); err != nil {
		t.Fatal(err)
	}
	w.ip.SetTracer(nil)
	s := mem.Stats()
	if s.Fetches == 0 || s.Branches == 0 || s.DataAccs == 0 {
		t.Fatalf("microarch not fed: %+v", s)
	}
	// Unsampled request leaves stats unchanged.
	before := mem.Stats()
	rtOff := NewRuntime(j, mem)
	w.ip.SetTracer(rtOff)
	rtOff.BeginRequest(false)
	if _, err := w.ip.CallByName("handler", value.Int(20)); err != nil {
		t.Fatal(err)
	}
	w.ip.SetTracer(nil)
	if mem.Stats() != before {
		t.Fatal("unsampled request touched the hierarchy")
	}
}

func TestTierString(t *testing.T) {
	if TierOptimized.String() != "optimized" || TierNone.String() != "none" {
		t.Fatal("tier names")
	}
	if RegionHot.String() != "hot" || RegionTemp.String() != "temp" {
		t.Fatal("region names")
	}
}

// TestCountersOnlyOnInstrumentedTier2 pins where block counters live.
// Tier-1 code pays for its counter instructions but keeps no counters,
// since nothing reads them; the seeder's instrumented tier-2 code keeps
// them for HarvestInto, and plain tier-2 code has none.
func TestCountersOnlyOnInstrumentedTier2(t *testing.T) {
	w := newWorld(t)
	opts := DefaultOptions()
	opts.InstrumentOptimized = true
	j := New(w.prog, opts, NewCodeCache(DefaultCacheConfig()))
	p := collectProfile(t, w, j, 5)

	live := New(w.prog, DefaultOptions(), NewCodeCache(DefaultCacheConfig()))
	for _, fn := range w.prog.Funcs {
		tr := j.Active(fn.ID)
		if tr == nil || tr.Tier != TierProfile {
			t.Fatalf("%s: not in a profiling translation", fn.Name)
		}
		if tr.Counts != nil || tr.Instrumented() {
			t.Fatalf("%s: tier-1 translation carries counters", fn.Name)
		}
		lt, err := live.CompileLive(fn)
		if err != nil {
			t.Fatal(err)
		}
		for bi, vb := range tr.MainMap {
			got, base := tr.CFG.Blocks[vb].NInstrs, lt.CFG.Blocks[lt.MainMap[bi]].NInstrs
			if got < base+vasm.BlockCounterInstrs {
				t.Fatalf("%s block %d: tier-1 has %d instrs, live %d: counter cost missing",
					fn.Name, bi, got, base)
			}
		}
	}
	// A request through tier-1 code allocates no counters either.
	rt := NewRuntime(j, nil)
	w.ip.SetTracer(rt)
	rt.BeginRequest(false)
	if _, err := w.ip.CallByName("handler", value.Int(8)); err != nil {
		t.Fatal(err)
	}
	for _, fn := range w.prog.Funcs {
		if j.Active(fn.ID).Counts != nil {
			t.Fatalf("%s: tier-1 run allocated counters", fn.Name)
		}
	}

	trans := map[string]*Translation{}
	for _, name := range p.HotFunctions() {
		fn, _ := w.prog.FuncByName(name)
		tr, err := j.CompileOptimized(fn, p)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Instrumented() || len(tr.Counts) != len(tr.CFG.Blocks) {
			t.Fatalf("%s: instrumented tier-2 has %d counters for %d blocks",
				name, len(tr.Counts), len(tr.CFG.Blocks))
		}
		trans[name] = tr
	}
	if err := j.RelocateOptimized(trans, nil); err != nil {
		t.Fatal(err)
	}
	rt.BeginRequest(false)
	if _, err := w.ip.CallByName("handler", value.Int(8)); err != nil {
		t.Fatal(err)
	}
	w.ip.SetTracer(nil)
	rt.HarvestInto(p)
	for name := range trans {
		if len(p.Funcs[name].VasmCounts) == 0 {
			t.Fatalf("%s: no tier-2 counters harvested", name)
		}
	}

	plain := New(w.prog, DefaultOptions(), NewCodeCache(DefaultCacheConfig()))
	fn, _ := w.prog.FuncByName("cartTotal")
	tr, err := plain.CompileOptimized(fn, p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Counts != nil {
		t.Fatal("uninstrumented tier-2 translation carries counters")
	}
}
