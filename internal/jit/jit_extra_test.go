package jit

import (
	"testing"

	"jumpstart/internal/value"
)

func TestCompileLiveActivatesAndRuns(t *testing.T) {
	w := newWorld(t)
	j := New(w.prog, DefaultOptions(), NewCodeCache(DefaultCacheConfig()))
	fn, _ := w.prog.FuncByName("handler")
	tr, err := j.CompileLive(fn)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Tier != TierLive {
		t.Fatalf("tier = %v", tr.Tier)
	}
	if j.Active(fn.ID) != tr {
		t.Fatal("live translation not activated")
	}
	// Live code must be cheaper than interpretation.
	rt := NewRuntime(j, nil)
	w.ip.SetTracer(rt)
	rt.BeginRequest(false)
	if _, err := w.ip.CallByName("handler", value.Int(10)); err != nil {
		t.Fatal(err)
	}
	liveCost := rt.TakeCycles()
	j.SetActive(fn.ID, nil)
	rt.BeginRequest(false)
	if _, err := w.ip.CallByName("handler", value.Int(10)); err != nil {
		t.Fatal(err)
	}
	interpCost := rt.TakeCycles()
	w.ip.SetTracer(nil)
	if liveCost >= interpCost {
		t.Fatalf("live (%d) not cheaper than interp (%d)", liveCost, interpCost)
	}
	// Addresses live in the live region.
	addr := tr.BlockAddr[tr.MainMap[0]]
	if addr < regionBase[RegionLive] || addr >= regionBase[RegionLive]+regionStride {
		t.Fatalf("live code at %#x", addr)
	}
}

func TestCompileLiveRegionFull(t *testing.T) {
	w := newWorld(t)
	cfg := DefaultCacheConfig()
	cfg.LiveCap = 64 // absurdly small
	j := New(w.prog, DefaultOptions(), NewCodeCache(cfg))
	fn, _ := w.prog.FuncByName("handler")
	if _, err := j.CompileLive(fn); err == nil {
		t.Fatal("full live region accepted a translation")
	} else if _, ok := err.(*ErrRegionFull); !ok {
		t.Fatalf("err = %T", err)
	}
}

func TestFunctionOrderSortVariants(t *testing.T) {
	w := newWorld(t)
	for _, sortAlgo := range []FunctionSort{SortC3, SortPH, SortNone} {
		opts := DefaultOptions()
		opts.FuncSort = sortAlgo
		j := New(w.prog, opts, NewCodeCache(DefaultCacheConfig()))
		p := collectProfile(t, w, j, 5)
		names := p.HotFunctions()
		order := j.FunctionOrder(p, names)
		if len(order) != len(names) {
			t.Fatalf("%s: order = %d names = %d", sortAlgo, len(order), len(names))
		}
		seen := map[string]bool{}
		for _, n := range order {
			if seen[n] {
				t.Fatalf("%s: duplicate %s", sortAlgo, n)
			}
			seen[n] = true
		}
		if sortAlgo == SortNone {
			for i := range names {
				if order[i] != names[i] {
					t.Fatalf("SortNone must preserve input order")
				}
			}
		}
	}
}

func TestRelocateSkipsUnknownNamesInOrder(t *testing.T) {
	w := newWorld(t)
	j := New(w.prog, DefaultOptions(), NewCodeCache(DefaultCacheConfig()))
	p := collectProfile(t, w, j, 5)
	fn, _ := w.prog.FuncByName("cartTotal")
	tr, err := j.CompileOptimized(fn, p)
	if err != nil {
		t.Fatal(err)
	}
	trans := map[string]*Translation{"cartTotal": tr}
	// A stale function order naming dropped functions must not break
	// relocation, and unnamed translations still get placed.
	err = j.RelocateOptimized(trans, []string{"ghost1", "cartTotal", "ghost2"})
	if err != nil {
		t.Fatal(err)
	}
	if j.Active(fn.ID) != tr {
		t.Fatal("translation not activated")
	}
}

func TestGuardFailureViaPolymorphicInlineSite(t *testing.T) {
	// A call site inlined for one target must charge a guard failure
	// (and still execute correctly) when another target shows up.
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
	rt := NewRuntime(j, nil)
	w.ip.SetTracer(rt)
	rt.BeginRequest(false)
	v, err := w.ip.CallByName("handler", value.Int(6))
	w.ip.SetTracer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.IsNull() {
		t.Fatal("wrong result")
	}
}

// TestEpochMovesOnlyWithRunningCode pins what Epoch and ChangedAt
// mean: one tick per change of some function's active translation,
// stamped on that function; code nobody runs moves nothing.
func TestEpochMovesOnlyWithRunningCode(t *testing.T) {
	w := newWorld(t)
	cfg := DefaultCacheConfig()
	cfg.LiveCap = 64 // too small for any live translation
	j := New(w.prog, DefaultOptions(), NewCodeCache(cfg))
	p := collectProfile(t, w, j, 5) // tier-1 compiles every function
	n := uint64(len(w.prog.Funcs))
	if j.Epoch() != n {
		t.Fatalf("epoch %d after %d tier-1 activations", j.Epoch(), n)
	}
	handler, _ := w.prog.FuncByName("handler")
	total, _ := w.prog.FuncByName("cartTotal")

	if _, err := j.CompileLive(handler); err == nil {
		t.Fatal("live compile fit a 64-byte region")
	}
	trans := map[string]*Translation{}
	for _, name := range []string{"handler", "cartTotal"} {
		fn, _ := w.prog.FuncByName(name)
		tr, err := j.CompileOptimized(fn, p)
		if err != nil {
			t.Fatal(err)
		}
		trans[name] = tr
	}
	if j.Epoch() != n {
		t.Fatalf("epoch moved to %d on a failed placement and two temp compiles", j.Epoch())
	}

	if err := j.RelocateOptimized(trans, []string{"cartTotal", "handler"}); err != nil {
		t.Fatal(err)
	}
	if j.Epoch() != n+2 || j.ChangedAt(total.ID) != n+1 || j.ChangedAt(handler.ID) != n+2 {
		t.Fatalf("after relocating two functions: epoch %d, cartTotal stamped %d, handler %d",
			j.Epoch(), j.ChangedAt(total.ID), j.ChangedAt(handler.ID))
	}
	for _, fn := range w.prog.Funcs {
		if fn != handler && fn != total && j.ChangedAt(fn.ID) > n {
			t.Fatalf("%s stamped %d by a relocation that did not touch it", fn.Name, j.ChangedAt(fn.ID))
		}
	}
	j.SetActive(total.ID, nil)
	if j.Epoch() != n+3 || j.ChangedAt(total.ID) != n+3 {
		t.Fatalf("SetActive: epoch %d, stamp %d", j.Epoch(), j.ChangedAt(total.ID))
	}
}
