package replay

import (
	"testing"

	"jumpstart/internal/bytecode"
	"jumpstart/internal/hackc"
	"jumpstart/internal/interp"
	"jumpstart/internal/jit"
	"jumpstart/internal/microarch"
	"jumpstart/internal/object"
	"jumpstart/internal/prof"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/value"
)

// The tiny program: handler makes two memoizable direct calls, mid(n)
// — whose subtree also enters leaf — and other(n), whose subtree
// enters nothing else. other is long enough to span several cache
// lines, so replaying it at a stale address shows in the miss counts.
const tinySrc = `
fun leaf(x) { return x * 2 + 1; }
fun other(x) {
  a = x + 7; b = a * 3 + x; c = b * b + a; d = c % 1000 + b;
  e = d * 5 + c; f = e % 777 + d; g = f * f + e; h = g % 999 + f;
  return a + b + c + d + e + f + g + h;
}
fun mid(x) { return leaf(x) + leaf(x + 1); }
fun handler(n) { return mid(n) + other(n); }`

// enterHook lets a test act on a function's activation before the
// runtime sees it, the way the server's tracer compiles on a trigger.
// Every other event goes straight to the embedded runtime.
type enterHook struct {
	*jit.Runtime
	fire func(fn *bytecode.Function)
}

func (h *enterHook) OnEnter(fn *bytecode.Function) {
	if h.fire != nil {
		h.fire(fn)
	}
	h.Runtime.OnEnter(fn)
}

// stack is one simulated VM: interpreter, JIT, cost runtime, memory
// hierarchy and (on the memoized side only) a replay cache.
type stack struct {
	prog  *bytecode.Program
	heap  *object.Heap
	ip    *interp.Interp
	j     *jit.JIT
	rt    *jit.Runtime
	mem   *microarch.Hierarchy
	hook  *enterHook
	cache *Cache
}

func (s *stack) fn(t *testing.T, name string) *bytecode.Function {
	t.Helper()
	fn, ok := s.prog.FuncByName(name)
	if !ok {
		t.Fatalf("no function %q", name)
	}
	return fn
}

func newStack(t *testing.T, cc jit.CacheConfig, memo *Config) *stack {
	t.Helper()
	prog, err := hackc.CompileSources(
		map[string]string{"tiny.mh": tinySrc}, []string{"tiny.mh"}, hackc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := object.NewRegistry(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &stack{prog: prog, heap: reg.Heap()}
	s.mem = microarch.New(microarch.DefaultConfig())
	s.j = jit.New(prog, jit.DefaultOptions(), jit.NewCodeCache(cc))
	s.rt = jit.NewRuntime(s.j, s.mem)
	s.hook = &enterHook{Runtime: s.rt}
	s.ip = interp.New(prog, reg, interp.Config{Tracer: s.hook})
	if memo != nil {
		cfg := *memo
		cfg.JIT, cfg.Runtime, cfg.Heap, cfg.Mem = s.j, s.rt, s.heap, s.mem
		cfg.NumFuncs = len(prog.Funcs)
		if cfg.CanReplay == nil {
			cfg.CanReplay = func([]FnCount) bool { return true }
		}
		s.cache = NewCache(cfg)
		s.ip.SetMemoizer(s.cache)
	}
	return s
}

// twin runs every request on a memoized stack and on a plain one and
// requires the two to stay indistinguishable, so each rule below is
// also checked for what it must never do: change what is simulated.
type twin struct {
	t       *testing.T
	on, off *stack
}

func newTwin(t *testing.T, cc jit.CacheConfig, memo Config) *twin {
	return &twin{t: t, on: newStack(t, cc, &memo), off: newStack(t, cc, nil)}
}

// each applies the same JIT operation to both sides.
func (tw *twin) each(op func(s *stack)) {
	op(tw.on)
	op(tw.off)
}

// request serves handler(n) on both sides and returns the memoized
// side's hit count for it.
func (tw *twin) request(n int64, micro bool) (hits uint64) {
	tw.t.Helper()
	type outcome struct {
		ret    value.Value
		cycles uint64
		guards uint64
		heap   uint64
		mem    microarch.Stats
	}
	run := func(s *stack) outcome {
		s.rt.BeginRequest(micro)
		ret, err := s.ip.CallByName("handler", value.Int(n))
		if err != nil {
			tw.t.Fatal(err)
		}
		return outcome{ret, s.rt.TakeCycles(), s.rt.GuardFails(), s.heap.Next(), s.mem.Stats()}
	}
	before := tw.on.cache.Hits()
	on, off := run(tw.on), run(tw.off)
	if on != off {
		tw.t.Fatalf("handler(%d) diverged:\n on: %+v\noff: %+v", n, on, off)
	}
	return tw.on.cache.Hits() - before
}

func roomy() jit.CacheConfig { return jit.DefaultCacheConfig() }

// checkInstruments requires the telemetry view of the cache to agree
// with the cache itself, whichever path last deleted an entry.
func checkInstruments(t *testing.T, tel *telemetry.Set, c *Cache) {
	t.Helper()
	if got := tel.Gauge("replay.entries").Value(); got != float64(c.Entries()) {
		t.Fatalf("replay.entries gauge %v, cache holds %d", got, c.Entries())
	}
	if got := tel.Counter("replay.stale_total").Value(); got != c.Stale() {
		t.Fatalf("replay.stale_total %d, cache dropped %d", got, c.Stale())
	}
	if got := tel.Counter("replay.hits_total").Value(); got != c.Hits() {
		t.Fatalf("replay.hits_total %d, cache hit %d", got, c.Hits())
	}
}

// TestEntryDiesWithAFunctionItEntered: mid(n)'s entry entered leaf, so
// a live compile of leaf — and later its deactivation — makes it miss
// once and be recaptured; other(n)'s entry entered neither and hits
// straight through both.
func TestEntryDiesWithAFunctionItEntered(t *testing.T) {
	tel := telemetry.NewSet()
	tw := newTwin(t, roomy(), Config{Tel: tel})
	c := tw.on.cache
	if hits := tw.request(3, false); hits != 0 {
		t.Fatalf("cold request hit %d times", hits)
	}
	if hits := tw.request(3, false); hits != 2 {
		t.Fatalf("warm request: %d hits, want mid and other", hits)
	}
	changes := []func(s *stack){
		func(s *stack) {
			if _, err := s.j.CompileLive(s.fn(t, "leaf")); err != nil {
				t.Fatal(err)
			}
		},
		func(s *stack) { s.j.SetActive(s.fn(t, "leaf").ID, nil) },
	}
	for i, change := range changes {
		tw.each(change)
		if hits := tw.request(3, false); hits != 1 {
			t.Fatalf("change %d: %d hits, want other(n) only", i, hits)
		}
		if got := c.Stale(); got != uint64(i+1) {
			t.Fatalf("change %d: %d stale drops, want %d", i, got, i+1)
		}
		checkInstruments(t, tel, c)
		if hits := tw.request(3, false); hits != 2 {
			t.Fatalf("change %d: mid(n) was not recaptured (%d hits)", i, hits)
		}
	}
	if c.Entries() != 2 {
		t.Fatalf("%d entries, want 2", c.Entries())
	}
}

// optimize profiles the tiny program and installs tier-2 translations
// for all of it, after which handler's call sites carry inline
// decisions and so a non-zero call context. It returns the profile.
func optimize(t *testing.T, s *stack) *prof.Profile {
	t.Helper()
	for _, fn := range s.prog.Funcs {
		if _, err := s.j.CompileProfiling(fn); err != nil {
			t.Fatal(err)
		}
	}
	col := prof.NewCollector(s.prog)
	s.ip.SetTracer(col)
	memo := s.cache
	s.ip.SetMemoizer(nil)
	for i := 0; i < 8; i++ {
		col.BeginRequest()
		if _, err := s.ip.CallByName("handler", value.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.ip.SetTracer(s.hook)
	if memo != nil {
		s.ip.SetMemoizer(memo)
	}
	p := col.Snapshot(prof.Meta{Revision: 1})
	trans := map[string]*jit.Translation{}
	for _, name := range p.HotFunctions() {
		tr, err := s.j.CompileOptimized(s.fn(t, name), p)
		if err != nil {
			t.Fatal(err)
		}
		trans[name] = tr
	}
	if err := s.j.RelocateOptimized(trans, s.j.FunctionOrder(p, p.HotFunctions())); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCallerIsADependencyUnderACallContext: with handler optimized,
// its callees are inlined at their sites, so their entries are charged
// through handler's translation although their subtrees never enter
// handler. Recompiling handler alone moves the inlined bodies to new
// addresses under an unchanged key, and must stale exactly those
// entries (the twin's fetch statistics diverge if one replays).
func TestCallerIsADependencyUnderACallContext(t *testing.T) {
	tw := newTwin(t, roomy(), Config{})
	profiles := map[*stack]*prof.Profile{}
	tw.each(func(s *stack) { profiles[s] = optimize(t, s) })
	c := tw.on.cache
	handler := tw.on.fn(t, "handler")
	if len(tw.on.j.Active(handler.ID).Inlines) == 0 {
		t.Fatal("handler has no inlined call site; the test is vacuous")
	}
	tw.request(3, true)
	if hits := tw.request(3, true); hits == 0 {
		t.Fatal("no hit under a call context")
	}
	viaCaller := 0
	for _, e := range c.entries {
		if e.ViaCaller {
			viaCaller++
			if e.Caller != handler.ID {
				t.Fatalf("caller dependency is %d, want handler", e.Caller)
			}
			for _, en := range e.Enters {
				if en.ID == handler.ID {
					t.Fatal("subtree enters handler; the caller rule is not isolated")
				}
			}
		}
	}
	if viaCaller == 0 {
		t.Fatal("no entry was captured under a non-zero call context")
	}
	warm := tw.request(3, true)
	tw.each(func(s *stack) {
		tr, err := s.j.CompileOptimized(s.fn(t, handler.Name), profiles[s])
		if err != nil {
			t.Fatal(err)
		}
		err = s.j.RelocateOptimized(
			map[string]*jit.Translation{handler.Name: tr}, []string{handler.Name})
		if err != nil {
			t.Fatal(err)
		}
	})
	if hits := tw.request(3, true); hits != warm-uint64(viaCaller) {
		t.Fatalf("after recompiling the caller: %d hits, want %d", hits, warm-uint64(viaCaller))
	}
	if got := c.Stale(); got != uint64(viaCaller) {
		t.Fatalf("%d stale drops, want %d", got, viaCaller)
	}
	if hits := tw.request(3, true); hits != warm {
		t.Fatalf("not recaptured: %d hits, want %d", hits, warm)
	}
}

// TestCodeNobodyRunsInvalidatesNothing: a tier-2 compile parked in the
// temp region and a live compile refused by a full region leave every
// active translation as it was, so the epoch stands still and every
// entry keeps hitting.
func TestCodeNobodyRunsInvalidatesNothing(t *testing.T) {
	cc := jit.DefaultCacheConfig()
	cc.LiveCap = 0
	tw := newTwin(t, cc, Config{})
	tw.request(3, false)
	tw.request(4, false)
	// A profile for the temp compile, from a throwaway stack so the
	// twin's own translations stay untouched.
	p := optimize(t, newStack(t, roomy(), nil))

	epoch := tw.on.j.Epoch()
	tw.each(func(s *stack) {
		if _, err := s.j.CompileLive(s.fn(t, "leaf")); err == nil {
			t.Fatal("live compile fit a zero-byte region")
		}
		if _, err := s.j.CompileOptimized(s.fn(t, "leaf"), p); err != nil {
			t.Fatal(err)
		}
		if s.j.Active(s.fn(t, "leaf").ID) != nil {
			t.Fatal("a temp placement became active")
		}
	})
	if got := tw.on.j.Epoch(); got != epoch {
		t.Fatalf("epoch moved %d -> %d with no running code changed", epoch, got)
	}
	if hits := tw.request(3, false) + tw.request(4, false); hits != 4 {
		t.Fatalf("%d hits, want all 4", hits)
	}
	if got := tw.on.cache.Stale(); got != 0 {
		t.Fatalf("%d stale drops", got)
	}
}

// TestEpochMovedMidCaptureDiscards: a compile inside the captured
// subtree means part of it ran on code that is no longer active. The
// hook charges nothing, so only the epoch guard can catch it.
func TestEpochMovedMidCaptureDiscards(t *testing.T) {
	tw := newTwin(t, roomy(), Config{})
	tw.each(func(s *stack) {
		leaf := s.fn(t, "leaf")
		calls := 0
		s.hook.fire = func(fn *bytecode.Function) {
			if fn != leaf {
				return
			}
			// leaf's second activation — inside mid's subtree, after
			// its first ran interpreted — compiles it.
			if calls++; calls == 2 {
				if _, err := s.j.CompileLive(leaf); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	tw.request(3, false)
	if got := tw.on.cache.Entries(); got != 1 {
		t.Fatalf("%d entries, want other(n) only: mid(n) straddled a compile", got)
	}
	// Recaptured cleanly on the next request, and then it hits.
	tw.request(3, false)
	if hits := tw.request(3, false); hits != 2 {
		t.Fatalf("%d hits after a clean recapture, want 2", hits)
	}
}

// TestFullCacheRefreshesAnExistingKey: entries captured on an
// unsampled request carry no event stream; a sampled request must be
// able to recapture them in place even when the cache has no room for
// a new key, and the replaced entry's events must be given back before
// the event budget is tested.
func TestFullCacheRefreshesAnExistingKey(t *testing.T) {
	// Translated code, so that sampled captures record fetch events.
	live := func(s *stack) {
		for _, fn := range s.prog.Funcs {
			if _, err := s.j.CompileLive(fn); err != nil {
				t.Fatal(err)
			}
		}
	}
	tw := newTwin(t, roomy(), Config{MaxEntries: 2})
	tw.each(live)
	c := tw.on.cache
	tw.request(3, false)
	if c.Entries() != 2 {
		t.Fatalf("%d entries, want a full cache of 2", c.Entries())
	}
	tw.request(3, true) // misses for want of events, recaptures
	if hits := tw.request(3, true); hits != 2 {
		t.Fatalf("sampled request: %d hits; a full cache refused the refresh", hits)
	}
	if hits := tw.request(4, true); hits != 0 || c.Entries() != 2 {
		t.Fatalf("new keys in a full cache: %d hits, %d entries", hits, c.Entries())
	}

	// Same again with the event budget exactly used up: replacing an
	// entry by one of the same size fits.
	if c.totalEvents == 0 {
		t.Fatal("sampled captures recorded no events")
	}
	tight := newTwin(t, roomy(), Config{MaxEvents: c.totalEvents})
	tight.each(live)
	tight.request(3, true)
	if got := tight.on.cache.totalEvents; got != c.totalEvents {
		t.Fatalf("%d events, want the budget of %d used up", got, c.totalEvents)
	}
	for _, e := range tight.on.cache.entries {
		e.HasEvents = false // as if captured unsampled: forces a refresh
	}
	tight.request(3, true)
	if hits := tight.request(3, true); hits != 2 {
		t.Fatalf("%d hits; a same-size replacement was refused", hits)
	}
	if got := tight.on.cache.totalEvents; got != c.totalEvents {
		t.Fatalf("event accounting drifted: %d, want %d", got, c.totalEvents)
	}
}

// TestCacheRefillsAfterBulkRelocation: point C re-homes every function
// at once. The stale entries' keys may never be looked up again, so
// they must not pin the capacity: the next capture that finds the
// cache full sweeps them, once.
func TestCacheRefillsAfterBulkRelocation(t *testing.T) {
	tel := telemetry.NewSet()
	tw := newTwin(t, roomy(), Config{MaxEntries: 4, Tel: tel})
	c := tw.on.cache
	tw.request(1, false)
	tw.request(2, false)
	if c.Entries() != 4 {
		t.Fatalf("%d entries, want a full cache of 4", c.Entries())
	}
	tw.request(5, false)
	if c.Entries() != 4 || c.Stale() != 0 {
		t.Fatalf("a full cache of live entries changed: %d entries, %d stale",
			c.Entries(), c.Stale())
	}
	tw.each(func(s *stack) { optimize(t, s) })
	tw.request(5, false)
	tw.request(6, false)
	if c.Stale() != 4 {
		t.Fatalf("%d stale drops, want the 4 pre-relocation entries", c.Stale())
	}
	if c.Entries() != 4 {
		t.Fatalf("%d entries, want the cache refilled to 4", c.Entries())
	}
	if hits := tw.request(5, false) + tw.request(6, false); hits == 0 {
		t.Fatal("refilled entries never hit")
	}
	checkInstruments(t, tel, c)
}
