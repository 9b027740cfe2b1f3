// Package replay memoizes translation execution. The first time a
// direct call executes with a given (callee, caller-context, argument)
// signature, the cycle charges, guard failures, allocation effects and
// micro-architectural event stream of the whole call subtree are
// captured into a compact entry; later calls with the same signature
// replay the entry — recharging the same cycles to the same telemetry
// buckets and feeding the same fetch/data/branch stream through
// internal/microarch — instead of re-interpreting the bytecode. This
// is the simulator-level analogue of what Jump-Start itself does:
// stop re-deriving state that is known to be identical.
//
// Correctness contract: a replayed call is byte-identical to real
// execution — same cycles per bucket, same microarch state evolution,
// same heap watermark and object ids afterwards, same fuel and guard
// accounting, same return value. An entry is stamped with the JIT
// epoch it was captured under and is dropped at lookup once the active
// translation of any function it depends on has changed since (see
// Cache.stale), so stale translations can never replay while entries
// that a compile did not touch keep hitting. Captures that observe
// anything unreplayable — a unit load, a compile, a write to the
// seeder's instrumented tier-2 counters, a fault, a non-immediate
// return — are discarded. Tier-1 code keeps no counters, so a cold
// server's captures replay through the optimizing window (profiling
// stopped, tier-1 code still running while tier-2 compiles); only the
// profiling window itself runs without the memoizer, because the
// collector must see every execution.
//
// Capacity is bounded and nothing is evicted, so what the cache holds
// is decided at admission: once it is ¾ full, a new key is captured
// only on its second miss, and the last quarter goes to calls that
// recur rather than to whichever calls came first.
package replay

import (
	"jumpstart/internal/bytecode"
	"jumpstart/internal/jit"
	"jumpstart/internal/microarch"
	"jumpstart/internal/object"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/value"
)

// FnCount is one function's activation count within a captured call
// subtree. Replays bump the server's per-function call counters by
// these amounts so JIT trigger thresholds fire on the same request
// they would under real execution.
type FnCount struct {
	ID    bytecode.FuncID
	Count uint32
}

// Entry is one captured call subtree.
type Entry struct {
	// Ret is the immediate return value (arrays/objects are never
	// captured).
	Ret value.Value
	// Steps is the interpreter fuel the subtree consumed.
	Steps int64
	// MaxDepth is the deepest call nesting relative to the call site.
	MaxDepth int
	// Buckets holds the base cycle charges per telemetry bucket
	// (everything except micro-architectural penalties, which depend on
	// live cache state and are recomputed from Events).
	Buckets [telemetry.NumCycleBuckets]uint64
	// GuardFails is the number of failed guards charged.
	GuardFails uint64
	// Events is the recorded fetch/data/branch stream. Data addresses
	// are relative to the heap watermark at capture start. Empty when
	// the capture ran on an unsampled (non-micro) request.
	Events []microarch.Access
	// HasEvents distinguishes "captured without micro sampling" from
	// "captured with micro sampling but no events occurred".
	HasEvents bool
	// AllocBytes/AllocObjects advance the heap on replay so later
	// allocations get the addresses real execution would have produced.
	AllocBytes   uint64
	AllocObjects uint64
	// Enters lists every function activated in the subtree. Together
	// with Caller these are the entry's dependencies: the functions
	// whose translations its charges and addresses were read from.
	Enters []FnCount
	// Epoch is the JIT epoch the whole capture ran under.
	Epoch uint64
	// Caller is the calling function when the key's call context is
	// non-zero (ViaCaller): an inlined callee runs blocks of the
	// caller's translation and a devirtualized one is charged by its
	// guard, so the entry is only as good as that translation. Under a
	// zero context nothing in the subtree reads the caller's code.
	Caller    bytecode.FuncID
	ViaCaller bool
}

// key identifies a memoizable call: the callee, the caller-side
// dispatch context (non-zero only when the caller's optimized
// translation has an inline/devirt decision at the site), and up to
// two immediate argument values.
type key struct {
	fn     bytecode.FuncID
	ctx    uint64
	nargs  uint8
	k0, k1 value.Kind
	n0, n1 uint64
	s0, s1 string
}

// Config wires a Cache to one server's components.
type Config struct {
	JIT     *jit.JIT
	Runtime *jit.Runtime
	Heap    *object.Heap
	// Mem receives replayed event streams. May be nil only if micro
	// sampling never happens.
	Mem *microarch.Hierarchy
	// NumFuncs sizes the recorder's per-function counters.
	NumFuncs int
	// CanReplay checks — and on success applies — the per-function call
	// count bumps for a prospective replay. It must return false
	// without side effects if any bump would cross a JIT trigger
	// threshold (the real execution would compile, which a replay
	// cannot reproduce).
	CanReplay func(enters []FnCount) bool
	// Tel optionally observes the cache (hit/miss counters, entry
	// gauge). Zero-perturbation: simulation output is identical with or
	// without it.
	Tel *telemetry.Set
	// MaxEntries bounds the entry map; 0 means DefaultMaxEntries.
	MaxEntries int
	// MaxEvents bounds total recorded events; 0 means DefaultMaxEvents.
	MaxEvents int
}

// Cache capacity defaults. There is no eviction: correctness never
// depends on hit rate, so a cache full of live entries refuses new
// keys, and what it holds is decided at admission instead. Below
// gatedNum/gatedDen of MaxEntries a new key is captured on its first
// miss; from there on only on a miss after its doorkeeper bit was
// already set, so one-shot calls no longer take the last slots from
// calls that recur. A key the cache holds is refreshed ungated, and a
// stale-dropped key passes at once, its bit set when it was first
// captured. The values are sized to the repo benchmark's peak-RSS
// bound (DESIGN §5d): entries outlive the compiles that do not touch
// them, so the cache does fill. Only every MicroSampleEvery-th request
// records events, and an entry without them still replays the
// unsampled requests from its base charges, so the event budget can be
// small without costing hits.
const (
	DefaultMaxEntries = 1 << 12
	DefaultMaxEvents  = 64 << 10

	gatedNum, gatedDen = 3, 4
)

// doorBits sizes the doorkeeper: one bit per key hash, 16 KB per
// cache, never reset.
const doorBits = 17

// Cache is one server's replay memoizer. It implements
// interp.Memoizer. Not safe for concurrent use — like the rest of a
// simulated server, it is single-threaded.
type Cache struct {
	cfg Config

	entries     map[key]*Entry
	totalEvents int
	swept       uint64 // JIT epoch of the last full-cache sweep

	// The doorkeeper's bits, indexed by seen's hash.
	door [1 << doorBits / 64]uint64

	// The capture in flight: its key, and the call site's function,
	// which is a dependency iff the call context is non-zero.
	rec          recorder
	capturing    bool
	curKey       key
	curCaller    bytecode.FuncID
	curViaCaller bool

	localHits, localMisses, localStale uint64
	cHits, cMisses, cStale             *telemetry.Counter
	gEntries                           *telemetry.Gauge
}

// NewCache builds a replay cache for one server.
func NewCache(cfg Config) *Cache {
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	c := &Cache{
		cfg:     cfg,
		entries: make(map[key]*Entry),
	}
	c.rec.counts = make([]uint32, cfg.NumFuncs)
	c.cHits = cfg.Tel.Counter("replay.hits_total")
	c.cMisses = cfg.Tel.Counter("replay.misses_total")
	c.cStale = cfg.Tel.Counter("replay.stale_total")
	c.gEntries = cfg.Tel.Gauge("replay.entries")
	return c
}

// Hits returns the number of replayed calls.
func (c *Cache) Hits() uint64 { return c.localHits }

// Misses returns the number of lookups that had to execute for real.
func (c *Cache) Misses() uint64 { return c.localMisses }

// Stale returns the number of entries dropped because a function they
// depended on changed translation after they were captured.
func (c *Cache) Stale() uint64 { return c.localStale }

// Entries returns the live entry count.
func (c *Cache) Entries() int { return len(c.entries) }

// stale reports whether some function e depends on has changed its
// active translation since e was captured.
func (c *Cache) stale(e *Entry) bool {
	j := c.cfg.JIT
	if e.ViaCaller && j.ChangedAt(e.Caller) > e.Epoch {
		return true
	}
	for _, en := range e.Enters {
		if j.ChangedAt(en.ID) > e.Epoch {
			return true
		}
	}
	return false
}

// dropStale deletes a stale entry, returning its capacity.
func (c *Cache) dropStale(k key, e *Entry) {
	delete(c.entries, k)
	c.totalEvents -= len(e.Events)
	c.localStale++
	c.cStale.Inc()
	c.gEntries.Set(float64(len(c.entries)))
}

// full reports whether a new key has no room.
func (c *Cache) full() bool {
	return len(c.entries) >= c.cfg.MaxEntries || c.totalEvents >= c.cfg.MaxEvents
}

// sweep drops every stale entry, at most once per JIT epoch: a key
// that is never looked up again would otherwise pin its capacity for
// good, and point C of a cold boot stales nearly the whole cache at
// once. Which entries go does not depend on map order.
func (c *Cache) sweep() {
	epoch := c.cfg.JIT.Epoch()
	if epoch == c.swept {
		return
	}
	c.swept = epoch
	for k, e := range c.entries {
		if c.stale(e) {
			c.dropStale(k, e)
		}
	}
}

// seen sets k's doorkeeper bit and reports whether it was already
// set. The hash is FNV-1a over the key's fields and string bytes: a
// fixed function, so hit counts do not vary from run to run.
func (c *Cache) seen(k *key) bool {
	h := uint64(14695981039346656037)
	h = fnvWord(h, uint64(k.fn))
	h = fnvWord(h, k.ctx)
	h = fnvWord(h, uint64(k.nargs)|uint64(k.k0)<<8|uint64(k.k1)<<16)
	h = fnvWord(h, k.n0)
	h = fnvWord(h, k.n1)
	h = fnvString(h, k.s0)
	h = fnvWord(h, uint64(len(k.s0))) // separates s0 from s1
	h = fnvString(h, k.s1)
	bit := h >> (64 - doorBits)
	w, m := &c.door[bit/64], uint64(1)<<(bit%64)
	was := *w&m != 0
	*w |= m
	return was
}

const fnvPrime = 1099511628211

// fnvWord feeds w's eight bytes, low first, to FNV-1a state h.
func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ (w >> i & 0xff)) * fnvPrime
	}
	return h
}

// fnvString feeds s's bytes to FNV-1a state h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// makeKey builds the lookup key, rejecting calls whose arguments
// cannot be value-compared (arrays, objects) or are too many.
func (c *Cache) makeKey(callee *bytecode.Function, ctx uint64, args []value.Value) (key, bool) {
	if len(args) > 2 {
		return key{}, false
	}
	k := key{fn: callee.ID, ctx: ctx, nargs: uint8(len(args))}
	for i, a := range args {
		kind := a.Kind()
		var num uint64
		var str string
		switch kind {
		case value.KindNull:
		case value.KindBool:
			if a.AsBool() {
				num = 1
			}
		case value.KindInt:
			num = uint64(a.AsInt())
		case value.KindFloat:
			num = uint64(a.AsInt()) // raw payload bits
		case value.KindStr:
			str = a.AsStr()
		default:
			return key{}, false
		}
		if i == 0 {
			k.k0, k.n0, k.s0 = kind, num, str
		} else {
			k.k1, k.n1, k.s1 = kind, num, str
		}
	}
	return k, true
}

// miss counts a failed lookup.
func (c *Cache) miss() (value.Value, int64, bool) {
	c.localMisses++
	c.cMisses.Inc()
	return value.Null, 0, false
}

// TryReplay implements interp.Memoizer: if an entry matches the call
// and every precondition for a faithful replay holds, it applies the
// entry's effects (cycles, events, guards, heap advance, call-counter
// bumps) and returns the recorded result.
func (c *Cache) TryReplay(caller, callee *bytecode.Function, pc int,
	args []value.Value, fuelLeft int64, depthRoom int) (value.Value, int64, bool) {
	if c.capturing {
		// Nested calls inside a capture must execute for real so the
		// recorder sees their charges. Not counted as a miss.
		return value.Null, 0, false
	}
	rt := c.cfg.Runtime
	k, ok := c.makeKey(callee, rt.CallContext(pc), args)
	if !ok {
		return c.miss()
	}
	e := c.entries[k]
	if e == nil {
		return c.miss()
	}
	if c.stale(e) {
		c.dropStale(k, e)
		return c.miss()
	}
	micro := rt.MicroOn()
	if micro && !e.HasEvents {
		// Entry was captured without micro sampling; recapture so the
		// event stream exists.
		return c.miss()
	}
	if e.Steps > fuelLeft || e.MaxDepth > depthRoom {
		// Real execution would fault (fuel/stack) partway through;
		// replay cannot reproduce that, so let it happen for real.
		return c.miss()
	}
	if !c.cfg.CanReplay(e.Enters) {
		// A call-count bump would cross a JIT trigger: the real
		// execution compiles mid-request. Execute it for real (the
		// compile stamps the function, which stales this entry).
		return c.miss()
	}
	// Committed. Feed the recorded event stream through the live
	// hierarchy first (data addresses rebase onto the current heap
	// watermark), then charge base cycles per bucket.
	if micro && len(e.Events) > 0 {
		fetch, data, branch := c.cfg.Mem.Stream(e.Events, c.cfg.Heap.Next())
		rt.ReplayCharge(telemetry.CycleIFetch, fetch)
		rt.ReplayCharge(telemetry.CycleData, data)
		rt.ReplayCharge(telemetry.CycleBranch, branch)
	}
	for b, cyc := range e.Buckets {
		if cyc != 0 {
			rt.ReplayCharge(telemetry.CycleBucket(b), cyc)
		}
	}
	if e.GuardFails != 0 {
		rt.AddGuardFails(e.GuardFails)
	}
	c.cfg.Heap.AdvanceBy(e.AllocBytes, e.AllocObjects)
	c.localHits++
	c.cHits.Inc()
	return e.Ret, e.Steps, true
}

// BeginCapture implements interp.Memoizer: arm the recorder for an
// eligible call. The interpreter calls it only after TryReplay missed,
// and calls EndCapture exactly once if this returns true.
func (c *Cache) BeginCapture(caller, callee *bytecode.Function, pc int,
	args []value.Value) bool {
	if c.capturing {
		return false
	}
	rt := c.cfg.Runtime
	ctx := rt.CallContext(pc)
	k, ok := c.makeKey(callee, ctx, args)
	if !ok {
		return false
	}
	// A key already present is a refresh (its entry lacks the event
	// stream this request needs) and takes no new slot.
	if c.entries[k] == nil {
		seen := c.seen(&k)
		if c.full() {
			if c.sweep(); c.full() {
				return false
			}
		}
		if !seen && len(c.entries)*gatedDen >= c.cfg.MaxEntries*gatedNum {
			return false
		}
	}
	c.curKey = k
	c.curCaller, c.curViaCaller = caller.ID, ctx != 0
	c.capturing = true
	c.rec.reset(c.cfg.Heap.Next(), c.cfg.Heap.Allocations(), c.cfg.JIT.Epoch(), rt.MicroOn())
	rt.SetRecorder(&c.rec)
	return true
}

// EndCapture implements interp.Memoizer: finish the capture begun by
// the matching BeginCapture, storing the entry if the execution was
// clean.
func (c *Cache) EndCapture(steps int64, ret value.Value, err error) {
	c.cfg.Runtime.SetRecorder(nil)
	c.capturing = false
	r := &c.rec
	if err != nil || r.dirty || r.depth != 0 {
		return
	}
	if c.cfg.JIT.Epoch() != r.epoch0 {
		return
	}
	switch ret.Kind() {
	case value.KindArr, value.KindObj:
		return
	}
	events := c.totalEvents + len(r.events)
	if old := c.entries[c.curKey]; old != nil {
		events -= len(old.Events)
	}
	if events > c.cfg.MaxEvents {
		return
	}
	e := &Entry{
		Ret:          ret,
		Steps:        steps,
		MaxDepth:     r.maxDepth,
		Buckets:      r.buckets,
		GuardFails:   r.guardFails,
		HasEvents:    r.micro,
		AllocBytes:   c.cfg.Heap.Next() - r.heapBase,
		AllocObjects: c.cfg.Heap.Allocations() - r.objects0,
		Enters:       make([]FnCount, 0, len(r.touched)),
		Epoch:        r.epoch0,
		Caller:       c.curCaller,
		ViaCaller:    c.curViaCaller,
	}
	if len(r.events) > 0 {
		e.Events = append([]microarch.Access(nil), r.events...)
	}
	for _, id := range r.touched {
		e.Enters = append(e.Enters, FnCount{ID: id, Count: r.counts[id]})
	}
	c.entries[c.curKey] = e
	c.totalEvents = events
	c.gEntries.Set(float64(len(c.entries)))
}

// recorder implements jit.Recorder: it mirrors the runtime's charge
// stream into a pending Entry. One recorder per cache, reused across
// captures.
type recorder struct {
	micro    bool
	heapBase uint64
	objects0 uint64
	epoch0   uint64
	dirty    bool

	depth, maxDepth int

	events     []microarch.Access
	buckets    [telemetry.NumCycleBuckets]uint64
	guardFails uint64

	counts  []uint32 // per-FuncID activation counts
	touched []bytecode.FuncID
}

var _ jit.Recorder = (*recorder)(nil)

func (r *recorder) reset(heapBase, objects0, epoch uint64, micro bool) {
	r.micro = micro
	r.heapBase = heapBase
	r.objects0 = objects0
	r.epoch0 = epoch
	r.dirty = false
	r.depth, r.maxDepth = 0, 0
	r.events = r.events[:0]
	r.buckets = [telemetry.NumCycleBuckets]uint64{}
	r.guardFails = 0
	for _, id := range r.touched {
		r.counts[id] = 0
	}
	r.touched = r.touched[:0]
}

// RecordBase implements jit.Recorder.
func (r *recorder) RecordBase(b telemetry.CycleBucket, cycles uint64) {
	r.buckets[b] += cycles
}

// RecordFetch implements jit.Recorder.
func (r *recorder) RecordFetch(addr uint64, size int) {
	r.events = append(r.events, microarch.Access{
		Addr: addr, Aux: uint32(size), Kind: microarch.AccessFetch,
	})
}

// RecordData implements jit.Recorder. Addresses below the capture's
// heap watermark belong to objects allocated before the capture; a
// replay cannot know where those live, so the capture is poisoned.
func (r *recorder) RecordData(addr uint64) {
	if addr < r.heapBase {
		r.dirty = true
		return
	}
	r.events = append(r.events, microarch.Access{
		Addr: addr - r.heapBase, Kind: microarch.AccessData,
	})
}

// RecordBranch implements jit.Recorder.
func (r *recorder) RecordBranch(pc uint64, taken bool) {
	var aux uint32
	if taken {
		aux = 1
	}
	r.events = append(r.events, microarch.Access{
		Addr: pc, Aux: aux, Kind: microarch.AccessBranch,
	})
}

// RecordGuardFail implements jit.Recorder.
func (r *recorder) RecordGuardFail() { r.guardFails++ }

// RecordEnter implements jit.Recorder.
func (r *recorder) RecordEnter(fn *bytecode.Function) {
	id := fn.ID
	if int(id) < len(r.counts) {
		if r.counts[id] == 0 {
			r.touched = append(r.touched, id)
		}
		r.counts[id]++
	} else {
		r.dirty = true
	}
	r.depth++
	if r.depth > r.maxDepth {
		r.maxDepth = r.depth
	}
}

// RecordReturn implements jit.Recorder.
func (r *recorder) RecordReturn() { r.depth-- }

// MarkDirty implements jit.Recorder.
func (r *recorder) MarkDirty() { r.dirty = true }
