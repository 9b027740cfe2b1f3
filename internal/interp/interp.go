// Package interp implements the MiniHack bytecode interpreter.
//
// The interpreter is the VM's tier-0 engine and, as in HHVM, its last
// resort: every function can always execute here regardless of JIT
// state. It exposes a Tracer interface through which the profiling
// tier collects block counters, type feedback, call-target profiles
// and property-access counters, and through which the simulated JIT
// charges translation costs and feeds the micro-architecture model.
// With a nil Tracer the interpreter runs at full (host) speed.
//
// The steady-state request path allocates nothing: activation frames
// (locals, evaluation stack, iterators) come from a per-depth pool
// that is reused across calls, and arguments are passed as a view of
// the caller's stack (the callee copies them into its locals before
// touching its own stack).
package interp

import (
	"errors"
	"fmt"
	"io"

	"jumpstart/internal/bytecode"
	"jumpstart/internal/object"
	"jumpstart/internal/value"
)

// Tracer observes execution. All methods are called synchronously on
// the interpreter goroutine; implementations must be cheap.
type Tracer interface {
	// OnEnter fires when a MiniHack function activation begins.
	OnEnter(fn *bytecode.Function)
	// OnBlock fires when control enters a bytecode basic block.
	OnBlock(fn *bytecode.Function, block int)
	// OnCallSite fires before a call executes, identifying the
	// resolved callee (method dispatch included).
	OnCallSite(fn *bytecode.Function, pc int, callee *bytecode.Function)
	// OnReturn fires when an activation ends (normally or via fault).
	OnReturn(fn *bytecode.Function)
	// OnNewObj fires after object allocation.
	OnNewObj(obj *object.Object)
	// OnPropAccess fires on property reads/writes with the resolved
	// physical slot.
	OnPropAccess(obj *object.Object, slot int, write bool)
	// OnOpTypes fires at dynamically-typed operations with the operand
	// kinds observed (b is KindNull for unary sites).
	OnOpTypes(fn *bytecode.Function, pc int, a, b value.Kind)
}

// Memoizer lets an external cache (internal/replay) intercept direct
// calls. The interpreter consults it at every OpFCallD site:
//
//   - TryReplay may satisfy the call from a recorded entry. On ok it
//     has already applied every side effect of the call (tracer
//     charges, heap advance) and returns the result plus the fuel the
//     real execution would have consumed.
//   - Otherwise BeginCapture may arm recording for this call; if it
//     returns true the interpreter reports the subtree's fuel, result
//     and error to EndCapture exactly once, after the call completes
//     and before unwinding a fault.
//
// The memoizer sees the call before OnCallSite fires, so call-site
// tracer effects are part of the recorded entry and are skipped
// entirely on replay.
type Memoizer interface {
	TryReplay(caller, callee *bytecode.Function, pc int, args []value.Value,
		fuelLeft int64, depthRoom int) (ret value.Value, steps int64, ok bool)
	BeginCapture(caller, callee *bytecode.Function, pc int, args []value.Value) bool
	EndCapture(steps int64, ret value.Value, err error)
}

// Fault is a MiniHack runtime error carrying a VM-level stack trace.
type Fault struct {
	Msg   string
	Stack []string // innermost first: "func @pc"
}

func (f *Fault) Error() string {
	return "interp: fault: " + f.Msg
}

// ErrFuel is returned when execution exceeds the configured step
// budget (runaway-loop protection for generated workloads).
var ErrFuel = errors.New("interp: execution budget exhausted")

// Config parameterizes an Interp.
type Config struct {
	// Out receives builtin print output. Nil discards it.
	Out io.Writer
	// Tracer observes execution. Nil disables tracing.
	Tracer Tracer
	// MaxSteps bounds total bytecode instructions per entry call
	// (0 = 100M).
	MaxSteps int64
	// MaxDepth bounds call nesting (0 = 256).
	MaxDepth int
}

// frame is one pooled activation record. Frames are allocated once per
// nesting depth and reused for every subsequent activation at that
// depth; their buffers only ever grow.
type frame struct {
	locals []value.Value
	stack  []value.Value
	iters  []iterState
}

func (f *frame) push(v value.Value) { f.stack = append(f.stack, v) }

func (f *frame) pop() value.Value {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

// Interp executes bytecode against a runtime class registry.
type Interp struct {
	prog   *bytecode.Program
	reg    *object.Registry
	out    io.Writer
	tracer Tracer
	memo   Memoizer
	fuel   int64
	max    int64
	depth  int
	maxDep int

	frames  []*frame
	bsCache [][]int32   // fn.ID -> pc-indexed block-start table
	icCache [][]icEntry // fn.ID -> pc-indexed inline caches
}

// icEntry is a monomorphic inline cache for one property or method
// instruction: rc is the receiver class last observed at this pc, idx
// the resolved physical slot (OpPropGet/OpPropSet) or method FuncID
// (OpFCallM). Receiver-class layouts are immutable for the life of a
// Registry, so a pointer match makes the cached resolution valid; a
// mismatch falls back to the full by-name lookup and re-caches.
type icEntry struct {
	rc  *object.RuntimeClass
	idx int32
}

// New creates an interpreter for prog/reg.
func New(prog *bytecode.Program, reg *object.Registry, cfg Config) *Interp {
	max := cfg.MaxSteps
	if max == 0 {
		max = 100_000_000
	}
	maxDep := cfg.MaxDepth
	if maxDep == 0 {
		maxDep = 256
	}
	return &Interp{
		prog:   prog,
		reg:    reg,
		out:    cfg.Out,
		tracer: cfg.Tracer,
		max:    max,
		maxDep: maxDep,
	}
}

// Registry returns the interpreter's class registry.
func (ip *Interp) Registry() *object.Registry { return ip.reg }

// Program returns the linked program.
func (ip *Interp) Program() *bytecode.Program { return ip.prog }

// SetTracer installs (or removes, with nil) the execution observer.
func (ip *Interp) SetTracer(t Tracer) { ip.tracer = t }

// SetMemoizer installs (or removes, with nil) the replay cache.
func (ip *Interp) SetMemoizer(m Memoizer) { ip.memo = m }

// CallByName invokes a free function by name from outside the VM.
// The step budget resets per entry call.
func (ip *Interp) CallByName(name string, args ...value.Value) (value.Value, error) {
	fn, ok := ip.prog.FuncByName(name)
	if !ok {
		return value.Null, fmt.Errorf("interp: undefined function %q", name)
	}
	ip.fuel = ip.max
	return ip.call(fn, nil, args)
}

// Call invokes fn directly (used by the server's request dispatcher).
func (ip *Interp) Call(fn *bytecode.Function, args ...value.Value) (value.Value, error) {
	ip.fuel = ip.max
	return ip.call(fn, nil, args)
}

func (ip *Interp) fault(fn *bytecode.Function, pc int, format string, args ...interface{}) error {
	return &Fault{
		Msg:   fmt.Sprintf(format, args...),
		Stack: []string{fmt.Sprintf("%s @%d", fn.Name, pc)},
	}
}

// iterState is one foreach's snapshot of its array. keys stays empty
// for a packed array, whose key is the position.
type iterState struct {
	vals []value.Value
	keys []value.Value
	idx  int
}

// call runs one activation of fn. this is nil for free functions.
// args may alias the caller's evaluation stack; it is copied into
// locals before this activation touches its own stack.
func (ip *Interp) call(fn *bytecode.Function, this *object.Object, args []value.Value) (value.Value, error) {
	if len(args) != fn.NumParams {
		return value.Null, ip.fault(fn, 0, "%s expects %d args, got %d",
			fn.Name, fn.NumParams, len(args))
	}
	if ip.depth >= ip.maxDep {
		return value.Null, ip.fault(fn, 0, "stack overflow (depth %d)", ip.depth)
	}
	d := ip.depth
	ip.depth++
	defer func() { ip.depth-- }()

	if d >= len(ip.frames) {
		ip.frames = append(ip.frames, &frame{})
	}
	fr := ip.frames[d]
	if cap(fr.locals) < fn.NumLocals {
		fr.locals = make([]value.Value, fn.NumLocals)
	}
	locals := fr.locals[:fn.NumLocals]
	n := copy(locals, args)
	clearTail := locals[n:]
	for i := range clearTail {
		clearTail[i] = value.Value{}
	}
	fr.stack = fr.stack[:0]
	if cap(fr.iters) < fn.NumIters {
		fr.iters = make([]iterState, fn.NumIters)
	}
	iters := fr.iters[:fn.NumIters]

	tr := ip.tracer
	if tr != nil {
		tr.OnEnter(fn)
		defer tr.OnReturn(fn)
	}

	// Block tracking: blockStart[pc] = block id + 1, 0 otherwise.
	var blockStart []int32
	if tr != nil {
		blockStart = ip.blockStarts(fn)
	}

	code := fn.Code
	ics := ip.inlineCaches(fn)
	pc := 0
	for {
		if ip.fuel <= 0 {
			return value.Null, ErrFuel
		}
		ip.fuel--
		if tr != nil && blockStart[pc] != 0 {
			tr.OnBlock(fn, int(blockStart[pc]-1))
		}
		in := code[pc]
		switch in.Op {
		case bytecode.OpNop:
			// nothing

		case bytecode.OpNull:
			fr.push(value.Null)
		case bytecode.OpTrue:
			fr.push(value.Bool(true))
		case bytecode.OpFalse:
			fr.push(value.Bool(false))
		case bytecode.OpInt:
			fr.push(value.Int(int64(in.A)))
		case bytecode.OpLit:
			fr.push(fn.Unit.Literal(in.A))
		case bytecode.OpDup:
			fr.push(fr.stack[len(fr.stack)-1])
		case bytecode.OpPopC:
			fr.pop()

		case bytecode.OpCGetL:
			fr.push(locals[in.A])
		case bytecode.OpSetL:
			locals[in.A] = fr.stack[len(fr.stack)-1]
		case bytecode.OpPushL:
			fr.push(locals[in.A])
			locals[in.A] = value.Null

		case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod:
			n := len(fr.stack)
			a, b := fr.stack[n-2], fr.stack[n-1]
			fr.stack = fr.stack[:n-2]
			if tr != nil {
				tr.OnOpTypes(fn, pc, a.Kind(), b.Kind())
			}
			var v value.Value
			var err error
			switch in.Op {
			case bytecode.OpAdd:
				v, err = value.Add(a, b)
			case bytecode.OpSub:
				v, err = value.Sub(a, b)
			case bytecode.OpMul:
				v, err = value.Mul(a, b)
			case bytecode.OpDiv:
				v, err = value.Div(a, b)
			default:
				v, err = value.Mod(a, b)
			}
			if err != nil {
				return value.Null, ip.fault(fn, pc, "%v", err)
			}
			fr.push(v)

		case bytecode.OpConcat:
			b := fr.pop()
			a := fr.pop()
			if tr != nil {
				tr.OnOpTypes(fn, pc, a.Kind(), b.Kind())
			}
			fr.push(value.Concat(a, b))

		case bytecode.OpNeg:
			a := fr.pop()
			if tr != nil {
				tr.OnOpTypes(fn, pc, a.Kind(), value.KindNull)
			}
			v, err := value.Neg(a)
			if err != nil {
				return value.Null, ip.fault(fn, pc, "%v", err)
			}
			fr.push(v)
		case bytecode.OpNot:
			fr.push(value.Bool(!fr.pop().Truthy()))

		case bytecode.OpBitAnd:
			b := fr.pop()
			fr.push(value.BitAnd(fr.pop(), b))
		case bytecode.OpBitOr:
			b := fr.pop()
			fr.push(value.BitOr(fr.pop(), b))
		case bytecode.OpBitXor:
			b := fr.pop()
			fr.push(value.BitXor(fr.pop(), b))
		case bytecode.OpShl:
			b := fr.pop()
			fr.push(value.Shl(fr.pop(), b))
		case bytecode.OpShr:
			b := fr.pop()
			fr.push(value.Shr(fr.pop(), b))

		case bytecode.OpCmpEq, bytecode.OpCmpNeq, bytecode.OpCmpSame,
			bytecode.OpCmpNSame, bytecode.OpCmpLt, bytecode.OpCmpLte,
			bytecode.OpCmpGt, bytecode.OpCmpGte:
			n := len(fr.stack)
			a, b := fr.stack[n-2], fr.stack[n-1]
			fr.stack = fr.stack[:n-2]
			if tr != nil {
				tr.OnOpTypes(fn, pc, a.Kind(), b.Kind())
			}
			fr.push(value.Bool(compare(in.Op, a, b)))

		case bytecode.OpJmp:
			pc = int(in.A)
			continue
		case bytecode.OpJmpZ:
			if !fr.pop().Truthy() {
				pc = int(in.A)
				continue
			}
		case bytecode.OpJmpNZ:
			if fr.pop().Truthy() {
				pc = int(in.A)
				continue
			}

		case bytecode.OpRet:
			return fr.pop(), nil
		case bytecode.OpFatal:
			return value.Null, ip.fault(fn, pc, "fatal: %s", fr.pop().ToStr())

		case bytecode.OpFCallD:
			callee := ip.prog.Funcs[in.A]
			argc := int(in.B)
			cargs := fr.stack[len(fr.stack)-argc:]
			m := ip.memo
			if m != nil {
				if ret, steps, ok := m.TryReplay(fn, callee, pc, cargs,
					ip.fuel, ip.maxDep-ip.depth); ok {
					ip.fuel -= steps
					fr.stack = fr.stack[:len(fr.stack)-argc]
					fr.push(ret)
					break
				}
			}
			capturing := m != nil && m.BeginCapture(fn, callee, pc, cargs)
			fuel0 := ip.fuel
			if tr != nil {
				tr.OnCallSite(fn, pc, callee)
			}
			ret, err := ip.call(callee, nil, cargs)
			if capturing {
				m.EndCapture(fuel0-ip.fuel, ret, err)
			}
			if err != nil {
				return value.Null, ip.pushFrame(err, fn, pc)
			}
			fr.stack = fr.stack[:len(fr.stack)-argc]
			fr.push(ret)

		case bytecode.OpFCall:
			name := fn.Unit.Literal(in.A).AsStr()
			return value.Null, ip.fault(fn, pc, "undefined function %q", name)

		case bytecode.OpFCallM:
			argc := int(in.B)
			cargs := fr.stack[len(fr.stack)-argc:]
			recv := fr.stack[len(fr.stack)-argc-1]
			if recv.Kind() != value.KindObj {
				return value.Null, ip.fault(fn, pc, "method call on %s", recv.Kind())
			}
			obj := recv.AsObj().(*object.Object)
			rc := obj.Class()
			var mid bytecode.FuncID
			if ic := &ics[pc]; ic.rc == rc {
				mid = bytecode.FuncID(ic.idx)
			} else {
				name := fn.Unit.Literal(in.A).AsStr()
				m, ok := rc.Meta.LookupMethod(name)
				if !ok {
					return value.Null, ip.fault(fn, pc, "class %s has no method %q",
						obj.ClassName(), name)
				}
				mid = m
				ic.rc, ic.idx = rc, int32(m)
			}
			callee := ip.prog.Funcs[mid]
			if argc != callee.NumParams {
				return value.Null, ip.fault(fn, pc, "%s expects %d args, got %d",
					callee.Name, callee.NumParams, argc)
			}
			if tr != nil {
				tr.OnCallSite(fn, pc, callee)
			}
			ret, err := ip.call(callee, obj, cargs)
			if err != nil {
				return value.Null, ip.pushFrame(err, fn, pc)
			}
			fr.stack = fr.stack[:len(fr.stack)-argc-1]
			fr.push(ret)

		case bytecode.OpNewObj:
			argc := int(in.B)
			cargs := fr.stack[len(fr.stack)-argc:]
			rc := ip.reg.Class(bytecode.ClassID(in.A))
			obj := ip.reg.Heap().NewObject(rc)
			if tr != nil {
				tr.OnNewObj(obj)
			}
			if ctorID, ok := rc.Meta.LookupMethod(ctorName); ok {
				ctor := ip.prog.Funcs[ctorID]
				if argc != ctor.NumParams {
					return value.Null, ip.fault(fn, pc, "%s expects %d args, got %d",
						ctor.Name, ctor.NumParams, argc)
				}
				if tr != nil {
					tr.OnCallSite(fn, pc, ctor)
				}
				if _, err := ip.call(ctor, obj, cargs); err != nil {
					return value.Null, ip.pushFrame(err, fn, pc)
				}
			} else if argc != 0 {
				return value.Null, ip.fault(fn, pc, "class %s has no constructor", rc.Name())
			}
			fr.stack = fr.stack[:len(fr.stack)-argc]
			fr.push(value.Object(obj))

		case bytecode.OpNewObjL:
			name := fn.Unit.Literal(in.A).AsStr()
			return value.Null, ip.fault(fn, pc, "undefined class %q", name)

		case bytecode.OpBuiltin:
			argc := int(in.B)
			cargs := fr.stack[len(fr.stack)-argc:]
			ret, err := ip.builtin(bytecode.Builtin(in.A), cargs)
			fr.stack = fr.stack[:len(fr.stack)-argc]
			if err != nil {
				return value.Null, ip.pushFrame(err, fn, pc)
			}
			fr.push(ret)

		case bytecode.OpThis:
			if this == nil {
				return value.Null, ip.fault(fn, pc, "'this' with no receiver")
			}
			fr.push(value.Object(this))

		case bytecode.OpPropGet:
			base := fr.pop()
			if base.Kind() != value.KindObj {
				return value.Null, ip.fault(fn, pc, "property access on %s", base.Kind())
			}
			obj := base.AsObj().(*object.Object)
			rc := obj.Class()
			var v value.Value
			var slot int
			if ic := &ics[pc]; ic.rc == rc {
				slot = int(ic.idx)
				v = obj.GetSlot(slot)
			} else {
				name := fn.Unit.Literal(in.A).AsStr()
				var ok bool
				v, slot, ok = obj.GetProp(name)
				if !ok {
					return value.Null, ip.fault(fn, pc, "class %s has no property %q",
						obj.ClassName(), name)
				}
				ic.rc, ic.idx = rc, int32(slot)
			}
			if tr != nil {
				tr.OnPropAccess(obj, slot, false)
			}
			fr.push(v)

		case bytecode.OpPropSet:
			v := fr.pop()
			base := fr.pop()
			if base.Kind() != value.KindObj {
				return value.Null, ip.fault(fn, pc, "property write on %s", base.Kind())
			}
			obj := base.AsObj().(*object.Object)
			rc := obj.Class()
			var slot int
			if ic := &ics[pc]; ic.rc == rc {
				slot = int(ic.idx)
				obj.SetSlot(slot, v)
			} else {
				name := fn.Unit.Literal(in.A).AsStr()
				var ok bool
				slot, ok = obj.SetProp(name, v)
				if !ok {
					return value.Null, ip.fault(fn, pc, "class %s has no property %q",
						obj.ClassName(), name)
				}
				ic.rc, ic.idx = rc, int32(slot)
			}
			if tr != nil {
				tr.OnPropAccess(obj, slot, true)
			}
			fr.push(v)

		case bytecode.OpNewVec:
			n := int(in.A)
			a := value.NewArray(n)
			for i := len(fr.stack) - n; i < len(fr.stack); i++ {
				a.Append(fr.stack[i])
			}
			fr.stack = fr.stack[:len(fr.stack)-n]
			fr.push(value.Arr(a))

		case bytecode.OpNewDict:
			n := int(in.A)
			a := value.NewArray(n)
			base := len(fr.stack) - 2*n
			for i := 0; i < n; i++ {
				a.Set(fr.stack[base+2*i], fr.stack[base+2*i+1])
			}
			fr.stack = fr.stack[:base]
			fr.push(value.Arr(a))

		case bytecode.OpIdxGet:
			key := fr.pop()
			base := fr.pop()
			if base.Kind() != value.KindArr {
				return value.Null, ip.fault(fn, pc, "index read on %s", base.Kind())
			}
			v, _ := base.AsArr().Get(key) // absent key yields null, PHP-style
			fr.push(v)

		case bytecode.OpIdxSet:
			v := fr.pop()
			key := fr.pop()
			base := fr.pop()
			if base.Kind() != value.KindArr {
				return value.Null, ip.fault(fn, pc, "index write on %s", base.Kind())
			}
			base.AsArr().Set(key, v)
			fr.push(v)

		case bytecode.OpIdxApp:
			v := fr.pop()
			base := fr.pop()
			if base.Kind() != value.KindArr {
				return value.Null, ip.fault(fn, pc, "append on %s", base.Kind())
			}
			base.AsArr().Append(v)
			fr.push(v)

		case bytecode.OpIterInit:
			seq := fr.pop()
			if seq.Kind() != value.KindArr {
				return value.Null, ip.fault(fn, pc, "foreach over %s", seq.Kind())
			}
			arr := seq.AsArr()
			it := &iters[in.A]
			it.idx, it.keys = 0, it.keys[:0]
			if vs, ok := arr.Packed(); ok {
				it.vals = append(it.vals[:0], vs...)
			} else {
				it.vals = it.vals[:0]
				for i := 0; i < arr.Len(); i++ {
					e := arr.At(i)
					it.vals = append(it.vals, e.Val)
					it.keys = append(it.keys, e.Key())
				}
			}
			if len(it.vals) == 0 {
				pc = int(in.B)
				continue
			}

		case bytecode.OpIterNext:
			it := &iters[in.A]
			it.idx++
			if it.idx < len(it.vals) {
				pc = int(in.B)
				continue
			}
			// done; keep the backing arrays for reuse
			it.vals, it.keys = it.vals[:0], it.keys[:0]

		case bytecode.OpIterKey:
			it := &iters[in.A]
			if len(it.keys) == 0 {
				fr.push(value.Int(int64(it.idx)))
			} else {
				fr.push(it.keys[it.idx])
			}

		case bytecode.OpIterVal:
			fr.push(iters[in.A].vals[iters[in.A].idx])

		default:
			return value.Null, ip.fault(fn, pc, "unimplemented opcode %v", in.Op)
		}
		pc++
	}
}

// ctorName matches hackc.CtorName; duplicated to avoid a dependency
// from the runtime on the compiler.
const ctorName = "__construct"

// pushFrame extends a Fault's stack trace as it unwinds.
func (ip *Interp) pushFrame(err error, fn *bytecode.Function, pc int) error {
	var f *Fault
	if errors.As(err, &f) {
		f.Stack = append(f.Stack, fmt.Sprintf("%s @%d", fn.Name, pc))
		return f
	}
	return err
}

func compare(op bytecode.Op, a, b value.Value) bool {
	switch op {
	case bytecode.OpCmpEq:
		return value.Equals(a, b)
	case bytecode.OpCmpNeq:
		return !value.Equals(a, b)
	case bytecode.OpCmpSame:
		return value.Identical(a, b)
	case bytecode.OpCmpNSame:
		return !value.Identical(a, b)
	case bytecode.OpCmpLt:
		return value.Compare(a, b) < 0
	case bytecode.OpCmpLte:
		return value.Compare(a, b) <= 0
	case bytecode.OpCmpGt:
		return value.Compare(a, b) > 0
	default:
		return value.Compare(a, b) >= 0
	}
}

// blockStarts caches, per function, a pc-indexed table of block ids
// (+1; 0 = not a block start), indexed by FuncID so the steady-state
// lookup is one bounds check instead of a map probe. The cache is
// per-Interp so concurrent simulated servers do not share mutable
// state.
func (ip *Interp) blockStarts(fn *bytecode.Function) []int32 {
	id := int(fn.ID)
	if id >= len(ip.bsCache) {
		grown := make([][]int32, len(ip.prog.Funcs))
		copy(grown, ip.bsCache)
		for len(grown) <= id { // defensive: id beyond the program table
			grown = append(grown, nil)
		}
		ip.bsCache = grown
	}
	if bs := ip.bsCache[id]; bs != nil {
		return bs
	}
	bs := make([]int32, len(fn.Code)+1)
	for _, b := range fn.Blocks() {
		bs[b.Start] = int32(b.ID) + 1
	}
	ip.bsCache[id] = bs
	return bs
}

// inlineCaches returns fn's pc-indexed inline-cache table, allocating
// it on first use.
func (ip *Interp) inlineCaches(fn *bytecode.Function) []icEntry {
	id := int(fn.ID)
	if id >= len(ip.icCache) {
		grown := make([][]icEntry, len(ip.prog.Funcs))
		copy(grown, ip.icCache)
		for len(grown) <= id { // defensive: id beyond the program table
			grown = append(grown, nil)
		}
		ip.icCache = grown
	}
	if ics := ip.icCache[id]; ics != nil {
		return ics
	}
	ics := make([]icEntry, len(fn.Code))
	ip.icCache[id] = ics
	return ics
}
