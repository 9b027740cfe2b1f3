package bytecode

import (
	"math"

	"jumpstart/internal/value"
)

// Fingerprint is a stable structural identity for a function, computed
// at link time (NewProgram). Unlike prof.FuncChecksum — which hashes
// raw operands and therefore shifts whenever a literal-pool index or a
// dense FuncID moves — the fingerprint canonicalizes every
// program-relative operand: literal-pool references hash the literal
// *value*, resolved call/instantiation ids hash the callee/class
// *name*. Two independently linked programs containing the same
// function body therefore agree on its fingerprint, which is what the
// cross-release profile remapper keys on.
type Fingerprint struct {
	// Body hashes the full canonical body: arity, locals, iterator
	// slots, opcodes and canonicalized operands. Equal Body values mean
	// "semantically the same bytecode" across releases (renames
	// excluded — the name is deliberately not part of the hash, so a
	// renamed-but-identical function can still be matched).
	Body uint64
	// Shape hashes the control-flow skeleton only: arity plus, per
	// instruction, the opcode and any control-flow operands (jump
	// targets, iterator exit targets, argument counts). Equal Shape
	// values imply an identical CFG — block boundaries and edges line
	// up — so block/edge counters collected against one body remain
	// meaningful for the other even when constants changed.
	Shape uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type fnv64 uint64

func (h *fnv64) mix(x uint64) {
	*h = (*h ^ fnv64(x)) * fnvPrime
}

func (h *fnv64) mixStr(s string) {
	for i := 0; i < len(s); i++ {
		*h = (*h ^ fnv64(s[i])) * fnvPrime
	}
	h.mix(uint64(len(s)))
}

func (h *fnv64) mixValue(v value.Value) {
	h.mix(uint64(v.Kind()))
	switch v.Kind() {
	case value.KindNull:
	case value.KindBool:
		if v.AsBool() {
			h.mix(1)
		}
	case value.KindInt:
		h.mix(uint64(v.AsInt()))
	case value.KindFloat:
		h.mix(math.Float64bits(v.AsFloat()))
	case value.KindStr:
		h.mixStr(v.AsStr())
	default:
		// Composite literals never appear in unit pools; hashing the
		// kind alone keeps the function total rather than panicking.
	}
}

// fingerprintFuncs computes and stores the fingerprint of every linked
// function. Must run after resolveCalls so OpFCallD/OpNewObj operands
// index valid program tables.
func (p *Program) fingerprintFuncs() {
	for _, f := range p.Funcs {
		f.Fingerprint = p.fingerprintOf(f)
	}
}

// fingerprintOf computes fn's fingerprint against this program's
// tables. fn must belong to p (its resolved ids are decoded through
// p.Funcs / p.Classes).
func (p *Program) fingerprintOf(fn *Function) Fingerprint {
	body := fnv64(fnvOffset)
	shape := fnv64(fnvOffset)
	for _, h := range []*fnv64{&body, &shape} {
		h.mix(uint64(fn.NumParams))
	}
	body.mix(uint64(fn.NumLocals))
	body.mix(uint64(fn.NumIters))
	for _, in := range fn.Code {
		body.mix(uint64(in.Op))
		shape.mix(uint64(in.Op))
		switch in.Op {
		case OpLit:
			body.mixValue(fn.Unit.Literal(in.A))
		case OpFCall, OpFCallM, OpNewObjL:
			// Late-bound: operand A names the target via the pool.
			body.mixValue(fn.Unit.Literal(in.A))
			body.mix(uint64(uint32(in.B)))
			shape.mix(uint64(uint32(in.B)))
		case OpPropGet, OpPropSet:
			body.mixValue(fn.Unit.Literal(in.A))
		case OpFCallD:
			// Resolved id: hash the callee name, not the dense index.
			if int(in.A) >= 0 && int(in.A) < len(p.Funcs) {
				body.mixStr(p.Funcs[in.A].Name)
			}
			body.mix(uint64(uint32(in.B)))
			shape.mix(uint64(uint32(in.B)))
		case OpNewObj:
			if int(in.A) >= 0 && int(in.A) < len(p.Classes) {
				body.mixStr(p.Classes[in.A].Name)
			}
			body.mix(uint64(uint32(in.B)))
			shape.mix(uint64(uint32(in.B)))
		case OpJmp, OpJmpZ, OpJmpNZ:
			// Function-local instruction index: stable for an
			// unchanged body, and part of the CFG skeleton.
			body.mix(uint64(uint32(in.A)))
			shape.mix(uint64(uint32(in.A)))
		case OpIterInit, OpIterNext:
			body.mix(uint64(uint32(in.A)))
			body.mix(uint64(uint32(in.B)))
			shape.mix(uint64(uint32(in.B))) // exit target shapes the CFG
		default:
			body.mix(uint64(uint32(in.A)))
			body.mix(uint64(uint32(in.B)))
		}
	}
	return Fingerprint{Body: uint64(body), Shape: uint64(shape)}
}
