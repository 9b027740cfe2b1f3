package jumpstart

import (
	"errors"
	"sort"
	"testing"

	"jumpstart/internal/prof"
)

// mutatePackage applies the fuzzer's byte program to p. Each step is
// three bytes: an opcode (mod 10) and two operands a and b. Function
// operands index the package's functions in name order, so a step
// always lands on a real entry:
//
//	0 a b  resize func a's block counts to b%64 entries (new ones = b)
//	1 a b  resize func a's Vasm counts to b%64 entries (new ones = b)
//	2 a b  add a CFG edge int8(b) → b%32 to func a
//	3 a b  add a type site at pc b-16 with kind pair b·257 to func a
//	4 a b  add a call-target site at pc b-16 to func a: a real callee
//	       for even b, an unknown one for odd b
//	5 a b  add a tier-2 call pair func a → func b (unknown for b%4 == 3)
//	6 a b  function order: append func a, append an unknown name, or
//	       truncate to a entries (b%3)
//	7 a b  units: duplicate unit a, append an unknown unit, or truncate
//	       to a entries (b%3)
//	8 a b  set func a's entry count to b<<(a%56)
//	9 a b  drop func a from the package
//
// Every mutated package still encodes and decodes, so it reaches the
// consumer trial boot rather than stopping at ErrCorrupt.
func mutatePackage(p *prof.Profile, data []byte) {
	const maxSteps = 32
	for i, steps := 0, 0; i+2 < len(data) && steps < maxSteps; i, steps = i+3, steps+1 {
		op, a, b := data[i]%10, int(data[i+1]), data[i+2]
		names := make([]string, 0, len(p.Funcs))
		for n := range p.Funcs {
			names = append(names, n)
		}
		if len(names) == 0 {
			return
		}
		sort.Strings(names)
		name := names[a%len(names)]
		fp := p.Funcs[name]
		pc := int32(b) - 16
		switch op {
		case 0:
			fp.BlockCounts = resize(fp.BlockCounts, int(b)%64, uint64(b))
		case 1:
			fp.VasmCounts = resize(fp.VasmCounts, int(b)%64, uint64(b))
		case 2:
			if fp.EdgeCounts == nil {
				fp.EdgeCounts = map[prof.EdgeKey]uint64{}
			}
			fp.EdgeCounts[prof.EdgeKey{Src: int32(int8(b)), Dst: int32(b % 32)}] += uint64(b) + 1
		case 3:
			if fp.TypeObs == nil {
				fp.TypeObs = map[int32]map[uint16]uint64{}
			}
			if fp.TypeObs[pc] == nil {
				fp.TypeObs[pc] = map[uint16]uint64{}
			}
			fp.TypeObs[pc][uint16(b)*257] += uint64(b) + 1
		case 4:
			callee := names[int(b)%len(names)]
			if b%2 == 1 {
				callee = "no::such_func"
			}
			if fp.CallTargets == nil {
				fp.CallTargets = map[int32]map[string]uint64{}
			}
			if fp.CallTargets[pc] == nil {
				fp.CallTargets[pc] = map[string]uint64{}
			}
			fp.CallTargets[pc][callee] += uint64(b) + 1
		case 5:
			callee := names[int(b)%len(names)]
			if b%4 == 3 {
				callee = "no::such_func"
			}
			p.CallPairs[prof.CallPair{Caller: name, Callee: callee}] += uint64(b) + 1
		case 6:
			switch b % 3 {
			case 0:
				p.FuncOrder = append(p.FuncOrder, name)
			case 1:
				p.FuncOrder = append(p.FuncOrder, "no::such_func")
			default:
				p.FuncOrder = p.FuncOrder[:min(a, len(p.FuncOrder))]
			}
		case 7:
			switch b % 3 {
			case 0:
				if len(p.Units) > 0 {
					p.Units = append(p.Units, p.Units[a%len(p.Units)])
				}
			case 1:
				p.Units = append(p.Units, "no_such_unit")
			default:
				p.Units = p.Units[:min(a, len(p.Units))]
			}
		case 8:
			fp.EntryCount = uint64(b) << (a % 56)
		case 9:
			delete(p.Funcs, name)
		}
	}
}

// resize returns s cut or extended to n entries, new entries set to v.
func resize(s []uint64, n int, v uint64) []uint64 {
	for len(s) < n {
		s = append(s, v)
	}
	return s[:n]
}

// FuzzValidatePackage runs the seeder's validator over structurally
// mutated copies of a real quick-site package. A package is outside
// input to every consumer, so whatever it holds, Validate must return
// nil or one of its classified errors, and must not panic. The seed
// corpus is in testdata/fuzz/FuzzValidatePackage.
func FuzzValidatePackage(f *testing.F) {
	site, data := siteAndPackageBytes(f)
	cfg := fastServerConfig()
	cfg.UsePropertyOrder = true
	cfg.JITOpts.UseVasmCounters = true
	cfg.JITOpts.UseSeededCallGraph = true
	v := &Validator{Site: site, ConsumerConfig: cfg, Requests: 20}
	f.Fuzz(func(t *testing.T, prog []byte) {
		p, err := prof.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		mutatePackage(p, prog)
		err = v.Validate(p.Encode())
		if err == nil {
			return
		}
		for _, want := range []error{ErrCorrupt, ErrRevision, ErrCoverage, ErrBoot, ErrUnhealthy} {
			if errors.Is(err, want) {
				return
			}
		}
		t.Fatalf("unclassified validation error: %v", err)
	})
}
