package server

import (
	"reflect"
	"testing"

	"jumpstart/internal/microarch"
)

// fuzzOutcome is everything observable about one fuzzed run.
type fuzzOutcome struct {
	ticks  []TickStats
	served []uint64 // cycles of each request served outside a tick
	faults int
	total  float64
	mem    microarch.Stats
}

// replayFuzzRun drives one consumer through the schedule the fuzzer
// bytes spell out. Byte 0 picks eager or lazy warmup; after that each
// step is an opcode byte (mod 5), followed by an operand byte where
// one is named:
//
//	0      one Tick
//	1      flip micro sampling between every request and none
//	2 k    serve k%32 requests back to back
//	3 i    force CompileLive of function i%len(funcs) (a full region is fine)
//	4 i    SetActive(i%len(funcs), nil)
//
// The forced compiles and deactivations are exactly the changes the
// replay cache's per-function stamps must catch, interleaved with
// serving at arbitrary points of the cache's life.
func replayFuzzRun(t *testing.T, data []byte, replayOn bool) (out fuzzOutcome) {
	site, pkg := sharedSiteAndPackage(t)
	cfg := testConfig(ModeConsumer)
	cfg.Package = pkg
	cfg.ReplayCache = replayOn
	cfg.TickSeconds = 0.25 // ~37 requests a tick: many short steps
	cfg.LazyWarmup = len(data) > 0 && data[0]&1 == 1
	s, err := New(site, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Ready() {
		out.ticks = append(out.ticks, s.Tick())
	}
	funcs := site.Prog.Funcs
	const maxSteps = 96
	for i, steps := 1, 0; i < len(data) && steps < maxSteps; steps++ {
		op := data[i] % 5
		i++
		switch op {
		case 0:
			out.ticks = append(out.ticks, s.Tick())
			continue
		case 1:
			if s.cfg.MicroSampleEvery == 1 {
				s.cfg.MicroSampleEvery = 1 << 30
			} else {
				s.cfg.MicroSampleEvery = 1
			}
			continue
		}
		if i == len(data) {
			break
		}
		arg := int(data[i])
		i++
		switch op {
		case 2:
			for k := 0; k < arg%32; k++ {
				cycles, err := s.serveOne()
				if err != nil {
					out.faults++
				}
				out.served = append(out.served, cycles)
			}
		case 3:
			_, _ = s.j.CompileLive(funcs[arg%len(funcs)]) // region full: nothing placed
		case 4:
			s.j.SetActive(funcs[arg%len(funcs)].ID, nil)
		}
	}
	out.ticks = append(out.ticks, s.Tick())
	out.total, out.mem = s.TotalCycles(), s.Mem().Stats()
	return out
}

// FuzzReplayInvalidation is the differential check of the replay
// cache's invalidation rule: under any schedule of serving, forced
// live compiles, deactivations and sampling flips, a server with the
// cache on is indistinguishable from one with it off. The seed corpus
// is in testdata/fuzz/FuzzReplayInvalidation.
func FuzzReplayInvalidation(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		on, off := replayFuzzRun(t, data, true), replayFuzzRun(t, data, false)
		if !reflect.DeepEqual(on, off) {
			for i := range on.ticks {
				if i < len(off.ticks) && on.ticks[i] != off.ticks[i] {
					t.Fatalf("tick %d diverged:\n on: %+v\noff: %+v", i, on.ticks[i], off.ticks[i])
				}
			}
			for i := range on.served {
				if i < len(off.served) && on.served[i] != off.served[i] {
					t.Fatalf("served request %d diverged: on %d cycles, off %d",
						i, on.served[i], off.served[i])
				}
			}
			t.Fatalf("runs diverged:\n on: total %v faults %d mem %+v\noff: total %v faults %d mem %+v",
				on.total, on.faults, on.mem, off.total, off.faults, off.mem)
		}
	})
}
