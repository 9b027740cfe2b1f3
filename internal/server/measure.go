package server

import (
	"errors"

	"jumpstart/internal/microarch"
	"jumpstart/internal/workload"
)

// SteadyStats reports a steady-state measurement window, the analogue
// of the paper's in-house performance-measurement tool (Section VII-B):
// servers are warmed, loaded, and measured for throughput and
// micro-architectural metrics.
type SteadyStats struct {
	Requests        int
	AvgCyclesPerReq float64
	// CapacityRPS is the throughput the server could sustain at 100%
	// CPU: Cores × clockHz / AvgCyclesPerReq. The paper loads servers
	// to 80% CPU; capacity comparisons are load-independent.
	CapacityRPS float64
	Mem         microarch.Stats
	GuardFails  uint64
	Faults      int
}

// WarmToServing ticks the server until it reaches PhaseServing (or
// PhaseCollecting for seeders → until PhaseExited), bounded by
// maxSeconds of virtual time.
func (s *Server) WarmToServing(maxSeconds float64) error {
	target := PhaseServing
	if s.cfg.Mode == ModeSeeder {
		target = PhaseExited
	}
	deadline := s.now + maxSeconds
	for s.now < deadline {
		s.Tick()
		if s.phase == target {
			return nil
		}
	}
	return errors.New("server: warmup did not complete within " +
		"the virtual deadline (phase " + s.phase.String() + ")")
}

// measureSeed fixes the request stream used by MeasureSteady so that
// every server under comparison is measured on the *same* request
// sequence, like the paper's tool running the same workload on both
// halves of the experiment tier.
const measureSeed = 0x5EED_EA1

// MeasureSteady executes n requests back-to-back with full
// micro-architecture sampling and returns the averaged statistics.
//
// Warm-in runs in batches until the JIT reaches quiescence — a whole
// batch without new code being compiled — mirroring the paper's
// measurement tool, which "waits for [the servers] all to warmup"
// before loading them. This matters because the long tail of rare
// endpoints live-compiles lazily: without quiescence, a consumer
// (which skips the profiling phase during which a no-Jump-Start server
// incidentally warms its tail) would be measured with part of its tail
// still interpreted. Call it once the server is in PhaseServing.
func (s *Server) MeasureSteady(n int) SteadyStats {
	stream := s.site.NewTraffic(s.cfg.Region, s.cfg.Bucket, measureSeed)
	const maxWarmBatches = 40
	prevCode := -1
	for i := 0; i < maxWarmBatches; i++ {
		for k := 0; k < n; k++ {
			s.measureOneFrom(stream)
		}
		code := s.j.Cache().TotalUsed()
		if code == prevCode {
			break
		}
		prevCode = code
	}
	s.mem.ResetStats()
	startGuard := s.rt.GuardFails()
	var total uint64
	faults := 0
	for i := 0; i < n; i++ {
		c, err := s.measureOneFrom(stream)
		total += c
		if err != nil {
			faults++
		}
	}
	avg := float64(total) / float64(n)
	return SteadyStats{
		Requests:        n,
		AvgCyclesPerReq: avg,
		CapacityRPS:     float64(s.cfg.Cores) * clockHz / avg,
		Mem:             s.mem.Stats(),
		GuardFails:      s.rt.GuardFails() - startGuard,
		Faults:          faults,
	}
}

// measureOneFrom executes one request from the given stream with micro
// sampling, without advancing the tick clock or phase counters.
func (s *Server) measureOneFrom(stream *workload.Traffic) (uint64, error) {
	c, err := s.execute(stream.Next(), true)
	// Keep the conservation invariant: every cycle the runtime
	// attributes to the profile is also counted in totalCharged.
	s.totalCharged += float64(c)
	return c, err
}

// CapacityLoss integrates a tick series against the steady capacity:
// the fraction of ideal request-serving ability lost during the window
// (the area above the curve in Figures 2 and 4b). steadyRPS is the
// fully-warm completion rate used for normalization.
func CapacityLoss(ticks []TickStats, steadyRPS float64) float64 {
	if steadyRPS <= 0 || len(ticks) == 0 {
		return 0
	}
	var ideal, served float64
	var dt float64
	for i, t := range ticks {
		if i > 0 {
			dt = t.T - ticks[i-1].T
		} else {
			dt = t.T
		}
		ideal += steadyRPS * dt
		got := float64(t.Completed)
		if got > steadyRPS*dt {
			got = steadyRPS * dt
		}
		served += got
	}
	if ideal == 0 {
		return 0
	}
	return 1 - served/ideal
}

// NormalizedRPS converts a tick series into (time, completed/steady)
// points for Figure 2/4b-style plots.
func NormalizedRPS(ticks []TickStats, steadyRPS float64) [][2]float64 {
	out := make([][2]float64, 0, len(ticks))
	var dt float64
	for i, t := range ticks {
		if i > 0 {
			dt = t.T - ticks[i-1].T
		} else {
			dt = t.T
		}
		if dt <= 0 || steadyRPS <= 0 {
			continue
		}
		norm := float64(t.Completed) / dt / steadyRPS
		if norm > 1 {
			norm = 1
		}
		out = append(out, [2]float64{t.T, norm})
	}
	return out
}
