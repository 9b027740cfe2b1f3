// Package netsim is a deterministic virtual-time network fabric with
// injectable faults. The profile-store transport (Section VI's
// reliability workflows) rides on it: every RPC a simulated consumer
// or seeder issues is sampled through a Fabric, which draws per-link
// latency from a workload-PRNG-forked stream and applies drop/error
// rates plus scheduled degradations (brownouts, partitions) evaluated
// on the virtual clock.
//
// Determinism contract: a Fabric is pure configuration — all
// randomness comes from caller-supplied Streams, and every Sample
// consumes exactly three draws regardless of the verdict, so a fixed
// (seed, fault schedule) pair always produces the same RPC timeline,
// at any worker count and in any execution order.
package netsim

// Stream is a splitmix64 draw stream, the repository's one
// implementation of the generator: workload generation and traffic,
// workload.Fork, the release mutator and the fabric's samples all draw
// from it. Seed it with workload.Fork so transport fetches get streams
// that are independent of the simulation's own PRNGs.
type Stream struct{ state uint64 }

// NewStream returns a stream over the given seed.
func NewStream(seed uint64) *Stream { return &Stream{state: seed} }

// Uint64 returns the next 64-bit draw.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n), or 0 without a draw when
// n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(s.Uint64() % uint64(n))
}

// Float returns a uniform float64 in [0, 1).
func (s *Stream) Float() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Fault is one scheduled degradation window on the fabric. Zero-value
// fields leave the corresponding base parameter untouched; rates add
// onto the base rates (clamped to 1).
type Fault struct {
	// From/To bound the virtual-time window [From, To).
	From, To float64
	// Link restricts the fault to one link label ("" = every link,
	// unless LinkPrefix is set).
	Link string
	// LinkPrefix restricts the fault to links whose label starts with
	// the prefix — one fault can blanket a family of links (e.g. every
	// inter-region long-haul link labeled "inter:..." while the
	// intra-region links stay healthy). Ignored when Link is set.
	LinkPrefix string
	// ExtraLatency is added to the base RTT while active.
	ExtraLatency float64
	// LatencyFactor multiplies the base RTT while active (0 = 1).
	LatencyFactor float64
	// DropRate / ErrorRate add to the base rates while active.
	DropRate  float64
	ErrorRate float64
	// Partition loses every RPC on the link while active.
	Partition bool
}

// active reports whether the fault applies to link at virtual time t.
func (f *Fault) active(link string, t float64) bool {
	if t < f.From || t >= f.To {
		return false
	}
	if f.Link != "" {
		return f.Link == link
	}
	if f.LinkPrefix != "" {
		return len(link) >= len(f.LinkPrefix) && link[:len(f.LinkPrefix)] == f.LinkPrefix
	}
	return true
}

// Brownout builds the common degradation: elevated drop rate and extra
// latency on every link for [from, to).
func Brownout(from, to, dropRate, extraLatency float64) Fault {
	return Fault{From: from, To: to, DropRate: dropRate, ExtraLatency: extraLatency}
}

// Partition builds a total loss window on one link ("" = all links).
func Partition(from, to float64, link string) Fault {
	return Fault{From: from, To: to, Link: link, Partition: true}
}

// PartitionPrefix builds a total loss window on every link whose label
// starts with prefix (e.g. all "inter:" long-haul links).
func PartitionPrefix(from, to float64, prefix string) Fault {
	return Fault{From: from, To: to, LinkPrefix: prefix, Partition: true}
}

// BrownoutPrefix builds a brownout (elevated drop rate plus extra
// latency) confined to links whose label starts with prefix — the
// lossy-long-haul shape: inter-region links degrade, intra-region
// links stay healthy.
func BrownoutPrefix(from, to, dropRate, extraLatency float64, prefix string) Fault {
	return Fault{From: from, To: to, LinkPrefix: prefix,
		DropRate: dropRate, ExtraLatency: extraLatency}
}

// Config parameterizes a Fabric.
type Config struct {
	// BaseLatency is the healthy round-trip time in virtual seconds.
	BaseLatency float64
	// LatencyJitter is added uniformly in [0, LatencyJitter) per RPC.
	LatencyJitter float64
	// DropRate is the probability an RPC is silently lost (the caller
	// observes a timeout).
	DropRate float64
	// ErrorRate is the probability the far end answers with an error
	// after the usual latency.
	ErrorRate float64
	// Faults are the scheduled degradation windows.
	Faults []Fault
}

// Fabric samples RPC verdicts for the configured network.
type Fabric struct{ cfg Config }

// NewFabric builds a fabric over cfg.
func NewFabric(cfg Config) *Fabric { return &Fabric{cfg: cfg} }

// Verdict is the fate of one RPC attempt.
type Verdict struct {
	// Latency is the round-trip time when the RPC is delivered (Drop
	// false). For errors it is the time until the error response.
	Latency float64
	// Drop means the RPC vanished: the caller waits out its timeout.
	Drop bool
	// Err means the far end responded with a failure after Latency.
	Err bool
}

// Sample decides the fate of one RPC issued on link at virtual time t,
// consuming exactly three draws from r (drop, error, jitter) so the
// stream position is independent of the verdict.
func (f *Fabric) Sample(link string, t float64, r *Stream) Verdict {
	dropRoll := r.Float()
	errRoll := r.Float()
	jitRoll := r.Float()

	lat := f.cfg.BaseLatency
	drop := f.cfg.DropRate
	errRate := f.cfg.ErrorRate
	partitioned := false
	for i := range f.cfg.Faults {
		ft := &f.cfg.Faults[i]
		if !ft.active(link, t) {
			continue
		}
		if ft.Partition {
			partitioned = true
		}
		if ft.LatencyFactor > 0 {
			lat *= ft.LatencyFactor
		}
		lat += ft.ExtraLatency
		drop += ft.DropRate
		errRate += ft.ErrorRate
	}
	if drop > 1 {
		drop = 1
	}
	if errRate > 1 {
		errRate = 1
	}

	v := Verdict{Latency: lat + jitRoll*f.cfg.LatencyJitter}
	switch {
	case partitioned || dropRoll < drop:
		v.Drop = true
	case errRoll < errRate:
		v.Err = true
	}
	return v
}

// VirtualClock is a plain virtual-time cursor implementing the
// transport Clock contract: Sleep advances the cursor, nothing blocks.
type VirtualClock struct{ t float64 }

// NewVirtualClock starts a cursor at the given virtual time.
func NewVirtualClock(t float64) *VirtualClock { return &VirtualClock{t: t} }

// Now returns the cursor position in virtual seconds.
func (c *VirtualClock) Now() float64 { return c.t }

// Sleep advances the cursor by d virtual seconds (non-positive d is a
// no-op, mirroring time.Sleep).
func (c *VirtualClock) Sleep(d float64) {
	if d > 0 {
		c.t += d
	}
}
