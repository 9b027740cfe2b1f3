package workload

import (
	"jumpstart/internal/netsim"
	"jumpstart/internal/value"
)

// Request is one web request: an endpoint plus its argument.
type Request struct {
	Endpoint int // index into Site.Endpoints
	Arg      value.Value
}

// Traffic deterministically draws requests for one (region, semantic
// bucket) pair, implementing the paper's semantic-routing model
// (Section II-C): endpoints belonging to the bucket's partition
// receive almost all the weight, with a small spill of other-partition
// requests (overflow routing); the per-endpoint weights vary by region
// so different regions see genuinely different mixes; and a long tail
// of rare endpoints keeps new code appearing for a long time.
type Traffic struct {
	r      *netsim.Stream
	cum    []float64 // cumulative endpoint weights
	argR   *netsim.Stream
	region int
	bucket int
}

// SpillFraction is the share of traffic routed outside the preferred
// semantic bucket (load-balancer overflow).
const SpillFraction = 0.05

// NewTraffic builds the request stream for (region, bucket) with the
// given stream seed.
func (s *Site) NewTraffic(region, bucket int, seed uint64) *Traffic {
	t := &Traffic{
		r:      newRNG(seed ^ 0xabcdef),
		argR:   newRNG(seed*31 + 7),
		region: region,
		bucket: bucket,
	}
	// Region-dependent endpoint ranking: a per-(region, endpoint) hash
	// produces the rank that flattens into a long-tailed weight. The
	// ranks depend only on (region, endpoint) — never on the stream
	// seed — which keeps every server of a (region, bucket) pair on an
	// identical mix.
	wr := newRNG(uint64(region)*1_000_003 + 17)
	t.cum = make([]float64, len(s.Endpoints))
	total := 0.0
	for i, ep := range s.Endpoints {
		r := wr.Float()
		// Flat-ish profile with a long tail: cubing the rank keeps
		// most endpoints warm but leaves a tail of rarely-requested
		// ones, which is what drives the paper's long C→D live-JIT
		// phase (Figure 1) and the slow climb from 90% to peak.
		w := 0.01 + r*r*r
		if ep.Partition != bucket%partitions {
			w *= SpillFraction / float64(partitions-1)
		}
		total += w
		t.cum[i] = total
	}
	return t
}

// Next draws the next request.
func (t *Traffic) Next() Request {
	ep := pickWeighted(t.r, t.cum)
	arg := int64(t.argR.Intn(10_000))
	return Request{Endpoint: ep, Arg: value.Int(arg)}
}

// Region and Bucket identify the stream.
func (t *Traffic) Region() int { return t.region }

// Bucket returns the semantic bucket.
func (t *Traffic) Bucket() int { return t.bucket }
