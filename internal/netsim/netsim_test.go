package netsim_test

import (
	"testing"

	"jumpstart/internal/netsim"
	"jumpstart/internal/workload"
)

// TestSampleDeterminism pins the fabric contract: the same seed gives
// the same verdict sequence, draw for draw.
func TestSampleDeterminism(t *testing.T) {
	cfg := netsim.Config{
		BaseLatency:   0.05,
		LatencyJitter: 0.02,
		DropRate:      0.3,
		ErrorRate:     0.2,
		Faults:        []netsim.Fault{netsim.Brownout(10, 20, 0.5, 1)},
	}
	run := func() []netsim.Verdict {
		f := netsim.NewFabric(cfg)
		r := netsim.NewStream(workload.Fork(7, 0))
		out := make([]netsim.Verdict, 0, 200)
		for i := 0; i < 200; i++ {
			out = append(out, f.Sample("store", float64(i)*0.2, r))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestHealthyFabricIsFreeAndLossless: the zero config (no latency, no
// faults) must deliver every RPC instantly — this is what makes the
// transport perf-neutral when the network is healthy.
func TestHealthyFabricIsFreeAndLossless(t *testing.T) {
	f := netsim.NewFabric(netsim.Config{})
	r := netsim.NewStream(1)
	for i := 0; i < 100; i++ {
		v := f.Sample("store", float64(i), r)
		if v.Drop || v.Err || v.Latency != 0 {
			t.Fatalf("healthy fabric produced %+v", v)
		}
	}
}

// TestBrownoutWindow: inside the window the drop rate applies; outside
// it the base (zero) rates are back in force.
func TestBrownoutWindow(t *testing.T) {
	f := netsim.NewFabric(netsim.Config{
		BaseLatency: 0.1,
		Faults:      []netsim.Fault{netsim.Brownout(100, 200, 1.0, 2.5)},
	})
	r := netsim.NewStream(workload.Fork(3, 1))
	for _, tm := range []float64{0, 99.9, 200, 500} {
		if v := f.Sample("store", tm, r); v.Drop || v.Err {
			t.Fatalf("t=%v outside window dropped: %+v", tm, v)
		}
	}
	for _, tm := range []float64{100, 150, 199.9} {
		v := f.Sample("store", tm, r)
		if !v.Drop {
			t.Fatalf("t=%v inside brownout delivered: %+v", tm, v)
		}
		if v.Latency < 2.6 {
			t.Fatalf("t=%v brownout latency %v, want base+extra", tm, v.Latency)
		}
	}
}

// TestPartitionAndLinkScoping: a partition on one link loses all its
// traffic and leaves other links untouched.
func TestPartitionAndLinkScoping(t *testing.T) {
	f := netsim.NewFabric(netsim.Config{Faults: []netsim.Fault{netsim.Partition(0, 100, "region0")}})
	r := netsim.NewStream(workload.Fork(5, 2))
	for i := 0; i < 50; i++ {
		if v := f.Sample("region0", 50, r); !v.Drop {
			t.Fatalf("partitioned link delivered: %+v", v)
		}
		if v := f.Sample("region1", 50, r); v.Drop {
			t.Fatalf("unpartitioned link dropped: %+v", v)
		}
	}
}

// TestLinkPrefixScoping: a prefix fault blankets every link sharing
// the prefix and nothing else; an exact Link match takes precedence
// over LinkPrefix when both are set.
func TestLinkPrefixScoping(t *testing.T) {
	f := netsim.NewFabric(netsim.Config{Faults: []netsim.Fault{netsim.PartitionPrefix(0, 100, "inter:")}})
	r := netsim.NewStream(workload.Fork(13, 0))
	for i := 0; i < 50; i++ {
		for _, link := range []string{"inter:r0-r1", "inter:r1-r0", "inter:"} {
			if v := f.Sample(link, 50, r); !v.Drop {
				t.Fatalf("prefixed link %q delivered: %+v", link, v)
			}
		}
		for _, link := range []string{"intra:r0/n1", "inte", "x"} {
			if v := f.Sample(link, 50, r); v.Drop {
				t.Fatalf("unprefixed link %q dropped: %+v", link, v)
			}
		}
	}
	// Outside the window the prefix fault is inert.
	if v := f.Sample("inter:r0-r1", 100, r); v.Drop {
		t.Fatalf("expired prefix fault dropped: %+v", v)
	}
	// Link wins over LinkPrefix: the exact label scopes the fault.
	g := netsim.NewFabric(netsim.Config{Faults: []netsim.Fault{{
		From: 0, To: 100, Link: "inter:r0-r1", LinkPrefix: "intra:", Partition: true,
	}}})
	if v := g.Sample("intra:r0/n0", 50, r); v.Drop {
		t.Fatalf("LinkPrefix overrode exact Link: %+v", v)
	}
	if v := g.Sample("inter:r0-r1", 50, r); !v.Drop {
		t.Fatalf("exact Link match delivered: %+v", v)
	}
}

// TestBrownoutPrefix: degraded drop rate and latency confined to the
// prefixed links, healthy elsewhere — the lossy-long-haul shape the
// multi-region store propagates over.
func TestBrownoutPrefix(t *testing.T) {
	f := netsim.NewFabric(netsim.Config{
		BaseLatency: 0.1,
		Faults:      []netsim.Fault{netsim.BrownoutPrefix(0, 100, 1.0, 2.0, "inter:")},
	})
	r := netsim.NewStream(workload.Fork(17, 0))
	for i := 0; i < 30; i++ {
		if v := f.Sample("inter:r0-r1", 50, r); !v.Drop {
			t.Fatalf("browned-out long-haul delivered: %+v", v)
		}
		v := f.Sample("intra:r0/n0", 50, r)
		if v.Drop || v.Err || v.Latency != 0.1 {
			t.Fatalf("intra link degraded: %+v", v)
		}
	}
}

// TestLatencyFactorAndClamping covers the multiplicative latency knob
// and the rate clamp when stacked faults exceed 1.
func TestLatencyFactorAndClamping(t *testing.T) {
	f := netsim.NewFabric(netsim.Config{
		BaseLatency: 0.2,
		DropRate:    0.6,
		Faults: []netsim.Fault{
			{From: 0, To: 10, LatencyFactor: 3},
			{From: 0, To: 10, DropRate: 0.9}, // 0.6+0.9 clamps to 1
		},
	})
	r := netsim.NewStream(workload.Fork(9, 0))
	for i := 0; i < 30; i++ {
		v := f.Sample("x", 5, r)
		if !v.Drop {
			t.Fatalf("clamped drop rate 1 still delivered: %+v", v)
		}
		if v.Latency < 0.6-1e-12 {
			t.Fatalf("latency factor not applied: %v", v.Latency)
		}
	}
}

// TestSampleDrawCountConstant: every Sample consumes exactly three
// draws, so verdicts never shift the stream position.
func TestSampleDrawCountConstant(t *testing.T) {
	cfg := netsim.Config{DropRate: 1} // every RPC drops
	fDrop := netsim.NewFabric(cfg)
	fOK := netsim.NewFabric(netsim.Config{})
	r1 := netsim.NewStream(workload.Fork(11, 0))
	r2 := netsim.NewStream(workload.Fork(11, 0))
	for i := 0; i < 10; i++ {
		fDrop.Sample("x", 0, r1)
		fOK.Sample("x", 0, r2)
	}
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("verdict changed stream draw count")
	}
}

func TestVirtualClock(t *testing.T) {
	c := netsim.NewVirtualClock(10)
	c.Sleep(2.5)
	c.Sleep(-1) // no-op
	c.Sleep(0)  // no-op
	if c.Now() != 12.5 {
		t.Fatalf("now = %v", c.Now())
	}
}
