package workload

import (
	"testing"

	"jumpstart/internal/interp"
	"jumpstart/internal/object"
	"jumpstart/internal/value"
)

func smallConfig() SiteConfig {
	cfg := DefaultSiteConfig()
	cfg.Units = 4
	cfg.HelpersPerUnit = 6
	cfg.EndpointsPerUnit = 3
	return cfg
}

func TestGenerateSiteCompilesAndRuns(t *testing.T) {
	site, err := GenerateSite(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(site.Endpoints) != 12 {
		t.Fatalf("endpoints = %d", len(site.Endpoints))
	}
	if len(site.Prog.Funcs) < 40 {
		t.Fatalf("functions = %d, want a real site", len(site.Prog.Funcs))
	}
	if err := site.Prog.Verify(); err != nil {
		t.Fatalf("generated program fails verification: %v", err)
	}
	reg, err := object.NewRegistry(site.Prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	ip := interp.New(site.Prog, reg, interp.Config{})
	// Every endpoint must execute without faults for a range of args.
	for _, ep := range site.Endpoints {
		for _, arg := range []int64{0, 1, 7, 12345} {
			if _, err := ip.Call(ep.Fn, value.Int(arg)); err != nil {
				t.Fatalf("%s(%d): %v", ep.Name, arg, err)
			}
		}
	}
}

func TestGenerateSiteDeterministic(t *testing.T) {
	a, err := GenerateSite(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSite(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range a.Sources {
		if b.Sources[name] != src {
			t.Fatalf("unit %s differs between runs", name)
		}
	}
	cfg2 := smallConfig()
	cfg2.Seed = 99
	c, err := GenerateSite(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for name, src := range a.Sources {
		if c.Sources[name] != src {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sites")
	}
}

func TestEndpointsResultsDeterministic(t *testing.T) {
	site, err := GenerateSite(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func() []int64 {
		reg, _ := object.NewRegistry(site.Prog, nil)
		ip := interp.New(site.Prog, reg, interp.Config{})
		var out []int64
		for _, ep := range site.Endpoints {
			v, err := ip.Call(ep.Fn, value.Int(42))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v.ToInt())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("endpoint %d nondeterministic: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPartitionsAssigned(t *testing.T) {
	site, err := GenerateSite(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, ep := range site.Endpoints {
		if ep.Partition < 0 || ep.Partition >= partitions {
			t.Fatalf("partition %d out of range", ep.Partition)
		}
		seen[ep.Partition]++
	}
	if len(seen) < 2 {
		t.Fatal("all endpoints in one partition")
	}
}

func TestTrafficPrefersOwnBucket(t *testing.T) {
	site, err := GenerateSite(DefaultSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := site.NewTraffic(0, 3, 42)
	if tr.Region() != 0 || tr.Bucket() != 3 {
		t.Fatal("stream identity")
	}
	inBucket := 0
	const draws = 5000
	for i := 0; i < draws; i++ {
		req := tr.Next()
		if site.Endpoints[req.Endpoint].Partition == 3 {
			inBucket++
		}
		if req.Arg.Kind() != value.KindInt {
			t.Fatal("arg kind")
		}
	}
	frac := float64(inBucket) / draws
	if frac < 0.85 {
		t.Fatalf("own-bucket fraction = %.2f, want ≥0.85 (semantic routing)", frac)
	}
	if frac > 0.995 {
		t.Fatalf("own-bucket fraction = %.2f, spill missing", frac)
	}
}

func TestTrafficDiffersAcrossRegionsSimilarWithin(t *testing.T) {
	site, err := GenerateSite(DefaultSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	hist := func(region, bucket int, seed uint64) []float64 {
		tr := site.NewTraffic(region, bucket, seed)
		h := make([]float64, len(site.Endpoints))
		const draws = 8000
		for i := 0; i < draws; i++ {
			h[tr.Next().Endpoint]++
		}
		for i := range h {
			h[i] /= draws
		}
		return h
	}
	l1 := func(a, b []float64) float64 {
		d := 0.0
		for i := range a {
			if a[i] > b[i] {
				d += a[i] - b[i]
			} else {
				d += b[i] - a[i]
			}
		}
		return d
	}
	sameRB := l1(hist(0, 2, 1), hist(0, 2, 999)) // same region+bucket, diff servers
	diffRegion := l1(hist(0, 2, 1), hist(5, 2, 1))
	if sameRB >= diffRegion {
		t.Fatalf("within-pair similarity (%f) should beat cross-region (%f)",
			sameRB, diffRegion)
	}
}

func TestTrafficLongTailCoversEndpoints(t *testing.T) {
	site, err := GenerateSite(DefaultSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := site.NewTraffic(1, 1, 7)
	seen := map[int]bool{}
	for i := 0; i < 60000; i++ {
		seen[tr.Next().Endpoint] = true
	}
	// The long tail must eventually touch most endpoints (including
	// out-of-partition spill) — this drives Figure 1's slow tail of
	// live JITing.
	if got := len(seen); got < len(site.Endpoints)*8/10 {
		t.Fatalf("only %d/%d endpoints touched", got, len(site.Endpoints))
	}
}

func TestRNGHelpers(t *testing.T) {
	r := newRNG(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatal("intn range")
		}
		if v := rangeInt(r, 3, 7); v < 3 || v > 7 {
			t.Fatal("rangeInt range")
		}
		if f := r.Float(); f < 0 || f >= 1 {
			t.Fatal("float range")
		}
	}
	if r.Intn(0) != 0 || rangeInt(r, 5, 5) != 5 {
		t.Fatal("degenerate cases")
	}
	// pickWeighted respects weights.
	cum := []float64{1, 1, 1, 11} // only indices 0 and 3 have mass
	counts := map[int]int{}
	for i := 0; i < 2000; i++ {
		counts[pickWeighted(r, cum)]++
	}
	if counts[1] > 0 || counts[2] > 0 {
		t.Fatalf("zero-weight picked: %v", counts)
	}
	if counts[3] < counts[0] {
		t.Fatalf("weights ignored: %v", counts)
	}
}
