package server

import (
	"bytes"
	"testing"
)

// TestSeederDeterminism runs the full pipeline twice — site serving,
// tier-1 profiling, tier-2 instrumented compilation, Vasm-counter
// harvest, function sorting, serialization — and requires byte-equal
// packages. Determinism is what makes the JIT-replay debugging
// workflow (Section III) and multi-seeder validation trustworthy.
func TestSeederDeterminism(t *testing.T) {
	site := testSite(t)
	run := func() []byte {
		cfg := testConfig(ModeSeeder)
		s, err := New(site, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WarmToServing(7200); err != nil {
			t.Fatal(err)
		}
		pkg, ok := s.SeederPackage()
		if !ok {
			t.Fatal("no package")
		}
		return pkg.Encode()
	}
	a := run()
	b := run()
	if !bytes.Equal(a, b) {
		t.Fatalf("seeder runs diverged: %d vs %d bytes", len(a), len(b))
	}
}

// TestSeedersWithDifferentSeedsDiffer checks the flip side: seeders
// with different traffic seeds produce different (but individually
// valid) packages — the randomized-profiles property of Section VI-A2
// relies on genuine package diversity.
func TestSeedersWithDifferentSeedsDiffer(t *testing.T) {
	site := testSite(t)
	run := func(seed uint64) []byte {
		cfg := testConfig(ModeSeeder)
		cfg.Seed = seed
		s, err := New(site, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WarmToServing(7200); err != nil {
			t.Fatal(err)
		}
		pkg, _ := s.SeederPackage()
		return pkg.Encode()
	}
	if bytes.Equal(run(1), run(99)) {
		t.Fatal("different seeds produced identical packages")
	}
}
