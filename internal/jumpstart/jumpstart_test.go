package jumpstart

import (
	"errors"
	"strings"
	"testing"

	"jumpstart/internal/prof"
	"jumpstart/internal/server"
	"jumpstart/internal/workload"
)

func testSite(t testing.TB) *workload.Site {
	t.Helper()
	cfg := workload.DefaultSiteConfig()
	cfg.Units = 5
	cfg.HelpersPerUnit = 6
	cfg.EndpointsPerUnit = 3
	site, err := workload.GenerateSite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func fastServerConfig() server.Config {
	cfg := server.DefaultConfig()
	cfg.OfferedRPS = 150
	cfg.TickSeconds = 2
	cfg.ProfileWindow = 300
	cfg.SeederCollectWindow = 250
	cfg.InitCycles = 10e6
	cfg.UnitPreloadCycles = 100e3
	cfg.WarmupRequests = 4
	cfg.MicroSampleEvery = 16
	return cfg
}

var (
	sharedSite *workload.Site
	sharedPkg  []byte
)

func siteAndPackageBytes(t testing.TB) (*workload.Site, []byte) {
	t.Helper()
	if sharedSite == nil {
		sharedSite = testSite(t)
		cfg := fastServerConfig()
		cfg.Mode = server.ModeSeeder
		s, err := server.New(sharedSite, cfg)
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
		sharedPkg = pkg.Encode()
	}
	return sharedSite, append([]byte{}, sharedPkg...)
}

func TestStorePublishPickRemove(t *testing.T) {
	s := NewStore()
	if _, ok := s.Pick(0, 0, 1); ok {
		t.Fatal("pick from empty store")
	}
	id1 := s.Publish(0, 3, []byte("a"))
	id2 := s.Publish(0, 3, []byte("b"))
	s.Publish(1, 3, []byte("c")) // other region
	if s.Count(0, 3) != 2 || s.Count(1, 3) != 1 || s.Count(9, 9) != 0 {
		t.Fatal("counts")
	}
	// Random pick hits both packages across draws. Pick expects a
	// uniform uint64 (it scales it into the candidate range), so feed
	// it well-mixed values rather than small integers.
	seen := map[PackageID]bool{}
	for i := uint64(0); i < 20; i++ {
		p, ok := s.Pick(0, 3, workload.Fork(1, i))
		if !ok || p.Region != 0 || p.Bucket != 3 {
			t.Fatal("pick")
		}
		seen[p.ID] = true
	}
	if !seen[id1] || !seen[id2] {
		t.Fatalf("randomization broken: %v", seen)
	}
	// Exclusion avoids the named package when alternatives exist.
	for i := uint64(0); i < 10; i++ {
		p, _ := s.Pick(0, 3, workload.Fork(2, i), id1)
		if p.ID == id1 {
			t.Fatal("exclusion ignored")
		}
	}
	// Excluding every candidate yields no package: a consumer that has
	// failed on all of them must fall back, not be handed a known-bad
	// package again.
	if _, ok := s.Pick(0, 3, 1, id1, id2); ok {
		t.Fatal("total exclusion must report no package")
	}
	if !s.Remove(id1) || s.Remove(id1) {
		t.Fatal("remove")
	}
	if s.Count(0, 3) != 1 {
		t.Fatal("count after remove")
	}
}

func TestStoreQuarantine(t *testing.T) {
	s := NewStore()
	s.Quarantine(0, 0, []byte("bad"))
	if s.QuarantinedCount() != 1 || len(s.Quarantined()) != 1 {
		t.Fatal("quarantine")
	}
	if s.Count(0, 0) != 0 {
		t.Fatal("quarantined package published")
	}
}

func TestValidatorAcceptsGoodPackage(t *testing.T) {
	site, data := siteAndPackageBytes(t)
	v := &Validator{
		Site:           site,
		ConsumerConfig: fastServerConfig(),
		Requests:       150,
		MaxFaultRate:   0.01,
		Thresholds:     prof.Thresholds{MinFuncs: 10, MinBlocks: 10, MinRequests: 50},
	}
	if err := v.Validate(data); err != nil {
		t.Fatalf("good package rejected: %v", err)
	}
}

func TestValidatorRejectsCorrupt(t *testing.T) {
	site, data := siteAndPackageBytes(t)
	v := &Validator{Site: site, ConsumerConfig: fastServerConfig(), Requests: 50}
	bad := append([]byte{}, data...)
	bad[len(bad)/2] ^= 0xff
	err := v.Validate(bad)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidatorRejectsLowCoverage(t *testing.T) {
	site, data := siteAndPackageBytes(t)
	v := &Validator{
		Site:           site,
		ConsumerConfig: fastServerConfig(),
		Requests:       50,
		Thresholds:     prof.Thresholds{MinFuncs: 100000},
	}
	err := v.Validate(data)
	if !errors.Is(err, ErrCoverage) {
		t.Fatalf("err = %v", err)
	}
}

// stampRevision re-encodes a package with Meta.Revision set to rev.
func stampRevision(t *testing.T, data []byte, rev int64) []byte {
	t.Helper()
	p, err := prof.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	p.Meta.Revision = rev
	return p.Encode()
}

func TestValidatorRejectsRevisionMismatch(t *testing.T) {
	site, data := siteAndPackageBytes(t)
	stamped := stampRevision(t, data, 7)
	v := &Validator{
		Site:           site,
		ConsumerConfig: fastServerConfig(),
		Requests:       150,
		MaxFaultRate:   0.01,
		Thresholds:     prof.Thresholds{MinFuncs: 10, MinBlocks: 10, MinRequests: 50},
		Revision:       9,
	}
	if err := v.Validate(stamped); !errors.Is(err, ErrRevision) {
		t.Fatalf("mismatched revision: err = %v, want ErrRevision", err)
	}
	v.Revision = 7
	if err := v.Validate(stamped); err != nil {
		t.Fatalf("matching revision rejected: %v", err)
	}
}

func TestSeedAndPublish(t *testing.T) {
	site, _ := siteAndPackageBytes(t)
	store := NewStore()
	v := &Validator{
		Site:           site,
		ConsumerConfig: fastServerConfig(),
		Requests:       100,
		MaxFaultRate:   0.01,
		Thresholds:     prof.Thresholds{MinFuncs: 5, MinBlocks: 5, MinRequests: 10},
		Revision:       7,
	}
	cfg := fastServerConfig()
	cfg.Region, cfg.Bucket = 2, 4
	res, err := SeedAndPublish(site, cfg, 7200, v, store)
	if err != nil {
		t.Fatalf("SeedAndPublish: %v", err)
	}
	if res.Published == 0 || res.Package == nil || res.Attempts != 1 {
		t.Fatalf("result = %+v", res)
	}
	if store.Count(2, 4) != 1 {
		t.Fatal("package not published")
	}
	// The series runs from the first tick through the seeder's exit.
	if n := len(res.Ticks); n < 2 || res.Ticks[0].Phase != server.PhaseInit ||
		res.Ticks[n-1].Phase != server.PhaseExited {
		t.Fatalf("tick series of %d ticks does not run from init to exited", n)
	}
	// The store entry holds the stamped, validated encoding.
	entry, ok := store.Get(res.Published)
	if !ok || entry.Revision != 7 {
		t.Fatalf("entry = %+v", entry)
	}
	got, err := prof.Decode(entry.Data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Revision != 7 {
		t.Fatalf("published package revision = %d, want 7", got.Meta.Revision)
	}
}

// TestSeedAndPublishDeadline: a seeder that cannot exit within the
// virtual-time bound publishes nothing and quarantines nothing.
func TestSeedAndPublishDeadline(t *testing.T) {
	site, _ := siteAndPackageBytes(t)
	store := NewStore()
	v := &Validator{Site: site, ConsumerConfig: fastServerConfig()}
	res, err := SeedAndPublish(site, fastServerConfig(), 4, v, store)
	if err == nil || !strings.Contains(err.Error(), "did not finish within 4 virtual seconds") {
		t.Fatalf("err = %v", err)
	}
	if res.Attempts != MaxAttempts || store.Count(0, 0) != 0 || store.QuarantinedCount() != 0 {
		t.Fatalf("result %+v, published %d, quarantined %d",
			res, store.Count(0, 0), store.QuarantinedCount())
	}
}

func TestSeedAndPublishQuarantinesOnValidationFailure(t *testing.T) {
	site, _ := siteAndPackageBytes(t)
	store := NewStore()
	v := &Validator{
		Site:           site,
		ConsumerConfig: fastServerConfig(),
		Requests:       50,
		Thresholds:     prof.Thresholds{MinFuncs: 100000}, // impossible
	}
	_, err := SeedAndPublish(site, fastServerConfig(), 7200, v, store)
	if err == nil {
		t.Fatal("impossible thresholds should fail")
	}
	if store.QuarantinedCount() != MaxAttempts {
		t.Fatalf("quarantined = %d, want one per attempt", store.QuarantinedCount())
	}
	if store.Count(0, 0) != 0 {
		t.Fatal("bad package published")
	}
}

func TestBootConsumerUsesPackage(t *testing.T) {
	site, data := siteAndPackageBytes(t)
	store := NewStore()
	id := store.Publish(0, 0, data)
	srv, info, err := BootConsumer(site, store, BootConfig{Server: fastServerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if !info.UsedJumpStart || info.PackageID != id || info.Attempts != 1 {
		t.Fatalf("info = %+v", info)
	}
	if err := srv.WarmToServing(7200); err != nil {
		t.Fatal(err)
	}
	if srv.Phase() != server.PhaseServing {
		t.Fatalf("phase = %v", srv.Phase())
	}
}

func TestBootConsumerFallsBackWithoutPackages(t *testing.T) {
	site, _ := siteAndPackageBytes(t)
	srv, info, err := BootConsumer(site, NewStore(), BootConfig{Server: fastServerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if info.UsedJumpStart {
		t.Fatal("no packages but used jump-start")
	}
	if info.FallbackReason == FallbackNone {
		t.Fatal("missing fallback reason")
	}
	// The fallback server profiles its own traffic (Figure 3a).
	if err := srv.WarmToServing(7200); err != nil {
		t.Fatal(err)
	}
}

func TestBootConsumerSkipsCorruptPackages(t *testing.T) {
	site, data := siteAndPackageBytes(t)
	store := NewStore()
	bad := append([]byte{}, data...)
	bad[10] ^= 0x55
	store.Publish(0, 0, bad)
	good := store.Publish(0, 0, data)

	// Deterministic rand that hits the corrupt one first.
	seq := []uint64{0, 1, 0, 1}
	i := 0
	rnd := func() uint64 { v := seq[i%len(seq)]; i++; return v }

	srv, info, err := BootConsumer(site, store, BootConfig{
		Server: fastServerConfig(), Rand: rnd,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !info.UsedJumpStart {
		t.Fatalf("should recover with the good package: %+v", info)
	}
	if info.PackageID != good {
		t.Fatalf("picked %d, want %d", info.PackageID, good)
	}
	if info.Attempts < 2 {
		t.Fatalf("attempts = %d, corrupt package not encountered", info.Attempts)
	}
	_ = srv
}

func TestBootConsumerAllCorruptFallsBack(t *testing.T) {
	site, data := siteAndPackageBytes(t)
	store := NewStore()
	for i := 0; i < 3; i++ {
		bad := append([]byte{}, data...)
		bad[20+i] ^= 0x77
		store.Publish(0, 0, bad)
	}
	_, info, err := BootConsumer(site, store, BootConfig{Server: fastServerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if info.UsedJumpStart {
		t.Fatal("all-corrupt store must fall back")
	}
	if info.FallbackReason != FallbackUndecodable {
		t.Fatalf("reason = %q", info.FallbackReason)
	}
}

func TestBootConsumerRevisionMismatchFallsBack(t *testing.T) {
	site, data := siteAndPackageBytes(t)
	store := NewStore()
	store.Publish(0, 0, stampRevision(t, data, 7))
	_, info, err := BootConsumer(site, store, BootConfig{
		Server: fastServerConfig(), Revision: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.UsedJumpStart {
		t.Fatal("a package from another revision must not be booted")
	}
	if info.FallbackReason != FallbackRevisionMismatch {
		t.Fatalf("reason = %q", info.FallbackReason)
	}
}

// TestBootConsumerAllExcludedFallsBackEarly pins the Pick-exclusion
// fix end to end: with two bad packages and MaxAttempts = 3, the
// consumer must fall back as soon as both are excluded instead of
// burning the remaining attempt re-trying a known-bad package.
func TestBootConsumerAllExcludedFallsBackEarly(t *testing.T) {
	site, data := siteAndPackageBytes(t)
	store := NewStore()
	for i := 0; i < 2; i++ {
		bad := append([]byte{}, data...)
		bad[30+i] ^= 0x3c
		store.Publish(0, 0, bad)
	}
	_, info, err := BootConsumer(site, store, BootConfig{Server: fastServerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if info.UsedJumpStart {
		t.Fatal("all-corrupt store must fall back")
	}
	if info.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one per package, then immediate fallback)", info.Attempts)
	}
	if info.FallbackReason != FallbackUndecodable {
		t.Fatalf("reason = %q", info.FallbackReason)
	}
}

// TestMultipleSeedersConsumersSpreadAcrossPackages exercises the full
// Section VI-A2 pattern: several independently seeded packages for one
// (region, bucket), consumers picking randomly across restarts.
func TestMultipleSeedersConsumersSpreadAcrossPackages(t *testing.T) {
	site, data := siteAndPackageBytes(t)
	store := NewStore()
	// Simulate three seeders' packages (byte-identical content is fine
	// for the spreading property; real seeders differ by Seed).
	ids := map[PackageID]bool{}
	for i := 0; i < 3; i++ {
		ids[store.Publish(0, 0, data)] = true
	}
	picked := map[PackageID]int{}
	var x uint64 = 7
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 12; i++ {
		_, info, err := BootConsumer(site, store, BootConfig{
			Server: fastServerConfig(), Rand: rnd,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !info.UsedJumpStart {
			t.Fatal("consumer fell back with good packages available")
		}
		picked[info.PackageID]++
	}
	if len(picked) < 2 {
		t.Fatalf("12 consumers all picked the same package: %v", picked)
	}
	for id := range picked {
		if !ids[id] {
			t.Fatalf("unknown package id %d", id)
		}
	}
}
