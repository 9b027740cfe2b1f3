package jumpstart

import (
	"sync"
	"testing"

	"jumpstart/internal/workload"
)

// TestRemoveDropsReference pins the memory-leak fix in Store.Remove:
// the shifted-down delete must nil the vacated tail slot of the bucket
// slice, or the backing array keeps the removed *StoredPackage (and
// its profile bytes) reachable for the lifetime of the bucket.
func TestRemoveDropsReference(t *testing.T) {
	s := NewStore()
	s.Publish(0, 0, []byte("pkg-a"))
	id2 := s.Publish(0, 0, []byte("pkg-b"))
	s.Publish(0, 0, []byte("pkg-c"))

	// Capture the bucket slice before removal: it shares the backing
	// array the store will shrink, so its tail slot exposes whatever
	// the delete left behind.
	before := s.pkgs[storeKey{0, 0}]
	if len(before) != 3 {
		t.Fatalf("setup: %d packages", len(before))
	}
	if !s.Remove(id2) {
		t.Fatal("remove failed")
	}
	if got := s.Count(0, 0); got != 2 {
		t.Fatalf("count after remove = %d", got)
	}
	if before[2] != nil {
		t.Fatalf("vacated backing-array slot still references package %d", before[2].ID)
	}
	// The retained packages survived the shift intact.
	live := s.pkgs[storeKey{0, 0}]
	if string(live[0].Data) != "pkg-a" || string(live[1].Data) != "pkg-c" {
		t.Fatalf("survivors corrupted: %q %q", live[0].Data, live[1].Data)
	}
}

// TestQuarantineRingBounded pins the bounded-quarantine fix: the store
// keeps only the most recent quarantineCap quarantined packages, counts
// evictions, and returns survivors oldest-first — mirroring the event
// tracer's bounded ring.
func TestQuarantineRingBounded(t *testing.T) {
	s := NewStore()
	const extra = 6
	var ids []PackageID
	for i := 0; i < quarantineCap+extra; i++ {
		ids = append(ids, s.Quarantine(0, 0, []byte{byte(i)}))
	}
	if got := s.QuarantinedCount(); got != quarantineCap {
		t.Fatalf("count = %d, want cap %d", got, quarantineCap)
	}
	if got := s.QuarantineDropped(); got != extra {
		t.Fatalf("dropped = %d, want %d", got, extra)
	}
	q := s.Quarantined()
	for i, p := range q {
		if p.ID != ids[extra+i] {
			t.Fatalf("ring[%d] = id %d, want %d (most recent, oldest-first)", i, p.ID, ids[extra+i])
		}
	}
}

// TestStoreGet covers the transport server's package lookup.
func TestStoreGet(t *testing.T) {
	s := NewStore()
	id := s.Publish(1, 2, []byte("data"))
	p, ok := s.Get(id)
	if !ok || p.Region != 1 || p.Bucket != 2 || string(p.Data) != "data" {
		t.Fatalf("get = %+v ok=%v", p, ok)
	}
	if _, ok := s.Get(id + 99); ok {
		t.Fatal("unknown id found")
	}
}

// TestRemoveEvictsIndex pins the byID index maintenance: Remove must
// evict the index entry alongside the bucket-list entry, or a removed
// package resurfaces through Get (which the transport server uses to
// resolve every chunk RPC).
func TestRemoveEvictsIndex(t *testing.T) {
	s := NewStore()
	id1 := s.Publish(0, 0, []byte("pkg-a"))
	id2 := s.Publish(0, 0, []byte("pkg-b"))
	if !s.Remove(id1) {
		t.Fatal("remove failed")
	}
	if _, ok := s.Get(id1); ok {
		t.Fatal("removed package still resolvable through Get")
	}
	if _, ok := s.byID[id1]; ok {
		t.Fatal("removed package still in the byID index")
	}
	// The survivor is untouched, and re-removing the dead id is a no-op.
	if p, ok := s.Get(id2); !ok || string(p.Data) != "pkg-b" {
		t.Fatalf("survivor lookup = %+v ok=%v", p, ok)
	}
	if s.Remove(id1) {
		t.Fatal("double remove reported success")
	}
}

// TestPickExcludeAllocFree pins the Pick exclusion fix: the retry path
// (exclude list populated, no telemetry) must not allocate — crash
// retries hit it at the consumer's worst moment. Run by make
// alloccheck.
func TestPickExcludeAllocFree(t *testing.T) {
	s := NewStore()
	ids := make([]PackageID, 8)
	for i := range ids {
		ids[i] = s.Publish(0, 0, []byte{byte(i)})
	}
	exclude := []PackageID{ids[1], ids[4], ids[6]}
	rnd := uint64(0)
	avg := testing.AllocsPerRun(200, func() {
		rnd += 0x9e3779b97f4a7c15
		p, ok := s.Pick(0, 0, rnd, exclude...)
		if !ok {
			t.Fatal("pick failed")
		}
		if idExcluded(p.ID, exclude) {
			t.Fatalf("picked excluded package %d", p.ID)
		}
	})
	if avg != 0 {
		t.Fatalf("Pick with exclusions allocates: %v allocs per call", avg)
	}
	// The exhausted path (everything excluded) is the same retry loop
	// one failure deeper; it must be alloc-free too.
	all := append([]PackageID(nil), ids...)
	avg = testing.AllocsPerRun(200, func() {
		if _, ok := s.Pick(0, 0, 12345, all...); ok {
			t.Fatal("exhausted pick succeeded")
		}
	})
	if avg != 0 {
		t.Fatalf("exhausted Pick allocates: %v allocs per call", avg)
	}
}

// TestPickExcludeUniform: with exclusions in force, the draw stays
// near-uniform over the surviving candidates and never lands on an
// excluded id (the linear-scan rewrite must preserve the VI-A2
// distribution the filtered slice gave).
func TestPickExcludeUniform(t *testing.T) {
	s := NewStore()
	ids := make([]PackageID, 5)
	for i := range ids {
		ids[i] = s.Publish(0, 0, []byte{byte(i)})
	}
	exclude := []PackageID{ids[0], ids[3]}
	const n = 30000
	counts := map[PackageID]int{}
	for i := uint64(0); i < n; i++ {
		p, ok := s.Pick(0, 0, workload.Fork(7, i), exclude...)
		if !ok {
			t.Fatal("pick failed")
		}
		counts[p.ID]++
	}
	if counts[ids[0]] != 0 || counts[ids[3]] != 0 {
		t.Fatalf("excluded package picked: %v", counts)
	}
	want := float64(n) / 3
	for _, id := range []PackageID{ids[1], ids[2], ids[4]} {
		got := float64(counts[id])
		if got < 0.95*want || got > 1.05*want {
			t.Fatalf("package %d picked %d times, expected ~%.0f (counts %v)",
				id, counts[id], want, counts)
		}
	}
}

// TestQuarantineConcurrent runs Quarantine from concurrent publishers
// (under -race by make verify) that together overflow the ring several
// times. The invariants that must hold whatever the interleaving: the
// ring never exceeds its cap, every package is either held or counted
// as dropped, and the survivors read back without duplicates.
func TestQuarantineConcurrent(t *testing.T) {
	s := NewStore()
	const publishers = 4
	const perPublisher = 200
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				s.Quarantine(g, i, []byte{byte(g), byte(i)})
			}
		}(g)
	}
	wg.Wait()
	if got := s.QuarantinedCount(); got != quarantineCap {
		t.Fatalf("ring holds %d, want its cap %d", got, quarantineCap)
	}
	held := uint64(s.QuarantinedCount())
	if held+s.QuarantineDropped() != publishers*perPublisher {
		t.Fatalf("accounting leak: held %d + dropped %d != %d",
			held, s.QuarantineDropped(), publishers*perPublisher)
	}
	seen := map[PackageID]bool{}
	for _, p := range s.Quarantined() {
		if seen[p.ID] {
			t.Fatalf("duplicate id %d in ring", p.ID)
		}
		seen[p.ID] = true
	}
}

// TestPickNearUniform asserts the Section VI-A2 property the modulo
// draw weakened: over many well-mixed draws, every package in a bucket
// is selected at close to the uniform rate.
func TestPickNearUniform(t *testing.T) {
	s := NewStore()
	const k = 3
	ids := make([]PackageID, k)
	for i := range ids {
		ids[i] = s.Publish(0, 0, []byte{byte(i)})
	}
	const n = 30000
	counts := map[PackageID]int{}
	for i := uint64(0); i < n; i++ {
		p, ok := s.Pick(0, 0, workload.Fork(99, i))
		if !ok {
			t.Fatal("pick failed")
		}
		counts[p.ID]++
	}
	want := float64(n) / k
	for _, id := range ids {
		got := float64(counts[id])
		if got < 0.95*want || got > 1.05*want {
			t.Fatalf("package %d picked %d times, expected ~%.0f (counts %v)",
				id, counts[id], want, counts)
		}
	}
}
