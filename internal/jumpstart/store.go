// Package jumpstart implements the operational half of HHVM
// Jump-Start: the profile-package store that seeders publish into and
// consumers draw from, seeder-side validation of freshly collected
// packages (Section VI-A1), randomized package selection (VI-A2), and
// the automatic no-Jump-Start fallback (VI-A3).
package jumpstart

import (
	"math/bits"
	"sync"

	"jumpstart/internal/telemetry"
)

// PackageID identifies a published package within the store.
type PackageID int64

// StoredPackage is one published profile-data package.
type StoredPackage struct {
	ID     PackageID
	Region int
	Bucket int
	// Revision is the build checksum of the source revision the
	// profile was collected against (0 when the publisher predates
	// revision stamping). Consumers on a different build reject or
	// remap the package according to the CompatPolicy.
	Revision uint64
	Data     []byte // serialized prof.Profile
}

// Store is the profile-package database. Packages are keyed by
// (region, semantic bucket); multiple seeders per pair publish
// independently collected packages (Section VI-A2), and consumers pick
// one at random. Packages that fail validation are quarantined instead
// of published, preserved for offline debugging (Section VI-A1: "we
// also store the problematic profile data on a database, so that rare
// bugs ... can later be easily reproduced and debugged").
type Store struct {
	mu     sync.Mutex
	nextID PackageID

	pkgs map[storeKey][]*StoredPackage
	// byID indexes published packages by id. The transport server
	// resolves every chunk RPC through Get, so the lookup must not scan
	// every bucket; Publish and Remove keep the index in lockstep with
	// pkgs.
	byID map[PackageID]*StoredPackage

	// Quarantine is a bounded ring (most recent quarantineCap entries
	// kept, older ones dropped and counted) mirroring the event
	// tracer's design: a long fleet run with a persistently bad seeder
	// must not grow the store without bound.
	quar     []*StoredPackage
	quarHead int // index of the oldest quarantined entry
	quarDrop uint64

	// tel/clock observe store traffic (publish, pick, quarantine,
	// remove). Both may be nil; telemetry never alters store behavior.
	tel   *telemetry.Set
	clock func() float64
}

type storeKey struct{ region, bucket int }

// quarantineCap bounds the quarantine ring.
const quarantineCap = 64

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		pkgs: make(map[storeKey][]*StoredPackage),
		byID: make(map[PackageID]*StoredPackage),
	}
}

// SetTelemetry installs the observation set and the virtual clock used
// to timestamp store events. Either may be nil.
func (s *Store) SetTelemetry(tel *telemetry.Set, clock func() float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tel = tel
	s.clock = clock
}

// now reads the virtual clock; callers must hold s.mu.
func (s *Store) now() float64 {
	if s.clock == nil {
		return 0
	}
	return s.clock()
}

// Publish adds a validated package for (region, bucket) and returns
// its id. The package carries no revision stamp; use PublishRevision
// when the publisher knows its build checksum.
func (s *Store) Publish(region, bucket int, data []byte) PackageID {
	return s.PublishRevision(region, bucket, data, 0)
}

// PublishRevision adds a validated package stamped with the build
// checksum of the source revision it was collected against.
func (s *Store) PublishRevision(region, bucket int, data []byte, revision uint64) PackageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	p := &StoredPackage{
		ID:       s.nextID,
		Region:   region,
		Bucket:   bucket,
		Revision: revision,
		Data:     data,
	}
	k := storeKey{region, bucket}
	s.pkgs[k] = append(s.pkgs[k], p)
	s.byID[p.ID] = p
	s.tel.Counter("store.published_total").Inc()
	s.tel.Event(s.now(), "store", "publish",
		telemetry.I("id", int64(p.ID)),
		telemetry.I("region", int64(region)),
		telemetry.I("bucket", int64(bucket)),
		telemetry.I("bytes", int64(len(data))))
	return p.ID
}

// Quarantine records a package that failed validation. When the
// bounded ring is full the oldest entry is overwritten and counted as
// dropped.
func (s *Store) Quarantine(region, bucket int, data []byte) PackageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	p := &StoredPackage{ID: s.nextID, Region: region, Bucket: bucket, Data: data}
	if len(s.quar) < quarantineCap {
		s.quar = append(s.quar, p)
	} else {
		s.quar[s.quarHead] = p
		s.quarHead = (s.quarHead + 1) % len(s.quar)
		s.quarDrop++
	}
	s.tel.Counter("store.quarantined_total").Inc()
	s.tel.Event(s.now(), "store", "quarantine",
		telemetry.I("id", int64(p.ID)),
		telemetry.I("region", int64(region)),
		telemetry.I("bucket", int64(bucket)),
		telemetry.I("bytes", int64(len(data))))
	return p.ID
}

// Count returns the number of published packages for (region, bucket).
func (s *Store) Count(region, bucket int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pkgs[storeKey{region, bucket}])
}

// QuarantinedCount returns the number of quarantined packages held in
// the ring.
func (s *Store) QuarantinedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.quar)
}

// QuarantineDropped returns how many quarantined packages were evicted
// from the bounded ring.
func (s *Store) QuarantineDropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarDrop
}

// Quarantined returns the quarantined packages, oldest first
// (debugging workflow).
func (s *Store) Quarantined() []*StoredPackage {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*StoredPackage, 0, len(s.quar))
	for i := 0; i < len(s.quar); i++ {
		out = append(out, s.quar[(s.quarHead+i)%len(s.quar)])
	}
	return out
}

// Get returns the published package with the given id (the transport
// server resolves chunk requests through this, so it must be O(1), not
// a scan over every bucket's package list).
func (s *Store) Get(id PackageID) (*StoredPackage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.byID[id]
	return p, ok
}

// Pick returns a uniformly random package for (region, bucket), using
// the caller-supplied random value (consumers re-pick on every
// restart, which is what makes crash loops decay exponentially —
// Section VI-A2). exclude lists package ids to avoid (a consumer
// retrying after a crash avoids the packages that already failed it).
// When every candidate is excluded Pick reports no package rather than
// silently re-offering a known-bad one: handing the retrying consumer
// the exact package that just crashed it would burn its remaining
// attempts and defeat the VI-A2 crash-loop-decay argument, so the
// caller is expected to fall back immediately.
func (s *Store) Pick(region, bucket int, rnd uint64, exclude ...PackageID) (*StoredPackage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := s.pkgs[storeKey{region, bucket}]
	if len(all) == 0 {
		return nil, false
	}
	// Exclusion lists are bounded by the crash-retry depth (a handful of
	// ids at most), so two linear scans over exclude beat rebuilding a
	// map plus a filtered slice on every retry — this path allocates
	// nothing (pinned by TestPickExcludeAllocFree / make alloccheck).
	n := len(all)
	if len(exclude) > 0 {
		n = 0
		for _, p := range all {
			if !idExcluded(p.ID, exclude) {
				n++
			}
		}
		if n == 0 {
			// Guarded rather than relying on the nil-safe telemetry
			// receivers: the variadic Attr slice is built at the call
			// site, which would put an allocation on the no-telemetry
			// retry path the alloccheck test pins.
			if s.tel != nil {
				s.tel.Counter("store.picks_exhausted_total").Inc()
				s.tel.Event(s.now(), "store", "pick-exhausted",
					telemetry.I("candidates", int64(len(all))),
					telemetry.I("excluded", int64(len(exclude))))
			}
			return nil, false
		}
	}
	// Fixed-point bounded draw (multiply-shift): floor(rnd·n / 2^64).
	// Unlike rnd % n, which systematically over-selects low-index
	// packages whenever n does not divide 2^64, this spreads the
	// unavoidable remainder evenly across indices, preserving the
	// Section VI-A2 argument that consumers pick uniformly at random.
	// Walking to the idx-th non-excluded package visits candidates in
	// the same order the old filtered slice held them, so the pick
	// distribution (and every deterministic replay) is unchanged.
	idx, _ := bits.Mul64(rnd, uint64(n))
	var pick *StoredPackage
	if n == len(all) {
		pick = all[idx]
	} else {
		k := uint64(0)
		for _, p := range all {
			if idExcluded(p.ID, exclude) {
				continue
			}
			if k == idx {
				pick = p
				break
			}
			k++
		}
	}
	if s.tel != nil {
		s.tel.Counter("store.picks_total").Inc()
		s.tel.Event(s.now(), "store", "pick",
			telemetry.I("id", int64(pick.ID)),
			telemetry.I("candidates", int64(n)),
			telemetry.I("excluded", int64(len(exclude))))
	}
	return pick, true
}

// idExcluded reports whether id appears in exclude (linear scan; the
// list is crash-retry-depth short).
func idExcluded(id PackageID, exclude []PackageID) bool {
	for _, e := range exclude {
		if e == id {
			return true
		}
	}
	return false
}

// Remove deletes a published package (operational cleanup after a bad
// package is identified in production). The byID index locates the
// package's bucket directly, and the index entry is evicted alongside
// the list entry so a removed id cannot resurface through Get.
func (s *Store) Remove(id PackageID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.byID[id]
	if !ok {
		return false
	}
	k := storeKey{p.Region, p.Bucket}
	list := s.pkgs[k]
	for i, q := range list {
		if q.ID == id {
			copy(list[i:], list[i+1:])
			// Nil the vacated tail slot: the shifted-down append
			// idiom leaves a stale *StoredPackage in the backing
			// array, retaining the package's profile bytes for as
			// long as the bucket's slice lives.
			list[len(list)-1] = nil
			s.pkgs[k] = list[:len(list)-1]
			break
		}
	}
	delete(s.byID, id)
	s.tel.Event(s.now(), "store", "remove", telemetry.I("id", int64(id)))
	return true
}
