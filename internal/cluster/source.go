package cluster

import (
	"cmp"
	"slices"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/jumpstart/multistore"
	"jumpstart/internal/jumpstart/transport"
	"jumpstart/internal/netsim"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/workload"
)

// packageSource is where the fleet's packages are stored and fetched
// from. The per-(region, bucket) package lists themselves live on the
// Fleet in every mode; a source adds the store behind them and resolves
// a fetched package back to its list position by the store identity
// the list record carries (the lists are a handful of packages long).
// NewFleet picks one of the three implementations; nothing else in the
// package knows which. Every method runs on the sequential merge
// phase, against private virtual clocks starting at Fleet.now, so a
// source can never perturb worker-count determinism. A source reads
// the fleet (clock, revision, seed, lists) but changes it only through
// Fleet.register and Fleet.addPackage; every count comes back as a
// return value and is booked by the Fleet.
type packageSource interface {
	// publish stores one seeder output and reports the outcome through
	// Fleet.register.
	publish(key [2]int, info pkgInfo)
	// carry re-stores a package that survived a push, at the new
	// revision, and returns it with its new store identity.
	carry(key [2]int, info pkgInfo) pkgInfo
	// fetch picks and downloads one package for s's boot from the
	// non-empty bucket list. avoid is the list index of the package
	// that just crashed s when an alternative exists, else -1.
	fetch(s *simServer, rnd uint64, list []pkgInfo, avoid int) fetched
	// reset empties the store: a new revision's packages live in a
	// fresh namespace.
	reset()
	// step runs the source's per-tick background work and returns the
	// cross-region transfers it completed and lost.
	step() (transferred, failed int)
	// fetchAttrs appends what a boot event reports about the fetch
	// behind it, beyond the package index.
	fetchAttrs(attrs []telemetry.Attr, got fetched) []telemetry.Attr
	// flush publishes whatever seeder outputs the source still buffers.
	flush()
}

// newSource selects the fleet's package source from Config.Transport.
func newSource(f *Fleet) packageSource {
	if f.cfg.Transport == nil {
		return memSource{f}
	}
	tc := *f.cfg.Transport
	if tc.PackageBytes <= 0 {
		tc.PackageBytes = 4096
	}
	if tc.Multi == nil {
		return newTransportSource(f, tc)
	}
	return newMultiSource(f, tc, *tc.Multi)
}

// fetched is the outcome of one packageSource.fetch.
type fetched struct {
	idx       int     // index into the bucket list; -1 on failure or when the package has no local record
	elapsed   float64 // virtual seconds the fetch burned
	failovers int     // replica legs that failed before the fetch was served
	reason    string  // why the fetch failed ("" = it succeeded)
}

// fetchSecondsBounds buckets per-boot fetch time (virtual seconds).
var fetchSecondsBounds = []float64{0.01, 0.1, 1, 5, 15, 60}

// sortedKeys returns m's (region, bucket) keys in ascending order, so
// walks that draw from RNG streams never depend on map iteration.
func sortedKeys[V any](m map[[2]int]V) [][2]int {
	keys := make([][2]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return keys
}

// memSource is the in-memory store: the bucket lists are the store.
// Every fleet without a Transport runs on it, the benchmark's
// fleet_direct workload included. transportSource embeds it for the
// Fleet back-pointer and the hooks a single store has no use for.
type memSource struct{ f *Fleet }

func (m memSource) publish(key [2]int, info pkgInfo) { m.f.register(key, info, nil) }
func (memSource) reset()                             {}
func (memSource) step() (transferred, failed int)    { return 0, 0 }
func (memSource) flush()                             {}

func (memSource) carry(_ [2]int, info pkgInfo) pkgInfo { return info }

func (memSource) fetchAttrs(attrs []telemetry.Attr, _ fetched) []telemetry.Attr { return attrs }

// fetch is the paper's randomized selection, skipping the exact
// package that just crashed the server. It costs no virtual time (an
// instant child marks it in the boot tree) and must stay
// allocation-free beyond that span: whole fleets boot through it.
func (m memSource) fetch(s *simServer, rnd uint64, list []pkgInfo, avoid int) fetched {
	idx := int(rnd % uint64(len(list)))
	if idx == avoid {
		idx = (idx + 1) % len(list)
	}
	m.f.tel.SpanUnder(s.bootSpan, m.f.now, m.f.now, "boot", "store.pick",
		telemetry.I("pkg", int64(idx)))
	return fetched{idx: idx}
}

// payloads mints the deterministic synthetic package bodies seeders
// upload. The transport moves opaque bytes; the fleet never decodes
// them.
type payloads struct {
	seed uint64
	seq  uint64
	size int
}

func (p *payloads) next() []byte {
	p.seq++
	st := netsim.NewStream(workload.Fork(p.seed, 0x9b110000+p.seq))
	out := make([]byte, p.size)
	for i := 0; i < len(out); i += 8 {
		v := st.Uint64()
		for j := 0; j < 8 && i+j < len(out); j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
	return out
}

// transportSource routes publishes and fetches through one networked
// profile store over the simulated fabric.
type transportSource struct {
	memSource
	cfg TransportConfig
	payloads
	fab      *netsim.Fabric
	store    *jumpstart.Store
	srv      *transport.Server
	fetchSeq uint64
}

func newTransportSource(f *Fleet, cfg TransportConfig) *transportSource {
	t := &transportSource{memSource: memSource{f}, cfg: cfg, fab: netsim.NewFabric(cfg.Net),
		payloads: payloads{seed: f.cfg.Seed, size: cfg.PackageBytes}}
	t.reset()
	return t
}

func (t *transportSource) reset() {
	t.store = jumpstart.NewStore()
	t.srv = transport.NewServer(t.store, t.cfg.ChunkSize)
	t.srv.SetTelemetry(t.f.tel)
}

// client builds a single-use store client whose fault and jitter
// streams are forked from the fleet seed and a fetch sequence number —
// fully deterministic, independent of worker count, and decoupled from
// the fleet RNG.
func (t *transportSource) client(link string) (*transport.Client, *netsim.VirtualClock) {
	t.fetchSeq++
	root := workload.Fork(t.f.cfg.Seed, 0xf17c0000+t.fetchSeq)
	clock := netsim.NewVirtualClock(t.f.now)
	conn := transport.NewSimConn(t.srv, t.fab, link, clock,
		netsim.NewStream(workload.Fork(root, 0)), t.cfg.Client.RPCTimeout)
	ccfg := t.cfg.Client
	ccfg.Seed = workload.Fork(root, 1)
	cli := transport.NewClient(conn, clock, ccfg)
	cli.SetTelemetry(t.f.tel)
	return cli, clock
}

// publish uploads the package body through the retrying client; a
// terminal failure (store unreachable for the whole publish budget)
// drops the package — consumers degrade to no-Jump-Start boots.
func (t *transportSource) publish(key [2]int, info pkgInfo) {
	info.payload = t.next()
	cli, _ := t.client("seeder")
	var err error
	info.id, err = cli.Publish(key[0], key[1], t.f.revision, info.payload)
	t.f.register(key, info, err)
}

func (t *transportSource) carry(key [2]int, info pkgInfo) pkgInfo {
	info.id = t.store.PublishRevision(key[0], key[1], info.payload, t.f.revision)
	return info
}

// fetch runs the whole retrying client state machine on a private
// virtual clock starting at Fleet.now.
func (t *transportSource) fetch(s *simServer, rnd uint64, list []pkgInfo, avoid int) fetched {
	var exclude []jumpstart.PackageID
	if avoid >= 0 {
		exclude = append(exclude, list[avoid].id)
	}
	cli, clock := t.client("consumer")
	cli.SetSpanParent(s.bootSpan)
	res, err := cli.Fetch(s.region, s.bucket, rnd, exclude)
	got := fetched{idx: -1, elapsed: clock.Now() - t.f.now}
	t.f.tel.Histogram("fleet.fetch_seconds", fetchSecondsBounds).Observe(got.elapsed)
	if err != nil {
		got.reason = cli.PickFailure()
	} else {
		got.idx = slices.IndexFunc(list, func(p pkgInfo) bool { return p.id == res.ID })
	}
	return got
}

func (*transportSource) fetchAttrs(attrs []telemetry.Attr, got fetched) []telemetry.Attr {
	return append(attrs, telemetry.F("elapsed", got.elapsed))
}

// multiSource is the multi-region hierarchy: per-region sharded stores
// with K-way replication, consumer failover down the replica list,
// cadenced cross-region propagation, and optional seeder aggregation.
type multiSource struct {
	f *Fleet
	h *multistore.Hierarchy
	payloads
	propagateEvery float64
	lastProp       float64
	aggregate      int                  // seeder outputs per consensus package (<= 1: off)
	aggBuf         map[[2]int][]pkgInfo // buffered seeder outputs awaiting consensus
}

func newMultiSource(f *Fleet, tc TransportConfig, mc MultiConfig) *multiSource {
	if mc.PropagateEvery <= 0 {
		mc.PropagateEvery = 60
	}
	m := &multiSource{f: f, propagateEvery: mc.PropagateEvery, aggregate: mc.AggregateSeeders,
		payloads: payloads{seed: f.cfg.Seed, size: tc.PackageBytes}}
	m.h = multistore.New(multistore.Config{
		Regions:        f.cfg.Regions,
		NodesPerRegion: mc.NodesPerRegion,
		Replicas:       mc.Replicas,
		ChunkSize:      tc.ChunkSize,
		Intra:          tc.Net,
		Inter:          mc.InterNet,
		Client:         tc.Client,
		Seed:           workload.Fork(f.cfg.Seed, 0x9e610000),
	})
	m.h.SetTelemetry(f.tel)
	m.reset()
	return m
}

func (m *multiSource) reset() {
	m.h.Wipe()
	m.aggBuf = make(map[[2]int][]pkgInfo)
}

// publish buffers the seeder output for consensus when aggregation is
// on, publishing once the bucket's buffer is full.
func (m *multiSource) publish(key [2]int, info pkgInfo) {
	info.payload = m.next()
	if m.aggregate > 1 {
		m.aggBuf[key] = append(m.aggBuf[key], info)
		m.f.tel.Event(m.f.now, "fleet", "aggregate-buffer",
			telemetry.I("region", int64(key[0])),
			telemetry.I("bucket", int64(key[1])),
			telemetry.I("buffered", int64(len(m.aggBuf[key]))))
		if len(m.aggBuf[key]) < m.aggregate {
			return
		}
		info = m.consume(key)
	}
	m.upload(key, info)
}

// flush publishes every partial consensus buffer, so a bucket with
// fewer seeders than AggregateSeeders still publishes. Keys are walked
// sorted so the publish order, and thus every downstream stream fork,
// is deterministic.
func (m *multiSource) flush() {
	for _, key := range sortedKeys(m.aggBuf) {
		m.upload(key, m.consume(key))
	}
}

// consume folds key's buffered seeder outputs into one package.
func (m *multiSource) consume(key [2]int) pkgInfo {
	buf := m.aggBuf[key]
	delete(m.aggBuf, key)
	info := m.consensusOf(buf)
	m.f.tel.SpanUnder(0, m.f.now, m.f.now, "fleet", "aggregate.consume",
		telemetry.I("region", int64(key[0])),
		telemetry.I("bucket", int64(key[1])),
		telemetry.I("inputs", int64(len(buf))),
		telemetry.B("defective", info.defective))
	return info
}

// consensusOf folds buffered seeder outputs into one consensus
// package: defective only when a majority of the inputs were
// (validation by voting — one bad seeder is outvoted instead of
// poisoning the bucket), with a fresh deterministic payload standing
// in for the prof.Aggregate merge the real pipeline runs.
func (m *multiSource) consensusOf(buf []pkgInfo) pkgInfo {
	if len(buf) == 1 {
		return buf[0]
	}
	bad := 0
	for _, b := range buf {
		if b.defective {
			bad++
		}
	}
	return pkgInfo{
		defective:  bad*2 > len(buf),
		aggregated: true,
		// The merged profile inherits the first input's geometry — the
		// aggregation pipeline runs per (region, bucket), where seeder
		// hardware is typically uniform.
		geom:    buf[0].geom,
		payload: m.next(),
	}
}

// upload publishes one package (individual or consensus) into its
// origin region over the network.
func (m *multiSource) upload(key [2]int, info pkgInfo) {
	var err error
	info.entry, err = m.h.Publish(key[0], key[1], m.f.revision, info.payload, m.f.now)
	m.f.register(key, info, err, telemetry.B("aggregated", info.aggregated))
}

// carry is a control-plane copy, not a seeder upload: the survivor
// lands directly on its region's replica set.
func (m *multiSource) carry(key [2]int, info pkgInfo) pkgInfo {
	info.entry = m.h.PublishDirect(key[0], key[1], m.f.revision, info.payload)
	return info
}

// step runs a cross-region propagation round on its cadence and
// appends newly-arrived entries to their destination regions' bucket
// lists, making them visible to that region's consumers.
func (m *multiSource) step() (transferred, failed int) {
	f := m.f
	if f.now-m.lastProp < m.propagateEvery {
		return 0, 0
	}
	m.lastProp = f.now
	stats := m.h.Propagate(f.now)
	if stats.Transferred == 0 {
		return 0, stats.Failed
	}
	for _, e := range m.h.Entries() {
		holds := func(p pkgInfo) bool { return p.entry == e }
		// Every entry sits in its origin region's list from the moment
		// it was published or carried; an arrival copies that record.
		origin := f.packages[[2]int{e.Origin, e.Bucket}]
		info := origin[slices.IndexFunc(origin, holds)]
		for r := 0; r < f.cfg.Regions; r++ {
			if key := [2]int{r, e.Bucket}; e.InRegion(r) && !slices.ContainsFunc(f.packages[key], holds) {
				f.addPackage(key, info)
			}
		}
	}
	return stats.Transferred, stats.Failed
}

// fetch walks the region's replica set in deterministic failover
// order; a fully exhausted walk fails with the distinct "replica
// failover exhausted" reason.
func (m *multiSource) fetch(s *simServer, rnd uint64, list []pkgInfo, avoid int) fetched {
	var exclude []*multistore.Entry
	if avoid >= 0 {
		exclude = append(exclude, list[avoid].entry)
	}
	m.h.SetSpanParent(s.bootSpan)
	res, err := m.h.Fetch(s.region, s.bucket, rnd, exclude, m.f.now)
	m.h.SetSpanParent(0)
	got := fetched{idx: -1, elapsed: res.Elapsed, failovers: res.Failovers}
	m.f.tel.Histogram("fleet.fetch_seconds", fetchSecondsBounds).Observe(res.Elapsed)
	if err != nil {
		got.reason = m.h.FetchFailure()
	} else {
		got.idx = slices.IndexFunc(list, func(p pkgInfo) bool { return p.entry == res.Entry })
	}
	return got
}

func (*multiSource) fetchAttrs(attrs []telemetry.Attr, got fetched) []telemetry.Attr {
	return append(attrs, telemetry.I("failovers", int64(got.failovers)), telemetry.F("elapsed", got.elapsed))
}
