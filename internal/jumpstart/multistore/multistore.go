// Package multistore builds the region → global profile-store
// hierarchy on top of the chunked transport: per-(region, bucket)
// store shards with K-way replication inside each region,
// deterministic consumer failover down the replica list, and
// cross-region package propagation over lossy long-haul netsim links.
// It is the planet-scale production shape the paper's §VI single-store
// design grows into: every region serves its consumers from local
// replicas, long-haul links only carry propagation traffic, and a
// consumer only falls back to no-Jump-Start after the whole replica
// list has failed it (recorded as a distinct fallback reason).
//
// Determinism contract: the hierarchy owns no clock and no PRNG state
// beyond a fork counter — every operation takes the caller's virtual
// time and draws from streams forked off the configured seed in call
// order. Called sequentially (the fleet's merge phase), a fixed (seed,
// fault schedule) pair reproduces the exact same RPC timeline.
package multistore

import (
	"errors"
	"fmt"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/jumpstart/transport"
	"jumpstart/internal/netsim"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/workload"
)

// Config parameterizes the hierarchy.
type Config struct {
	// Regions is the number of data-center regions (>= 1).
	Regions int
	// NodesPerRegion is how many store nodes shard each region's
	// buckets (>= 1). A bucket's primary shard is bucket mod
	// NodesPerRegion.
	NodesPerRegion int
	// Replicas is the in-region replication factor K: a published
	// package lands on the primary shard and the K-1 following nodes
	// (capped at NodesPerRegion).
	Replicas int
	// ChunkSize is the transport chunk size (<= 0 selects the
	// transport default).
	ChunkSize int
	// Intra configures the healthy in-region links ("intra:r<R>/n<N>"
	// labels); Inter configures the long-haul inter-region links
	// ("inter:r<SRC>-r<DST>" labels), where brownouts and partitions
	// are scheduled.
	Intra netsim.Config
	Inter netsim.Config
	// Client shapes the per-leg transport clients (retries, backoff,
	// budgets). Its Seed is ignored; leg streams fork off Seed below.
	Client transport.ClientConfig
	// Seed roots every stream the hierarchy forks.
	Seed uint64
}

// withDefaults normalizes the shape parameters.
func (c Config) withDefaults() Config {
	if c.Regions < 1 {
		c.Regions = 1
	}
	if c.NodesPerRegion < 1 {
		c.NodesPerRegion = 1
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.Replicas > c.NodesPerRegion {
		c.Replicas = c.NodesPerRegion
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = transport.DefaultChunkSize
	}
	// Normalized once, so the long-haul transfer loop sees the same
	// effective budget/timeout the per-leg clients use.
	c.Client = c.Client.WithDefaults()
	return c
}

// Entry is one logical package in the hierarchy's registry. The same
// payload lives on several nodes (replicas in the origin region, plus
// any regions propagation has reached), under different node-local
// package ids; the entry ties them together.
type Entry struct {
	// ID is the logical package id (registry sequence number).
	ID int
	// Origin is the region the package was published in.
	Origin int
	// Bucket is the semantic bucket.
	Bucket int
	// Revision is the build checksum stamp.
	Revision uint64
	// Payload is the serialized profile package.
	Payload []byte

	// nodeIDs maps (region, node) to the node-local PackageID.
	nodeIDs map[nodeKey]jumpstart.PackageID
	// regions marks the regions holding replicas of this entry.
	regions map[int]bool
}

// InRegion reports whether the entry has replicas in region r.
func (e *Entry) InRegion(r int) bool { return e.regions[r] }

type nodeKey struct{ region, node int }

// node is one store shard: a package store fronted by a transport
// server.
type node struct {
	store *jumpstart.Store
	srv   *transport.Server
}

// Hierarchy is the multi-region store. Not safe for concurrent use:
// callers (the fleet's sequential merge phase, the CLIs) serialize.
type Hierarchy struct {
	cfg      Config
	nodes    [][]*node // [region][node]
	intraFab *netsim.Fabric
	interFab *netsim.Fabric

	entries []*Entry
	byNode  map[nodeKey]map[jumpstart.PackageID]*Entry

	seq uint64 // stream fork counter

	tel *telemetry.Set
	// spanParent is the enclosing causal span every replica.leg span
	// links under (0 = root); the booting consumer sets it per boot.
	spanParent uint64
}

// New builds the hierarchy with empty stores on every node.
func New(cfg Config) *Hierarchy {
	cfg = cfg.withDefaults()
	return &Hierarchy{
		cfg:      cfg,
		nodes:    newNodes(cfg),
		intraFab: netsim.NewFabric(cfg.Intra),
		interFab: netsim.NewFabric(cfg.Inter),
		byNode:   map[nodeKey]map[jumpstart.PackageID]*Entry{},
	}
}

// newNodes builds the [region][node] grid of empty shards.
func newNodes(cfg Config) [][]*node {
	nodes := make([][]*node, cfg.Regions)
	for r := range nodes {
		nodes[r] = make([]*node, cfg.NodesPerRegion)
		for n := range nodes[r] {
			st := jumpstart.NewStore()
			nodes[r][n] = &node{store: st, srv: transport.NewServer(st, cfg.ChunkSize)}
		}
	}
	return nodes
}

// SetTelemetry installs the observation set (may be nil); telemetry
// never alters behavior.
func (h *Hierarchy) SetTelemetry(tel *telemetry.Set) { h.tel = tel }

// SetSpanParent links subsequent Fetch replica.leg spans under the
// given span ID (0 detaches them back to roots). The hierarchy is
// shared across consumers, so callers set it per boot.
func (h *Hierarchy) SetSpanParent(id uint64) { h.spanParent = id }

// Regions returns the configured region count.
func (h *Hierarchy) Regions() int { return h.cfg.Regions }

// NodeStore exposes one shard's backing store (tests and tooling).
func (h *Hierarchy) NodeStore(region, n int) *jumpstart.Store {
	return h.nodes[region][n].store
}

// Entries returns the logical registry in publish order.
func (h *Hierarchy) Entries() []*Entry { return h.entries }

// ReplicaSet returns the node indices holding a bucket's replicas, in
// failover order (primary first).
func (h *Hierarchy) ReplicaSet(bucket int) []int {
	out := make([]int, h.cfg.Replicas)
	primary := bucket % h.cfg.NodesPerRegion
	for i := range out {
		out[i] = (primary + i) % h.cfg.NodesPerRegion
	}
	return out
}

// intraLink labels a consumer/seeder leg to one in-region node.
func intraLink(region, n int) string { return fmt.Sprintf("intra:r%d/n%d", region, n) }

// InterLink labels the long-haul link from region src to region dst —
// the label prefix "inter:" is what fault schedules target to degrade
// cross-region propagation while in-region traffic stays healthy.
func InterLink(src, dst int) string { return fmt.Sprintf("inter:r%d-r%d", src, dst) }

// fork returns the next derived stream seed.
func (h *Hierarchy) fork(salt uint64) uint64 {
	s := workload.Fork(h.cfg.Seed, salt+h.seq)
	h.seq++
	return s
}

// legClient builds a fresh retrying client to one in-region node, on a
// private virtual clock starting at the caller's time.
func (h *Hierarchy) legClient(region, n int, now float64) (*transport.Client, *netsim.VirtualClock) {
	clock := netsim.NewVirtualClock(now)
	ccfg := h.cfg.Client
	ccfg.Seed = h.fork(0x3a110000)
	conn := transport.NewSimConn(h.nodes[region][n].srv, h.intraFab, intraLink(region, n),
		clock, netsim.NewStream(h.fork(0x3a120000)), ccfg.RPCTimeout)
	cli := transport.NewClient(conn, clock, ccfg)
	cli.SetTelemetry(h.tel)
	return cli, clock
}

// record indexes a node-local replica of e.
func (h *Hierarchy) record(e *Entry, region, n int, id jumpstart.PackageID) {
	k := nodeKey{region, n}
	e.nodeIDs[k] = id
	m := h.byNode[k]
	if m == nil {
		m = map[jumpstart.PackageID]*Entry{}
		h.byNode[k] = m
	}
	m[id] = e
	e.regions[region] = true
}

// replicate stores e on every node of set in region, server-side (in
// region, no network, no client draws) and indexes the copies.
func (h *Hierarchy) replicate(e *Entry, region int, set []int) {
	for _, n := range set {
		h.record(e, region, n, h.nodes[region][n].store.PublishRevision(region, e.Bucket, e.Payload, e.Revision))
	}
}

// newEntry appends a logical registry entry.
func (h *Hierarchy) newEntry(region, bucket int, revision uint64, payload []byte) *Entry {
	e := &Entry{
		ID:       len(h.entries),
		Origin:   region,
		Bucket:   bucket,
		Revision: revision,
		Payload:  payload,
		nodeIDs:  map[nodeKey]jumpstart.PackageID{},
		regions:  map[int]bool{},
	}
	h.entries = append(h.entries, e)
	return e
}

// Publish uploads a package into its origin region: a networked upload
// to the bucket's primary shard over the intra-region fabric (with the
// client's full retry/budget machinery), then server-side replication
// onto the remaining K-1 replicas (direct, in-region — modeled as not
// consuming client draws). The entry starts origin-region-only;
// Propagate carries it across the long-haul links.
func (h *Hierarchy) Publish(region, bucket int, revision uint64, payload []byte, now float64) (*Entry, error) {
	set := h.ReplicaSet(bucket)
	cli, _ := h.legClient(region, set[0], now)
	id, err := cli.Publish(region, bucket, revision, payload)
	if err != nil {
		h.tel.Counter("multistore.publish_fail_total").Inc()
		return nil, err
	}
	e := h.newEntry(region, bucket, revision, payload)
	h.record(e, region, set[0], id)
	h.replicate(e, region, set[1:])
	h.tel.Counter("multistore.publish_ok_total").Inc()
	return e, nil
}

// PublishDirect places a package on the origin region's replicas
// without touching the network (the remap carry-over path, which
// republishes translated packages store-side at a revision push).
func (h *Hierarchy) PublishDirect(region, bucket int, revision uint64, payload []byte) *Entry {
	e := h.newEntry(region, bucket, revision, payload)
	h.replicate(e, region, h.ReplicaSet(bucket))
	return e
}

// FetchResult describes a completed hierarchical fetch.
type FetchResult struct {
	// Entry is the logical package the consumer received.
	Entry *Entry
	// Node is the in-region node index that served it.
	Node int
	// Failovers counts replicas that failed before the serving one —
	// zero on the happy path.
	Failovers int
	// Elapsed is the total virtual time the fetch cost, across every
	// replica leg.
	Elapsed float64
}

// ErrExhausted means every replica in the consumer's region failed the
// fetch — the consumer's jumpstart.FallbackReplicasExhausted, distinct
// from a single-store fetch failure. Fetch wraps it together with the
// last leg's error, so errors.Is still sees that leg's cause.
var ErrExhausted = errors.New("multistore: " + jumpstart.FallbackReplicasExhausted.String())

// Fetch downloads one package for (region, bucket), walking the
// bucket's replica list in deterministic failover order: each leg is a
// full transport fetch (retries, backoff, per-leg budget) against one
// node, and a failed leg falls through to the next replica. The same
// caller-supplied rnd drives every leg's manifest pick, so replicas —
// which hold identical content — agree on the candidate, and a replay
// at any worker count reproduces the same walk. exclude lists logical
// entries the consumer already failed on (translated to each node's
// local ids).
func (h *Hierarchy) Fetch(region, bucket int, rnd uint64, exclude []*Entry, now float64) (*FetchResult, error) {
	res := &FetchResult{Node: -1}
	t := now
	var legErr error
	for legIdx, n := range h.ReplicaSet(bucket) {
		var legExclude []jumpstart.PackageID
		for _, e := range exclude {
			if id, ok := e.nodeIDs[nodeKey{region, n}]; ok {
				legExclude = append(legExclude, id)
			}
		}
		// Each failover leg is one span; the leg client's
		// transport.fetch span (and its RPC/backoff children) nest
		// under it.
		legSpan := h.tel.BeginSpan()
		legStart := t
		cli, clock := h.legClient(region, n, t)
		cli.SetSpanParent(legSpan)
		fr, err := cli.Fetch(region, bucket, rnd, legExclude)
		t = clock.Now()
		h.tel.EndSpan(legSpan, h.spanParent, legStart, t, "multistore",
			fmt.Sprintf("replica.leg[%d]", legIdx),
			telemetry.I("node", int64(n)),
			telemetry.B("ok", err == nil))
		if err == nil {
			e := h.byNode[nodeKey{region, n}][fr.ID]
			if e == nil {
				// A replica served an id the registry does not know —
				// treat as a failed leg rather than crash the consumer.
				legErr = fmt.Errorf("multistore: node %d served unregistered package %d", n, fr.ID)
				res.Failovers++
				continue
			}
			res.Entry = e
			res.Node = n
			res.Elapsed = t - now
			h.tel.Counter("multistore.fetch_ok_total").Inc()
			return res, nil
		}
		legErr = err
		res.Failovers++
		h.tel.Counter("multistore.fetch_failover_total").Inc()
	}
	res.Elapsed = t - now
	h.tel.Counter("multistore.fetch_exhausted_total").Inc()
	return res, fmt.Errorf("%w: %w", ErrExhausted, legErr)
}

// PropagateStats summarizes one propagation round.
type PropagateStats struct {
	// Attempted counts (entry, destination region) transfers tried.
	Attempted int
	// Transferred counts transfers that completed and were replicated
	// into the destination region.
	Transferred int
	// Failed counts transfers the long-haul network defeated this
	// round; they retry on the next cadence.
	Failed int
}

// Propagate runs one cross-region replication round at virtual time
// now: every entry not yet present in some region is pushed over the
// origin→destination long-haul link as a chunked transfer with
// resume-on-retry under the client budget. Lossy or partitioned
// long-haul links fail transfers — the entry stays pending and is
// retried on the next round, so a healed network converges.
func (h *Hierarchy) Propagate(now float64) PropagateStats {
	var stats PropagateStats
	for _, e := range h.entries {
		for dst := 0; dst < h.cfg.Regions; dst++ {
			if e.regions[dst] {
				continue
			}
			stats.Attempted++
			if !h.transfer(e, dst, now) {
				stats.Failed++
				continue
			}
			// Landed: replicate into the destination region's shard set
			// under the entry's bucket.
			h.replicate(e, dst, h.ReplicaSet(e.Bucket))
			stats.Transferred++
		}
	}
	if stats.Attempted > 0 {
		h.tel.Event(now, "multistore", "propagate",
			telemetry.I("attempted", int64(stats.Attempted)),
			telemetry.I("transferred", int64(stats.Transferred)),
			telemetry.I("failed", int64(stats.Failed)))
	}
	return stats
}

// transfer moves one entry's payload over a long-haul link: a chunked
// push with per-RPC timeouts and resume (delivered chunks are not
// resent) under the client budget. Returns false when the budget runs
// out first.
func (h *Hierarchy) transfer(e *Entry, dst int, now float64) bool {
	link := InterLink(e.Origin, dst)
	clock := netsim.NewVirtualClock(now)
	stream := netsim.NewStream(h.fork(0x5e9d0000))
	ccfg := h.cfg.Client
	deadline := now + ccfg.Budget

	// An empty payload still costs the one RPC that announces it.
	chunks := max(1, transport.NumChunks(len(e.Payload), h.cfg.ChunkSize))
	sent := 0
	for sent < chunks {
		if clock.Now() >= deadline {
			h.tel.Counter("multistore.transfer_fail_total").Inc()
			return false
		}
		v := h.interFab.Sample(link, clock.Now(), stream)
		switch {
		case v.Drop || v.Latency >= ccfg.RPCTimeout:
			clock.Sleep(ccfg.RPCTimeout)
		case v.Err:
			clock.Sleep(v.Latency)
		default:
			clock.Sleep(v.Latency)
			sent++
		}
	}
	h.tel.Counter("multistore.transfer_ok_total").Inc()
	return true
}

// Wipe clears every node's store and the logical registry (the fleet
// calls it when a new revision resets the store between deployments).
// The stream fork counter is not reset: draw sequences stay unique
// across the hierarchy's lifetime.
func (h *Hierarchy) Wipe() {
	h.nodes = newNodes(h.cfg)
	h.entries = nil
	h.byNode = map[nodeKey]map[jumpstart.PackageID]*Entry{}
}
