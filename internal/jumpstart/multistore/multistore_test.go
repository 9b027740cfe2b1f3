package multistore

import (
	"bytes"
	"errors"
	"testing"

	"jumpstart/internal/jumpstart/transport"
	"jumpstart/internal/netsim"
	"jumpstart/internal/workload"
)

// payload builds deterministic pseudo-package bytes.
func payload(n int, seed uint64) []byte {
	s := netsim.NewStream(workload.Fork(seed, 0))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(s.Uint64())
	}
	return out
}

func healthyConfig() Config {
	return Config{
		Regions:        2,
		NodesPerRegion: 3,
		Replicas:       2,
		ChunkSize:      1024,
		Client:         transport.ClientConfig{Budget: 20, RPCTimeout: 1},
		Seed:           11,
	}
}

// TestPublishReplicatesWithinRegion: a publish lands on the bucket's
// primary shard and the K-1 following nodes, nowhere else, and stays
// origin-region-only until propagation.
func TestPublishReplicatesWithinRegion(t *testing.T) {
	h := New(healthyConfig())
	data := payload(3_000, 1)
	e, err := h.Publish(0, 4, 0xabc, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	set := h.ReplicaSet(4) // bucket 4 % 3 nodes = primary 1, replica 2
	if set[0] != 1 || set[1] != 2 {
		t.Fatalf("replica set = %v", set)
	}
	for n := 0; n < 3; n++ {
		want := 0
		if n == 1 || n == 2 {
			want = 1
		}
		if got := h.NodeStore(0, n).Count(0, 4); got != want {
			t.Fatalf("region 0 node %d holds %d packages, want %d", n, got, want)
		}
		if got := h.NodeStore(1, n).Count(1, 4); got != 0 {
			t.Fatalf("region 1 node %d holds packages before propagation", n)
		}
	}
	if !e.InRegion(0) || e.InRegion(1) {
		t.Fatalf("entry regions wrong: r0=%v r1=%v", e.InRegion(0), e.InRegion(1))
	}
}

// TestFetchHealthyNoFailover: with healthy intra links the fetch is
// served by the primary with zero failovers, returning the logical
// entry.
func TestFetchHealthyNoFailover(t *testing.T) {
	h := New(healthyConfig())
	data := payload(2_000, 2)
	e, err := h.Publish(0, 0, 7, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Fetch(0, 0, 12345, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entry != e || res.Failovers != 0 || res.Node != h.ReplicaSet(0)[0] {
		t.Fatalf("res = %+v", res)
	}
	if !bytes.Equal(res.Entry.Payload, data) {
		t.Fatal("payload mismatch")
	}
}

// TestFetchFailsOverToReplica: partitioning the primary's intra link
// pushes the consumer down the replica list; the fetch succeeds with
// one recorded failover.
func TestFetchFailsOverToReplica(t *testing.T) {
	cfg := healthyConfig()
	primary := 0 % cfg.NodesPerRegion
	cfg.Intra.Faults = []netsim.Fault{netsim.Partition(0, 1e9, intraLink(0, primary))}
	h := New(cfg)
	e, err := h.Publish(0, 0, 7, payload(2_000, 3), 0)
	if err == nil {
		// Publish goes through the primary too; under the partition it
		// must fail instead.
		t.Fatal("publish through partitioned primary succeeded")
	}
	_ = e
	// Place the package directly (carry-over path) so fetch has
	// something to fail over to.
	e2 := h.PublishDirect(0, 0, 7, payload(2_000, 3))
	res, err := h.Fetch(0, 0, 99, nil, 0)
	if err != nil {
		t.Fatalf("failover fetch died: %v", err)
	}
	if res.Entry != e2 || res.Failovers != 1 {
		t.Fatalf("res = %+v, want 1 failover onto the replica", res)
	}
	if res.Node == primary {
		t.Fatal("served by the partitioned primary")
	}
}

// TestFetchExhaustedReason: partitioning the whole region's intra
// links exhausts the replica list; the error is ErrExhausted (the
// fleet's distinct failover-exhausted reason) wrapping the last leg's
// ErrBudget.
func TestFetchExhaustedReason(t *testing.T) {
	cfg := healthyConfig()
	cfg.Client.Budget = 5
	cfg.Intra.Faults = []netsim.Fault{netsim.PartitionPrefix(0, 1e9, "intra:r0/")}
	h := New(cfg)
	h.PublishDirect(0, 0, 7, payload(1_000, 4))
	res, err := h.Fetch(0, 0, 5, nil, 0)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
	if res.Failovers != cfg.Replicas {
		t.Fatalf("failovers = %d, want %d", res.Failovers, cfg.Replicas)
	}
	// The last leg's cause survives in the wrapped error.
	if !errors.Is(err, transport.ErrBudget) {
		t.Fatalf("err = %v, want the last leg's ErrBudget", err)
	}
	// Both legs burned their budget: elapsed covers the full walk.
	if res.Elapsed < 2*5-1e-9 {
		t.Fatalf("elapsed = %v, want both replica budgets", res.Elapsed)
	}
}

// TestFetchExcludesLogicalEntries: excluding a logical entry excludes
// its node-local ids on every replica leg.
func TestFetchExcludesLogicalEntries(t *testing.T) {
	h := New(healthyConfig())
	e1, err := h.Publish(0, 0, 7, payload(1_000, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := h.Publish(0, 0, 7, payload(1_000, 6), 0)
	if err != nil {
		t.Fatal(err)
	}
	for rnd := uint64(1); rnd < 2000; rnd += 97 {
		res, err := h.Fetch(0, 0, rnd, []*Entry{e1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Entry != e2 {
			t.Fatalf("excluded entry served (rnd=%d)", rnd)
		}
	}
	// Excluding everything exhausts the walk with the distinct reason.
	// The last leg's cause survives in the wrapped error.
	_, err = h.Fetch(0, 0, 1, []*Entry{e1, e2}, 0)
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, transport.ErrNoPackage) {
		t.Fatalf("err = %v, want ErrExhausted wrapping the last leg's ErrNoPackage", err)
	}
}

// TestPropagateAcrossRegions: a healthy long-haul network carries the
// entry into the other region on the first round; consumers there can
// then fetch it locally.
func TestPropagateAcrossRegions(t *testing.T) {
	h := New(healthyConfig())
	data := payload(4_000, 7)
	e, err := h.Publish(0, 2, 9, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	stats := h.Propagate(0)
	if stats.Attempted != 1 || stats.Transferred != 1 || stats.Failed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if !e.InRegion(1) {
		t.Fatal("entry not marked in region 1")
	}
	res, err := h.Fetch(1, 2, 55, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entry != e || !bytes.Equal(res.Entry.Payload, data) {
		t.Fatalf("cross-region fetch res = %+v", res)
	}
	// Idempotent: nothing left to move.
	if again := h.Propagate(1); again.Attempted != 0 {
		t.Fatalf("second round attempted %d", again.Attempted)
	}
}

// TestPropagateRetriesThroughPartition: while the inter-region links
// are partitioned the transfer fails and the entry stays pending; once
// the partition lifts, the next round converges. Intra-region fetches
// keep working throughout (the fault is prefix-scoped to "inter:").
func TestPropagateRetriesThroughPartition(t *testing.T) {
	cfg := healthyConfig()
	cfg.Client.Budget = 5
	cfg.Inter.Faults = []netsim.Fault{netsim.PartitionPrefix(0, 100, "inter:")}
	h := New(cfg)
	e, err := h.Publish(0, 0, 9, payload(2_000, 8), 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats := h.Propagate(10); stats.Failed != 1 || stats.Transferred != 0 {
		t.Fatalf("partitioned round stats = %+v", stats)
	}
	if e.InRegion(1) {
		t.Fatal("entry crossed a partitioned link")
	}
	// Origin-region consumers are unaffected.
	if _, err := h.Fetch(0, 0, 3, nil, 10); err != nil {
		t.Fatalf("intra fetch under inter partition: %v", err)
	}
	// Destination-region consumers see the exhausted walk.
	if _, err := h.Fetch(1, 0, 3, nil, 10); !errors.Is(err, ErrExhausted) {
		t.Fatalf("pre-propagation fetch err = %v", err)
	}
	// Partition lifts at t=100: the retry converges.
	if stats := h.Propagate(100); stats.Transferred != 1 {
		t.Fatalf("healed round stats = %+v", stats)
	}
	if _, err := h.Fetch(1, 0, 3, nil, 101); err != nil {
		t.Fatalf("post-propagation fetch: %v", err)
	}
}

// TestDeterministicReplay: the same seed and call sequence reproduce
// identical failover walks, elapsed times and propagation outcomes
// under a lossy network.
func TestDeterministicReplay(t *testing.T) {
	run := func() (string, float64, int) {
		cfg := healthyConfig()
		cfg.Intra.DropRate = 0.3
		cfg.Intra.BaseLatency = 0.01
		cfg.Inter.DropRate = 0.6
		cfg.Inter.BaseLatency = 0.2
		h := New(cfg)
		if _, err := h.Publish(0, 0, 1, payload(5_000, 9), 0); err != nil {
			return "publish-fail", 0, 0
		}
		res, err := h.Fetch(0, 0, 77, nil, 1)
		if err != nil {
			return "fetch-fail:" + err.Error(), 0, 0
		}
		stats := h.Propagate(2)
		return "", res.Elapsed, stats.Transferred
	}
	s1, e1, t1 := run()
	s2, e2, t2 := run()
	if s1 != s2 || e1 != e2 || t1 != t2 {
		t.Fatalf("replay diverged: (%q %v %d) vs (%q %v %d)", s1, e1, t1, s2, e2, t2)
	}
}

// TestWipe: a wipe empties every shard and the registry; the hierarchy
// is reusable afterwards.
func TestWipe(t *testing.T) {
	h := New(healthyConfig())
	if _, err := h.Publish(0, 0, 1, payload(1_000, 10), 0); err != nil {
		t.Fatal(err)
	}
	h.Propagate(0)
	h.Wipe()
	if len(h.Entries()) != 0 {
		t.Fatal("registry survived wipe")
	}
	for r := 0; r < 2; r++ {
		for n := 0; n < 3; n++ {
			if h.NodeStore(r, n).Count(r, 0) != 0 {
				t.Fatalf("region %d node %d not wiped", r, n)
			}
		}
	}
	if _, err := h.Fetch(0, 0, 1, nil, 0); err == nil {
		t.Fatal("fetch after wipe succeeded")
	}
	if _, err := h.Publish(0, 0, 2, payload(1_000, 11), 5); err != nil {
		t.Fatalf("publish after wipe: %v", err)
	}
	if _, err := h.Fetch(0, 0, 2, nil, 6); err != nil {
		t.Fatalf("fetch after republish: %v", err)
	}
}
