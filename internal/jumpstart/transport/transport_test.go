package transport

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/netsim"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/workload"
)

// testPayload builds a deterministic pseudo-package of n bytes. The
// transport layer never decodes packages, so arbitrary bytes exercise
// it fully.
func testPayload(n int, seed uint64) []byte {
	s := netsim.NewStream(workload.Fork(seed, 0))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(s.Uint64())
	}
	return out
}

// newTestStack publishes one payload and wires a healthy sim client
// over it.
func newTestStack(t *testing.T, payload []byte, chunkSize int, net netsim.Config,
	ccfg ClientConfig) (*Server, *Client, *netsim.VirtualClock, jumpstart.PackageID) {
	t.Helper()
	store := jumpstart.NewStore()
	id := store.Publish(0, 0, payload)
	srv := NewServer(store, chunkSize)
	clock := netsim.NewVirtualClock(0)
	conn := NewSimConn(srv, netsim.NewFabric(net), "client", clock,
		netsim.NewStream(workload.Fork(42, 7)), ccfg.WithDefaults().RPCTimeout)
	return srv, NewClient(conn, clock, ccfg), clock, id
}

func TestFetchRoundTripHealthy(t *testing.T) {
	payload := testPayload(10_000, 1)
	_, cli, clock, id := newTestStack(t, payload, 1024, netsim.Config{}, ClientConfig{})
	res, err := cli.Fetch(0, 0, 12345, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != id || !bytes.Equal(res.Data, payload) {
		t.Fatalf("payload mismatch: id=%d len=%d", res.ID, len(res.Data))
	}
	if res.Chunks != 10 || res.ChunkRPC != 10 || res.Attempts != 1 {
		t.Fatalf("result = %+v", res)
	}
	// Healthy zero-latency network: the fetch is free in virtual time
	// (this is the transport's perf-neutrality contract).
	if res.Elapsed != 0 || clock.Now() != 0 {
		t.Fatalf("healthy fetch cost %v virtual seconds", res.Elapsed)
	}
}

func TestFetchNoPackage(t *testing.T) {
	_, cli, _, id := newTestStack(t, testPayload(100, 2), 64, netsim.Config{}, ClientConfig{})
	if _, err := cli.Fetch(3, 9, 1, nil); !errors.Is(err, ErrNoPackage) {
		t.Fatalf("err = %v", err)
	}
	if cli.PickFailure() != jumpstart.FallbackNoPackage {
		t.Fatalf("failure = %q", cli.PickFailure())
	}
	// All candidates excluded behaves identically (the Pick-exclusion
	// fix reaches through the network).
	if _, err := cli.Fetch(0, 0, 1, []jumpstart.PackageID{id}); !errors.Is(err, ErrNoPackage) {
		t.Fatalf("excluded err = %v", err)
	}
	if _, ok := cli.Pick(0, 0, 1, id); ok {
		t.Fatal("Pick must mirror Fetch failure")
	}
}

// dropNthChunkConn fails the nth chunk RPC exactly once — the
// mid-transfer drop of the resume test.
type dropNthChunkConn struct {
	Conn
	n     int
	calls int
	fired bool
}

func (d *dropNthChunkConn) Chunk(id jumpstart.PackageID, idx int) ([]byte, error) {
	d.calls++
	if d.calls == d.n && !d.fired {
		d.fired = true
		return nil, ErrTimeout
	}
	return d.Conn.Chunk(id, idx)
}

// TestChunkResumeAfterMidTransferDrop pins the content-addressed
// resume property: after a drop on chunk k, the retry fetches only the
// chunks it does not already hold — one extra chunk RPC, not a full
// restart.
func TestChunkResumeAfterMidTransferDrop(t *testing.T) {
	for _, dropAt := range []int{1, 5, 10} {
		payload := testPayload(10_000, 3) // 10 chunks of 1024
		store := jumpstart.NewStore()
		store.Publish(0, 0, payload)
		srv := NewServer(store, 1024)
		clock := netsim.NewVirtualClock(0)
		base := NewSimConn(srv, netsim.NewFabric(netsim.Config{}), "c", clock,
			netsim.NewStream(1), 1)
		conn := &dropNthChunkConn{Conn: base, n: dropAt}
		cli := NewClient(conn, clock, ClientConfig{})
		res, err := cli.Fetch(0, 0, 99, nil)
		if err != nil {
			t.Fatalf("dropAt=%d: %v", dropAt, err)
		}
		if !bytes.Equal(res.Data, payload) {
			t.Fatalf("dropAt=%d: payload corrupted", dropAt)
		}
		if res.Attempts != 2 {
			t.Fatalf("dropAt=%d: attempts = %d", dropAt, res.Attempts)
		}
		// 10 successful chunk fetches + the 1 dropped RPC. A restart
		// would have cost 10 + dropAt.
		if res.ChunkRPC != 11 {
			t.Fatalf("dropAt=%d: chunk RPCs = %d, want 11 (resume, not restart)", dropAt, res.ChunkRPC)
		}
	}
}

// corruptOnceConn corrupts the first chunk's bytes once; the
// client must reject it by content address and re-fetch.
type corruptOnceConn struct {
	Conn
	fired bool
}

func (c *corruptOnceConn) Chunk(id jumpstart.PackageID, idx int) ([]byte, error) {
	b, err := c.Conn.Chunk(id, idx)
	if err != nil || c.fired {
		return b, err
	}
	c.fired = true
	bad := append([]byte{}, b...)
	bad[len(bad)/2] ^= 0xff
	return bad, nil
}

func TestChunkVerificationRejectsCorruption(t *testing.T) {
	payload := testPayload(5_000, 4)
	store := jumpstart.NewStore()
	store.Publish(0, 0, payload)
	srv := NewServer(store, 2048)
	clock := netsim.NewVirtualClock(0)
	base := NewSimConn(srv, netsim.NewFabric(netsim.Config{}), "c", clock, netsim.NewStream(2), 1)
	cli := NewClient(&corruptOnceConn{Conn: base}, clock, ClientConfig{})
	res, err := cli.Fetch(0, 0, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, payload) {
		t.Fatal("corrupted chunk reached the payload")
	}
	if res.Attempts < 2 {
		t.Fatal("corruption never forced a retry")
	}
}

// retryTimeline fetches under a lossy fabric and returns the virtual
// times of every retry event.
func retryTimeline(t *testing.T, seed uint64) ([]float64, error) {
	t.Helper()
	store := jumpstart.NewStore()
	store.Publish(0, 0, testPayload(4_000, 5))
	srv := NewServer(store, 1024)
	clock := netsim.NewVirtualClock(0)
	// 70% drop: plenty of retries, but fetches eventually succeed.
	fab := netsim.NewFabric(netsim.Config{DropRate: 0.7, BaseLatency: 0.01})
	conn := NewSimConn(srv, fab, "c", clock, netsim.NewStream(workload.Fork(seed, 0)), 0.5)
	cli := NewClient(conn, clock, ClientConfig{Seed: seed, Budget: 300})
	tel := telemetry.NewSet()
	cli.SetTelemetry(tel)
	_, err := cli.Fetch(0, 0, 11, nil)
	var times []float64
	for _, ev := range tel.Trace.Events() {
		if ev.Cat == "transport" && ev.Name == "retry" {
			times = append(times, ev.T)
		}
	}
	return times, err
}

// TestBackoffScheduleDeterministic pins the deterministic-jitter
// contract: the same seed produces the exact same retry timeline, a
// different seed a different one.
func TestBackoffScheduleDeterministic(t *testing.T) {
	a, errA := retryTimeline(t, 1001)
	b, errB := retryTimeline(t, 1001)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("outcome diverged: %v vs %v", errA, errB)
	}
	if len(a) < 2 {
		t.Fatalf("only %d retries; lossy fabric not exercised", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("retry counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("retry %d at %v vs %v", i, a[i], b[i])
		}
	}
	c, _ := retryTimeline(t, 2002)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical retry timelines")
	}
}

// TestBackoffCappedExponential checks the schedule's shape directly:
// doubling up to the cap, jitter within [0.5, 1).
func TestBackoffCappedExponential(t *testing.T) {
	cli := NewClient(nil, netsim.NewVirtualClock(0), ClientConfig{
		BackoffBase: 0.1, BackoffCap: 1, Seed: 9,
	})
	for attempt := 1; attempt <= 8; attempt++ {
		ideal := 0.1 * float64(int(1)<<(attempt-1))
		if ideal > 1 {
			ideal = 1
		}
		for trial := 0; trial < 20; trial++ {
			got := cli.backoff(attempt, netsim.NewStream(workload.Fork(9, uint64(trial))))
			if got < 0.5*ideal-1e-12 || got >= ideal {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, got, 0.5*ideal, ideal)
			}
		}
	}
}

// TestBudgetExhaustionFallsBack: a fully dropped network exhausts the
// per-fetch deadline budget; the failure is ErrBudget with the
// fallback reason recorded, and virtual time never overshoots the
// budget window.
func TestBudgetExhaustionFallsBack(t *testing.T) {
	_, cli, clock, _ := newTestStack(t, testPayload(2_000, 6), 512,
		netsim.Config{DropRate: 1}, ClientConfig{Budget: 20, RPCTimeout: 1})
	res, err := cli.Fetch(0, 0, 5, nil)
	if !errors.Is(err, ErrBudget) || res != nil {
		t.Fatalf("err = %v res = %v", err, res)
	}
	if cli.PickFailure() != jumpstart.FallbackFetchBudget {
		t.Fatalf("failure = %q", cli.PickFailure())
	}
	if now := clock.Now(); now < 19 || now > 20+1e-9 {
		t.Fatalf("budget window not honored: spent %v of 20", now)
	}
	// The budget is per fetch: a second Pick on the same client arms a
	// fresh window and burns it in full against the dead network rather
	// than failing instantly on the first fetch's expired deadline.
	before := clock.Now()
	if _, ok := cli.Pick(0, 0, 6); ok {
		t.Fatal("post-budget pick succeeded on a fully dropped network")
	}
	// The window may overshoot by at most one in-flight RPC timeout.
	if spent := clock.Now() - before; spent < 19 || spent > 21+1e-9 {
		t.Fatalf("second pick spent %v of its own 20s budget", spent)
	}
}

// TestBudgetRearmsPerFetch is the regression test for the stale-budget
// bug: the deadline used to be armed once per boot, so any fetch issued
// after a budget-exhausting boot — a lazy page-in, a reused client's
// next boot — inherited the expired deadline and failed instantly with
// ErrBudget. A second fetch after a slow first one must get its own
// fresh window, with nothing to reset in between.
func TestBudgetRearmsPerFetch(t *testing.T) {
	net := netsim.Config{
		BaseLatency: 0.01,
		Faults:      []netsim.Fault{netsim.Partition(0, 100, "")},
	}
	payload := testPayload(2_000, 12)
	_, cli, clock, _ := newTestStack(t, payload, 512, net,
		ClientConfig{Budget: 10, RPCTimeout: 1})

	// Fetch 1: the partition eats the whole budget.
	if _, err := cli.Fetch(0, 0, 5, nil); !errors.Is(err, ErrBudget) {
		t.Fatalf("fetch 1 err = %v, want ErrBudget", err)
	}
	if clock.Now() > 10+1e-9 {
		t.Fatalf("fetch 1 overshot its budget: %v", clock.Now())
	}

	// The partition ends; fetch 2 starts well after fetch 1's deadline
	// and must succeed on its own window without any explicit reset.
	clock.Sleep(100 - clock.Now())
	res, err := cli.Fetch(0, 0, 6, nil)
	if err != nil {
		t.Fatalf("fetch 2 after exhausted fetch 1: %v", err)
	}
	if !bytes.Equal(res.Data, payload) {
		t.Fatal("fetch 2 payload mismatch")
	}
	if res.Elapsed > 1 {
		t.Fatalf("fetch 2 on a healthy link took %v", res.Elapsed)
	}
}

// TestFetchSurvivesBrownout: a brownout window delays but does not
// doom a fetch with enough budget; the elapsed time lands inside the
// window's tail or after it.
func TestFetchSurvivesBrownout(t *testing.T) {
	net := netsim.Config{
		BaseLatency: 0.01,
		Faults:      []netsim.Fault{netsim.Brownout(0, 15, 0.95, 0.2)},
	}
	payload := testPayload(4_000, 8)
	_, cli, clock, _ := newTestStack(t, payload, 1024, net, ClientConfig{Budget: 120, RPCTimeout: 1})
	res, err := cli.Fetch(0, 0, 21, nil)
	if err != nil {
		t.Fatalf("fetch died in brownout: %v", err)
	}
	if !bytes.Equal(res.Data, payload) {
		t.Fatal("payload mismatch")
	}
	if res.Attempts < 2 {
		t.Fatal("brownout produced no retries")
	}
	if clock.Now() <= 1 {
		t.Fatalf("brownout cost no time: %v", clock.Now())
	}
}

// TestHTTPRoundTrip drives the real HTTP path end to end on localhost:
// publish over POST, manifest+chunks over GET, byte-exact payload.
func TestHTTPRoundTrip(t *testing.T) {
	store := jumpstart.NewStore()
	srv := NewServer(store, 2048)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	payload := testPayload(9_000, 9)
	conn := NewHTTPConn(ts.URL, 5)
	cli := NewClient(conn, NewWallClock(), ClientConfig{Budget: 10})

	id, err := cli.Publish(2, 3, 0xfeed, payload)
	if err != nil {
		t.Fatal(err)
	}
	if store.Count(2, 3) != 1 {
		t.Fatal("publish did not land in the store")
	}
	res, err := cli.Fetch(2, 3, 77, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != id || !bytes.Equal(res.Data, payload) {
		t.Fatalf("HTTP round trip corrupted payload (id=%d len=%d)", res.ID, len(res.Data))
	}
	if res.Revision != 0xfeed {
		t.Fatalf("revision stamp lost over HTTP: got %x, want feed", res.Revision)
	}
	// Wrong bucket 404s into ErrNoPackage.
	if _, err := cli.Fetch(2, 4, 77, nil); !errors.Is(err, ErrNoPackage) {
		t.Fatalf("missing bucket err = %v", err)
	}
}

// TestHTTPHandlerRejectsBadRequests covers the handler's validation
// surface.
func TestHTTPHandlerRejectsBadRequests(t *testing.T) {
	srv := NewServer(jumpstart.NewStore(), 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{
		"/manifest?region=x&bucket=0&rnd=1",
		"/manifest?region=0&bucket=0&rnd=no",
		"/manifest?region=0&bucket=0&rnd=1&exclude=a",
		"/chunk?id=1&idx=zz",
		"/publish?region=0&bucket=0", // GET, needs POST
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == 200 {
			t.Fatalf("%s accepted", path)
		}
	}
}

// TestServerChunkBounds covers direct chunk-range validation.
func TestServerChunkBounds(t *testing.T) {
	store := jumpstart.NewStore()
	id := store.Publish(0, 0, testPayload(1000, 10))
	srv := NewServer(store, 256)
	if _, err := srv.Chunk(id, 4); err == nil {
		t.Fatal("chunk past end accepted")
	}
	if _, err := srv.Chunk(id, -1); err == nil {
		t.Fatal("negative chunk accepted")
	}
	if _, err := srv.Chunk(id+5, 0); err == nil {
		t.Fatal("unknown package accepted")
	}
	payload := testPayload(1000, 10)
	b, err := srv.Chunk(id, 3) // tail chunk, 1000-768 = 232 bytes
	if err != nil || !bytes.Equal(b, payload[768:]) {
		t.Fatalf("tail chunk: len=%d err=%v", len(b), err)
	}
	// The chunk is a view of the stored payload, clipped so an append by
	// the receiver reallocates instead of writing into the store.
	b, err = srv.Chunk(id, 1)
	if err != nil || !bytes.Equal(b, payload[256:512]) || cap(b) != len(b) {
		t.Fatalf("chunk 1: len=%d cap=%d err=%v", len(b), cap(b), err)
	}
}

// hostileConn answers every manifest RPC with man and every chunk RPC
// with chunk, whatever was asked for.
type hostileConn struct {
	Conn
	man   *Manifest
	chunk []byte
}

func (h *hostileConn) Manifest(int, int, uint64, []jumpstart.PackageID) (*Manifest, error) {
	return h.man, nil
}

func (h *hostileConn) Chunk(jumpstart.PackageID, int) ([]byte, error) { return h.chunk, nil }

// TestHostileManifestFallsBack is the regression test for the
// unvalidated manifest: a negative Size used to panic in tryOnce
// (makeslice: cap out of range) and a huge one was an OOM, where
// Section VI-A3 wants a fallback. Every impossible geometry is now a
// retryable RPC failure, so the fetch burns its budget and reports it.
func TestHostileManifestFallsBack(t *testing.T) {
	for name, man := range map[string]*Manifest{
		"nil":              nil,
		"negative size":    {Size: -1, ChunkSize: 16},
		"huge size":        {Size: 1 << 40, ChunkSize: 1 << 40, Chunks: []uint64{1}},
		"zero chunk size":  {Size: 16, Chunks: []uint64{1}},
		"too few chunks":   {Size: 64, ChunkSize: 16, Chunks: []uint64{1, 2, 3}},
		"too many chunks":  {Size: 16, ChunkSize: 16, Chunks: []uint64{1, 2}},
		"chunk size wraps": {Size: 16, ChunkSize: int(^uint(0) >> 1), Chunks: []uint64{1, 2}},
	} {
		clock := netsim.NewVirtualClock(0)
		cli := NewClient(&hostileConn{man: man}, clock, ClientConfig{Budget: 5})
		res, err := cli.Fetch(0, 0, 1, nil)
		if !errors.Is(err, ErrBudget) || res != nil {
			t.Errorf("%s: err = %v res = %v, want ErrBudget", name, err, res)
		}
		if cli.PickFailure() != jumpstart.FallbackFetchBudget {
			t.Errorf("%s: failure = %q", name, cli.PickFailure())
		}
	}
}

// TestOverlongChunkRejected: a chunk longer than the manifest's
// ChunkSize is refused as ErrBadChunk even when its content address
// matches — on the lazy page-in path nothing downstream would notice —
// and a fetch that meets one retries past it.
func TestOverlongChunkRejected(t *testing.T) {
	long := testPayload(64, 15)
	man := &Manifest{Size: 16, ChunkSize: 16, Chunks: []uint64{chunkHash(long)}}
	clock := netsim.NewVirtualClock(0)
	cli := NewClient(&hostileConn{man: man, chunk: long}, clock, ClientConfig{Budget: 5})
	if _, err := cli.chunk(man, 0); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("over-long chunk err = %v, want ErrBadChunk", err)
	}
	if _, err := cli.FetchChunk(man, 0); !errors.Is(err, ErrBudget) {
		t.Fatalf("over-long page-in err = %v, want ErrBudget", err)
	}

	payload := testPayload(5_000, 16)
	_, healthy, clock, _ := newTestStack(t, payload, 2048, netsim.Config{}, ClientConfig{})
	cli = NewClient(&longOnceConn{Conn: healthy.conn}, clock, ClientConfig{})
	res, err := cli.Fetch(0, 0, 7, nil)
	if err != nil || !bytes.Equal(res.Data, payload) {
		t.Fatalf("fetch past an over-long chunk: err=%v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (over-long chunk forces one retry)", res.Attempts)
	}
}

// longOnceConn pads the first chunk it serves past ChunkSize, once.
type longOnceConn struct {
	Conn
	fired bool
}

func (c *longOnceConn) Chunk(id jumpstart.PackageID, idx int) ([]byte, error) {
	b, err := c.Conn.Chunk(id, idx)
	if err != nil || c.fired {
		return b, err
	}
	c.fired = true
	return append(b, 0), nil
}

// TestHTTPRefusesOverlongInflatedBody: the HTTP conn reads the body
// net/http inflates, so its size limit bounds the inflated bytes — a
// small gzip response that inflates past the limit is refused, not
// buffered.
func TestHTTPRefusesOverlongInflatedBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Encoding", "gzip")
		zw := gzip.NewWriter(w)
		zw.Write(make([]byte, 1<<20)) // ~1 KiB on the wire
		zw.Close()
	}))
	defer ts.Close()
	conn := NewHTTPConn(ts.URL, 5)
	if _, err := conn.get(ts.URL, 1<<20); err != nil {
		t.Fatalf("body at the limit refused: %v", err)
	}
	if _, err := conn.get(ts.URL, 1<<20-1); !errors.Is(err, ErrRPC) {
		t.Fatalf("body inflating past the limit: err = %v, want ErrRPC", err)
	}
}

// TestHTTPChunkIsGzipOnTheWire pins where the encoding lives: the
// handler compresses, a client that does not undo Content-Encoding sees
// gzip bytes, and HTTPConn hands the Client the raw chunk.
func TestHTTPChunkIsGzipOnTheWire(t *testing.T) {
	store := jumpstart.NewStore()
	payload := bytes.Repeat([]byte("jumpstart "), 400)
	id := store.Publish(0, 0, payload)
	ts := httptest.NewServer(NewServer(store, 1024).Handler())
	defer ts.Close()

	raw := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := raw.Get(fmt.Sprintf("%s/chunk?id=%d&idx=1", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wire, _ := io.ReadAll(resp.Body)
	if resp.Header.Get("Content-Encoding") != "gzip" || len(wire) >= 1024 {
		t.Fatalf("wire chunk: encoding %q, %d bytes", resp.Header.Get("Content-Encoding"), len(wire))
	}
	zr, err := gzip.NewReader(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := io.ReadAll(zr); !bytes.Equal(b, payload[1024:2048]) {
		t.Fatal("wire chunk does not inflate to the stored bytes")
	}
	b, err := NewHTTPConn(ts.URL, 5).Chunk(id, 1)
	if err != nil || !bytes.Equal(b, payload[1024:2048]) {
		t.Fatalf("HTTPConn chunk: len=%d err=%v", len(b), err)
	}
}

// TestWireRoundTrip: the codec round trip SimConn applies hands back
// the chunk's bytes in a buffer of its own and refuses to inflate past
// the chunk size.
func TestWireRoundTrip(t *testing.T) {
	in := bytes.Repeat([]byte("jumpstart"), 500)
	out, err := wireRoundTrip(in, len(in))
	if err != nil || !bytes.Equal(out, in) {
		t.Fatalf("round trip: err = %v, equal = %v", err, bytes.Equal(out, in))
	}
	if &out[0] == &in[0] {
		t.Fatal("round trip returned the input buffer")
	}
	if _, err := wireRoundTrip(in, len(in)-1); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("over-long inflate: err = %v, want ErrBadChunk", err)
	}
}

// TestSimFetchTelemetryZeroPerturbation: the same seeded lossy fetch
// with and without telemetry produces the same outcome and timeline.
func TestSimFetchTelemetryZeroPerturbation(t *testing.T) {
	run := func(withTel bool) (float64, int) {
		store := jumpstart.NewStore()
		store.Publish(0, 0, testPayload(4_000, 11))
		srv := NewServer(store, 1024)
		clock := netsim.NewVirtualClock(0)
		fab := netsim.NewFabric(netsim.Config{DropRate: 0.5, BaseLatency: 0.02})
		conn := NewSimConn(srv, fab, "c", clock, netsim.NewStream(workload.Fork(77, 0)), 0.5)
		cli := NewClient(conn, clock, ClientConfig{Seed: 77, Budget: 120})
		if withTel {
			cli.SetTelemetry(telemetry.NewSet())
			srv.SetTelemetry(telemetry.NewSet())
		}
		res, err := cli.Fetch(0, 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed, res.RPCs
	}
	e1, r1 := run(false)
	e2, r2 := run(true)
	if e1 != e2 || r1 != r2 {
		t.Fatalf("telemetry perturbed the fetch: %v/%d vs %v/%d", e1, r1, e2, r2)
	}
}

// TestFetchChunkFreshBudgetPerCall pins the page-in fetch path: each
// FetchChunk call arms its own deadline window, verifies the chunk
// against its content address, and a call issued long after a previous
// budget exhaustion still succeeds.
func TestFetchChunkFreshBudgetPerCall(t *testing.T) {
	net := netsim.Config{
		BaseLatency: 0.01,
		Faults:      []netsim.Fault{netsim.Partition(5, 100, "")},
	}
	payload := testPayload(4_000, 13)
	_, cli, clock, _ := newTestStack(t, payload, 1024, net,
		ClientConfig{Budget: 10, RPCTimeout: 1})

	// Boot fetch before the partition: succeeds and caches the manifest.
	res, err := cli.Fetch(0, 0, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	man := res.Manifest
	if man == nil || cli.LastManifest() != man {
		t.Fatal("boot fetch did not surface its manifest")
	}

	// Page-in during the partition: burns its own window, then fails.
	clock.Sleep(5 - clock.Now())
	before := clock.Now()
	if _, err := cli.FetchChunk(man, 0); !errors.Is(err, ErrBudget) {
		t.Fatalf("partitioned page-in err = %v, want ErrBudget", err)
	}
	if spent := clock.Now() - before; spent < 9 || spent > 11+1e-9 {
		t.Fatalf("page-in budget window off: spent %v of 10", spent)
	}

	// Page-in after the partition: a fresh window, an instant chunk.
	clock.Sleep(100 - clock.Now())
	cr, err := cli.FetchChunk(man, 1)
	if err != nil {
		t.Fatalf("post-partition page-in: %v", err)
	}
	if !bytes.Equal(cr.Data, payload[1024:2048]) {
		t.Fatal("page-in returned wrong chunk bytes")
	}
	if cr.Elapsed > 1 {
		t.Fatalf("healthy page-in took %v", cr.Elapsed)
	}

	// Out-of-range chunk indices are rejected without burning budget.
	if _, err := cli.FetchChunk(man, len(man.Chunks)); err == nil {
		t.Fatal("chunk index past end accepted")
	}
	if _, err := cli.FetchChunk(man, -1); err == nil {
		t.Fatal("negative chunk index accepted")
	}
}

// TestLazyPagerPageInAndMiss drives the pager the lazy server installs:
// a healthy network pages in at its virtual-time cost, a dead one
// reports a miss charged at the full budget, and the stats separate the
// two.
func TestLazyPagerPageInAndMiss(t *testing.T) {
	payload := testPayload(4_000, 14)

	// Healthy: every page-in lands, zero-latency fabric → zero seconds.
	_, cli, _, _ := newTestStack(t, payload, 1024, netsim.Config{}, ClientConfig{Budget: 10})
	res, err := cli.Fetch(0, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	pager := NewLazyPager(cli, res.Manifest)
	for _, fn := range []string{"unit0::helper1", "unit3::endpoint2", "main"} {
		secs, ok := pager.PageIn(fn)
		if !ok {
			t.Fatalf("healthy page-in of %q missed", fn)
		}
		if secs != 0 {
			t.Fatalf("zero-latency page-in charged %v s", secs)
		}
	}
	if ins, misses := pager.Stats(); ins != 3 || misses != 0 {
		t.Fatalf("stats = %d/%d, want 3/0", ins, misses)
	}

	// Dead network: the page-in misses and is charged the whole budget.
	_, deadCli, _, _ := newTestStack(t, payload, 1024,
		netsim.Config{DropRate: 1}, ClientConfig{Budget: 10, RPCTimeout: 1})
	deadPager := NewLazyPager(deadCli, res.Manifest)
	secs, ok := deadPager.PageIn("unit0::helper1")
	if ok {
		t.Fatal("page-in succeeded on a fully dropped network")
	}
	if secs != 10 {
		t.Fatalf("miss charged %v s, want full budget 10 s", secs)
	}
	if ins, misses := deadPager.Stats(); ins != 1 || misses != 1 {
		t.Fatalf("dead stats = %d/%d, want 1/1", ins, misses)
	}

	// No manifest (local boot, nothing to fetch): free and always ok.
	local := NewLazyPager(deadCli, nil)
	if secs, ok := local.PageIn("x"); secs != 0 || !ok {
		t.Fatalf("manifestless page-in = %v/%v, want 0/true", secs, ok)
	}
}
