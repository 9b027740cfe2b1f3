package transport

import (
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/netsim"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/workload"
)

// Conn is one client's connection to a store server. Implementations
// move the raw protocol messages (SimConn over the simulated fabric,
// HTTPConn over real localhost/network sockets); the Client owns
// retries, backoff, budgets, verification and reassembly.
type Conn interface {
	// Manifest asks the store to pick a package and describe it.
	Manifest(region, bucket int, rnd uint64, exclude []jumpstart.PackageID) (*Manifest, error)
	// Chunk fetches the bytes of chunk idx of package id. The result is
	// read-only: a SimConn hands out the store's own memory.
	Chunk(id jumpstart.PackageID, idx int) ([]byte, error)
	// Publish uploads a collected package stamped with the publisher's
	// build revision checksum (0 when unknown).
	Publish(region, bucket int, revision uint64, data []byte) (jumpstart.PackageID, error)
}

// Clock abstracts time for the client: virtual (netsim.VirtualClock)
// in simulations, wall (WallClock) in real deployments. Sleep is used
// for backoff; Conn implementations account RPC time themselves.
type Clock interface {
	Now() float64
	Sleep(seconds float64)
}

// WallClock is the real-time Clock for two-process deployments.
type WallClock struct{ start time.Time }

// NewWallClock returns a wall clock measuring seconds from now.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// Now returns wall seconds since the clock was created.
func (c *WallClock) Now() float64 { return time.Since(c.start).Seconds() }

// Sleep blocks for the given number of wall seconds.
func (c *WallClock) Sleep(seconds float64) {
	if seconds > 0 {
		time.Sleep(time.Duration(seconds * float64(time.Second)))
	}
}

// ClientConfig tunes the fetch state machine.
type ClientConfig struct {
	// RPCTimeout is the per-RPC deadline in seconds: a dropped RPC
	// costs this long before the client retries.
	RPCTimeout float64
	// Budget is the per-fetch deadline budget in seconds. Every Fetch
	// (and Publish) arms a fresh window when it starts; once the window
	// passes, the request fails with ErrBudget and the consumer falls
	// back (Section VI-A3) instead of erroring.
	Budget float64
	// BackoffBase/BackoffCap shape the capped exponential backoff
	// between attempts: min(cap, base·2^(attempt-1)), scaled by a
	// deterministic jitter in [0.5, 1).
	BackoffBase float64
	BackoffCap  float64
	// Seed drives the jitter stream; fetches within one client fork
	// independent streams from it, so a fixed seed reproduces the
	// exact retry timeline.
	Seed uint64
}

// DefaultClientConfig returns production-shaped defaults (seconds).
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		RPCTimeout:  1,
		Budget:      30,
		BackoffBase: 0.1,
		BackoffCap:  5,
		Seed:        1,
	}
}

// WithDefaults fills zero fields so a partially-specified config (or
// the zero value) behaves sanely.
func (c ClientConfig) WithDefaults() ClientConfig {
	d := DefaultClientConfig()
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = d.RPCTimeout
	}
	if c.Budget <= 0 {
		c.Budget = d.Budget
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = d.BackoffBase
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = d.BackoffCap
	}
	return c
}

// FetchResult is a completed package download.
type FetchResult struct {
	ID       jumpstart.PackageID
	Revision uint64 // build checksum stamp from the manifest
	Data     []byte
	Attempts int // transfer attempts (1 = no retry)
	RPCs     int // total RPCs issued, including failures
	Chunks   int // chunks in the package
	ChunkRPC int // chunk RPCs issued; < Attempts·Chunks proves resume
	Elapsed  float64
	// Manifest is the package's chunk map, kept so a lazy consumer can
	// page individual chunks back in post-boot (FetchChunk).
	Manifest *Manifest
}

// Client implements the consumer/seeder side of the protocol: pick
// via manifest, download content-addressed chunks (resuming across
// retries), verify, reassemble — under per-RPC timeouts, capped
// exponential backoff with deterministic jitter, and the per-boot
// deadline budget. It also implements jumpstart.PackageSource, so
// BootConsumer can draw packages straight off the network.
type Client struct {
	conn  Conn
	clock Clock
	cfg   ClientConfig
	tel   *telemetry.Set

	fetches     uint64
	deadline    float64        // end of the in-flight request's budget window
	jit         *netsim.Stream // the in-flight request's backoff jitter
	lastFailure jumpstart.Fallback
	lastMan     *Manifest // manifest of the most recent successful Fetch

	// Causal span state: spanParent is the enclosing span every
	// transport.fetch/publish span links under (0 = root); curSpan is
	// the in-flight fetch's span, parent of its RPC and backoff spans.
	spanParent uint64
	curSpan    uint64
}

// NewClient builds a client over conn and clock.
func NewClient(conn Conn, clock Clock, cfg ClientConfig) *Client {
	return &Client{conn: conn, clock: clock, cfg: cfg.WithDefaults()}
}

// SetTelemetry installs the observation set (may be nil). Events are
// stamped with the client's clock.
func (c *Client) SetTelemetry(tel *telemetry.Set) { c.tel = tel }

// SetSpanParent links this client's subsequent fetch/publish spans
// under the given span ID (0 detaches them back to roots). Callers
// running one boot per client set it once; a reused client is
// re-parented per boot.
func (c *Client) SetSpanParent(id uint64) { c.spanParent = id }

// backoffBounds bucket retry backoff durations for the
// transport.backoff_seconds histogram.
var backoffBounds = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// fetchLatencyBounds bucket whole-fetch durations for the
// transport.fetch_seconds histogram.
var fetchLatencyBounds = []float64{0.01, 0.1, 0.5, 1, 5, 15, 30, 60}

// PickFailure explains the most recent failed Pick/Fetch
// (FallbackNone after a success); BootConsumer records it as the
// FallbackReason.
func (c *Client) PickFailure() jumpstart.Fallback { return c.lastFailure }

// failure maps a failed request's error to the consumer's fallback
// reason: a spent deadline budget, or a store with nothing to offer.
func failure(err error) jumpstart.Fallback {
	if errors.Is(err, ErrBudget) {
		return jumpstart.FallbackFetchBudget
	}
	return jumpstart.FallbackNoPackage
}

// Pick implements jumpstart.PackageSource over the network.
func (c *Client) Pick(region, bucket int, rnd uint64, exclude ...jumpstart.PackageID) (*jumpstart.StoredPackage, bool) {
	res, err := c.Fetch(region, bucket, rnd, exclude)
	if err != nil {
		return nil, false
	}
	return &jumpstart.StoredPackage{
		ID: res.ID, Region: region, Bucket: bucket,
		Revision: res.Revision, Data: res.Data,
	}, true
}

// backoff computes the capped exponential backoff for attempt n >= 1
// with deterministic jitter in [0.5, 1).
func (c *Client) backoff(attempt int, jit *netsim.Stream) float64 {
	d := c.cfg.BackoffBase
	for i := 1; i < attempt && d < c.cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > c.cfg.BackoffCap {
		d = c.cfg.BackoffCap
	}
	return d * (0.5 + 0.5*jit.Float())
}

// retryable reports whether the fetch loop should back off and retry
// after err. ErrNoPackage is terminal: waiting will not conjure a
// package the store does not have (or has fully excluded).
func retryable(err error) bool {
	return !errors.Is(err, ErrNoPackage)
}

// sleepBackoff waits out the attempt's backoff, truncating at the
// budget deadline. It reports false when the deadline was hit. The
// slept window lands as a "backoff" span under the in-flight fetch.
func (c *Client) sleepBackoff(attempt int) bool {
	now := c.clock.Now()
	if now >= c.deadline {
		return false
	}
	b := c.backoff(attempt, c.jit)
	c.tel.Histogram("transport.backoff_seconds", backoffBounds).Observe(b)
	c.tel.Counter("transport.retries_total").Inc()
	c.tel.Event(c.clock.Now(), "transport", "retry",
		telemetry.I("attempt", int64(attempt)),
		telemetry.F("backoff", b))
	if now+b >= c.deadline {
		// Sleeping through the deadline: consume what remains of the
		// budget and give up, so Elapsed never overshoots it.
		c.clock.Sleep(c.deadline - now)
		c.tel.SpanUnder(c.curSpan, now, c.clock.Now(), "transport", "backoff",
			telemetry.I("attempt", int64(attempt)),
			telemetry.B("truncated", true))
		return false
	}
	c.clock.Sleep(b)
	c.tel.SpanUnder(c.curSpan, now, c.clock.Now(), "transport", "backoff",
		telemetry.I("attempt", int64(attempt)))
	return true
}

// begin opens one budgeted request: a fresh deadline window (a stale
// one can never leak in from an earlier request), a fresh jitter stream
// and the span its RPC and backoff spans hang under. The caller clears
// curSpan when the request ends.
func (c *Client) begin() (start float64) {
	start = c.clock.Now()
	c.deadline = start + c.cfg.Budget
	c.jit = netsim.NewStream(workload.Fork(c.cfg.Seed, c.fetches))
	c.fetches++
	c.curSpan = c.tel.BeginSpan()
	return start
}

// retry runs try until it succeeds, fails terminally, or the window
// armed by begin runs out (ErrBudget), backing off between attempts.
func (c *Client) retry(try func(attempt int) error) error {
	for attempt := 1; c.clock.Now() < c.deadline; attempt++ {
		err := try(attempt)
		if err == nil || !retryable(err) {
			return err
		}
		c.tel.Counter("transport.rpc_failures_total").Inc()
		if !c.sleepBackoff(attempt) {
			break
		}
	}
	return ErrBudget
}

// Fetch downloads one package for (region, bucket): the store picks
// with rnd/exclude, then chunks stream over with verification and
// resume-on-retry. Each call arms its own deadline budget window; it
// fails with ErrBudget when that budget runs out, or ErrNoPackage when
// the store has nothing to offer.
func (c *Client) Fetch(region, bucket int, rnd uint64, exclude []jumpstart.PackageID) (*FetchResult, error) {
	start := c.begin()
	defer func() { c.curSpan = 0 }()
	c.tel.Event(start, "transport", "fetch-start",
		telemetry.I("region", int64(region)),
		telemetry.I("bucket", int64(bucket)),
		telemetry.I("exclude", int64(len(exclude))))

	res := &FetchResult{}
	chunks := map[uint64][]byte{} // content address -> verified chunk
	var m *Manifest
	err := c.retry(func(attempt int) (err error) {
		res.Attempts = attempt
		res.Data, err = c.tryOnce(region, bucket, rnd, exclude, &m, chunks, res)
		return err
	})
	c.lastFailure = jumpstart.FallbackNone
	if err != nil {
		c.lastFailure = failure(err)
		reason := c.lastFailure.String()
		c.tel.Counter("transport.fetch_fail_total").Inc()
		c.tel.Event(c.clock.Now(), "transport", "fetch-fail",
			telemetry.S("reason", reason),
			telemetry.I("attempts", int64(res.Attempts)),
			telemetry.I("rpcs", int64(res.RPCs)))
		c.tel.EndSpan(c.curSpan, c.spanParent, start, c.clock.Now(), "transport", "transport.fetch",
			telemetry.S("outcome", reason),
			telemetry.I("attempts", int64(res.Attempts)))
		return nil, err
	}
	res.ID = m.ID
	res.Revision = m.Revision
	res.Chunks = len(m.Chunks)
	res.Elapsed = c.clock.Now() - start
	res.Manifest = m
	c.lastMan = m
	c.tel.Counter("transport.fetch_ok_total").Inc()
	c.tel.Histogram("transport.fetch_seconds", fetchLatencyBounds).Observe(res.Elapsed)
	c.tel.Event(c.clock.Now(), "transport", "fetch-done",
		telemetry.I("id", int64(res.ID)),
		telemetry.I("attempts", int64(res.Attempts)),
		telemetry.I("rpcs", int64(res.RPCs)),
		telemetry.F("elapsed", res.Elapsed))
	c.tel.EndSpan(c.curSpan, c.spanParent, start, c.clock.Now(), "transport", "transport.fetch",
		telemetry.S("outcome", "ok"),
		telemetry.I("id", int64(res.ID)),
		telemetry.I("attempts", int64(res.Attempts)))
	return res, nil
}

// LastManifest returns the manifest of the most recent successful
// Fetch (nil before one) — the chunk map a LazyPager pages against.
func (c *Client) LastManifest() *Manifest { return c.lastMan }

// ChunkResult is one completed on-demand chunk fetch (lazy page-in).
type ChunkResult struct {
	Data     []byte
	Attempts int
	RPCs     int
	Elapsed  float64
}

// FetchChunk downloads and verifies a single chunk of a previously
// fetched package — the lazy page-in path. Like Fetch it arms its own
// per-fetch deadline budget and retries under the capped exponential
// backoff.
func (c *Client) FetchChunk(man *Manifest, idx int) (*ChunkResult, error) {
	if man == nil || idx < 0 || idx >= len(man.Chunks) {
		return nil, fmt.Errorf("%w: page-in chunk %d out of range", ErrRPC, idx)
	}
	start := c.begin()
	defer func() { c.curSpan = 0 }()

	res := &ChunkResult{}
	err := c.retry(func(attempt int) (err error) {
		res.Attempts = attempt
		res.RPCs++
		res.Data, err = c.chunk(man, idx)
		return err
	})
	if err != nil {
		c.tel.Counter("transport.pagein_fail_total").Inc()
		c.tel.EndSpan(c.curSpan, c.spanParent, start, c.clock.Now(), "transport", "transport.pagein",
			telemetry.S("outcome", failure(err).String()),
			telemetry.I("attempts", int64(res.Attempts)))
		return nil, err
	}
	res.Elapsed = c.clock.Now() - start
	c.tel.Counter("transport.pagein_ok_total").Inc()
	c.tel.EndSpan(c.curSpan, c.spanParent, start, c.clock.Now(), "transport", "transport.pagein",
		telemetry.S("outcome", "ok"),
		telemetry.I("idx", int64(idx)),
		telemetry.I("attempts", int64(res.Attempts)))
	return res, nil
}

// chunk issues one chunk RPC and verifies the answer against the
// manifest: no longer than a chunk may be, and hashing to its content
// address. Nothing unverified is ever cached or returned.
func (c *Client) chunk(man *Manifest, idx int) ([]byte, error) {
	c.tel.Counter("transport.rpcs_total").Inc()
	t0 := c.clock.Now()
	b, err := c.conn.Chunk(man.ID, idx)
	c.tel.SpanUnder(c.curSpan, t0, c.clock.Now(), "transport", "rpc.chunk",
		telemetry.I("idx", int64(idx)),
		telemetry.B("ok", err == nil))
	if err != nil {
		return nil, err
	}
	if len(b) > man.ChunkSize || chunkHash(b) != man.Chunks[idx] {
		return nil, fmt.Errorf("%w: chunk %d failed verification", ErrBadChunk, idx)
	}
	return b, nil
}

// tryOnce runs one transfer attempt: resolve the manifest if not yet
// held, then fetch every chunk still missing from the cache. The
// content-addressed cache is what makes a retry resume mid-transfer.
func (c *Client) tryOnce(region, bucket int, rnd uint64, exclude []jumpstart.PackageID,
	m **Manifest, chunks map[uint64][]byte, res *FetchResult) ([]byte, error) {
	if *m == nil {
		c.tel.Counter("transport.rpcs_total").Inc()
		res.RPCs++
		t0 := c.clock.Now()
		mm, err := c.conn.Manifest(region, bucket, rnd, exclude)
		c.tel.SpanUnder(c.curSpan, t0, c.clock.Now(), "transport", "rpc.manifest",
			telemetry.B("ok", err == nil))
		if err != nil {
			return nil, err
		}
		if err := mm.validate(); err != nil {
			return nil, err
		}
		*m = mm
	}
	man := *m
	for idx, h := range man.Chunks {
		if _, ok := chunks[h]; ok {
			continue
		}
		res.RPCs++
		res.ChunkRPC++
		b, err := c.chunk(man, idx)
		if err != nil {
			return nil, err
		}
		chunks[h] = b
	}
	// Reassemble in manifest order and verify the whole payload.
	data := make([]byte, 0, man.Size)
	for _, h := range man.Chunks {
		data = append(data, chunks[h]...)
	}
	if len(data) != man.Size || crc32.ChecksumIEEE(data) != man.CRC32 {
		// The cached chunks cannot produce the manifest's payload:
		// drop everything and restart the transfer cleanly.
		for h := range chunks {
			delete(chunks, h)
		}
		*m = nil
		return nil, fmt.Errorf("%w: reassembled payload failed checksum", ErrBadChunk)
	}
	return data, nil
}

// Publish uploads a collected package with the same retry/backoff
// machinery, under its own budget window (armed per call, not shared
// with boot fetches). revision stamps the package with the
// publisher's build checksum (0 when unknown).
func (c *Client) Publish(region, bucket int, revision uint64, data []byte) (jumpstart.PackageID, error) {
	start := c.clock.Now()
	deadline := start + c.cfg.Budget
	jit := netsim.NewStream(workload.Fork(c.cfg.Seed, 1<<32+c.fetches))
	c.fetches++
	span := c.tel.BeginSpan()
	for attempt := 1; ; attempt++ {
		c.tel.Counter("transport.rpcs_total").Inc()
		t0 := c.clock.Now()
		id, err := c.conn.Publish(region, bucket, revision, data)
		c.tel.SpanUnder(span, t0, c.clock.Now(), "transport", "rpc.publish",
			telemetry.I("attempt", int64(attempt)),
			telemetry.B("ok", err == nil))
		if err == nil {
			c.tel.Counter("transport.publish_ok_total").Inc()
			c.tel.Event(c.clock.Now(), "transport", "publish",
				telemetry.I("id", int64(id)),
				telemetry.I("region", int64(region)),
				telemetry.I("bucket", int64(bucket)),
				telemetry.I("attempts", int64(attempt)))
			c.tel.EndSpan(span, c.spanParent, start, c.clock.Now(), "transport", "transport.publish",
				telemetry.S("outcome", "ok"),
				telemetry.I("attempts", int64(attempt)))
			return id, nil
		}
		c.tel.Counter("transport.rpc_failures_total").Inc()
		now := c.clock.Now()
		if now >= deadline {
			c.tel.Counter("transport.publish_fail_total").Inc()
			c.tel.Event(now, "transport", "publish-fail",
				telemetry.I("attempts", int64(attempt)))
			c.tel.EndSpan(span, c.spanParent, start, now, "transport", "transport.publish",
				telemetry.S("outcome", "budget-exhausted"),
				telemetry.I("attempts", int64(attempt)))
			return 0, fmt.Errorf("%w: publish: %v", ErrBudget, err)
		}
		b := c.backoff(attempt, jit)
		t0 = c.clock.Now()
		if now+b >= deadline {
			c.clock.Sleep(deadline - now)
		} else {
			c.clock.Sleep(b)
		}
		c.tel.SpanUnder(span, t0, c.clock.Now(), "transport", "backoff",
			telemetry.I("attempt", int64(attempt)))
	}
}
