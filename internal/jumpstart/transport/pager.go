package transport

import "hash/fnv"

// LazyPager adapts a Client and the boot fetch's manifest into the
// on-demand pager a lazy consumer installs (it satisfies server.Pager
// structurally — PageIn(fn) (seconds, ok)). The package's translation
// artifacts are modeled by its content-addressed chunks: each function
// maps deterministically onto one chunk, and paging the function in
// re-fetches that chunk over the transport under a fresh per-fetch
// deadline budget. The virtual time the fetch burns is charged to the
// requesting request — the mechanism that makes a lazy boot's early
// tail slow and a brownout's page-in stalls visible in the capacity
// curve.
type LazyPager struct {
	cli *Client
	man *Manifest

	pageIns int
	misses  int
}

// NewLazyPager builds a pager over cli for the package described by
// man (typically FetchResult.Manifest or Client.LastManifest from the
// boot fetch).
func NewLazyPager(cli *Client, man *Manifest) *LazyPager {
	return &LazyPager{cli: cli, man: man}
}

// SetManifest points the pager at a manifest obtained after
// construction — the boot-from-store path builds the pager before the
// boot fetch (so the server config can carry it) and arms it with
// Client.LastManifest once the fetch lands. Call before the server
// starts serving; a pager with no manifest pages in locally.
func (p *LazyPager) SetManifest(man *Manifest) { p.man = man }

// chunkFor maps a function name onto one of the manifest's chunks.
func (p *LazyPager) chunkFor(fn string) int {
	h := fnv.New64a()
	h.Write([]byte(fn))
	return int(h.Sum64() % uint64(len(p.man.Chunks)))
}

// PageIn fetches fn's artifact chunk, returning the virtual seconds
// the fetch took and whether it landed. A miss (budget exhausted
// against a degraded store) reports ok=false; the server leaves the
// function on the interpreter/live-JIT path and never retries it.
func (p *LazyPager) PageIn(fn string) (float64, bool) {
	if p.man == nil || len(p.man.Chunks) == 0 {
		return 0, true
	}
	p.pageIns++
	res, err := p.cli.FetchChunk(p.man, p.chunkFor(fn))
	if err != nil {
		p.misses++
		return p.cli.cfg.Budget, false
	}
	return res.Elapsed, true
}

// Stats reports page-ins attempted and the subset that missed.
func (p *LazyPager) Stats() (pageIns, misses int) { return p.pageIns, p.misses }
