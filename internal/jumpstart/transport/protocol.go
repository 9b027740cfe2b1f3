// Package transport moves profile-data packages between the store and
// the fleet over a network — the real one (HTTP, for the two-process
// jumpstartd handoff) or the simulated one (internal/netsim, for fleet
// experiments). Figure 3's workflows assume this hop: seeders upload
// packages after collection, consumers download one at boot, and
// Section VI's reliability story only matters because that hop can
// misbehave.
//
// The protocol is chunked and checksummed: a manifest names a picked
// package and the content addresses (FNV-1a hashes) of its fixed-size
// chunks, and every chunk is verified against its address on arrival.
// Because chunks are content-addressed, a retry after a mid-transfer
// failure re-fetches only the chunks it is missing — transfers resume,
// they never restart. Conn and Server carry chunks raw; compression is
// a property of the one real wire, so it lives at the HTTP edge alone
// (handleChunk gzips the response, net/http inflates it for HTTPConn).
// The simulated connection has no wire; it round-trips each chunk
// through the same codec to keep its host cost (see wireRoundTrip). The
// client layers per-RPC timeouts, capped exponential backoff with
// deterministic jitter, and a per-fetch deadline budget on top; when
// the budget is exhausted the failure surfaces as a
// BootInfo.FallbackReason and the consumer takes the ordinary
// no-Jump-Start fallback instead of crashing (Section VI-A3).
package transport

import (
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"

	"jumpstart/internal/jumpstart"
)

// DefaultChunkSize is the package chunking granularity when the server
// is built with a non-positive chunk size.
const DefaultChunkSize = 16 << 10

// Protocol errors. Timeout/RPC/BadChunk are retryable within the
// fetch budget; NoPackage and Budget are terminal for the attempt and
// turn into the consumer's fallback reason, whose text they carry.
var (
	// ErrNoPackage means the store had no (non-excluded) package for
	// the requested (region, bucket).
	ErrNoPackage = errors.New("transport: " + jumpstart.FallbackNoPackage.String())
	// ErrTimeout means an RPC was dropped by the network and the
	// client waited out its per-RPC timeout.
	ErrTimeout = errors.New("transport: rpc timed out")
	// ErrRPC means the far end answered with a failure.
	ErrRPC = errors.New("transport: rpc failed")
	// ErrBadChunk means a chunk failed its length bound or content-hash
	// verification, or the reassembled payload its checksum.
	ErrBadChunk = errors.New("transport: chunk failed verification")
	// ErrBudget means the per-fetch deadline budget ran out.
	ErrBudget = errors.New("transport: " + jumpstart.FallbackFetchBudget.String())
)

// Manifest describes one picked package: its identity, full-payload
// checksum, and the content addresses of its chunks in order.
type Manifest struct {
	ID     jumpstart.PackageID `json:"id"`
	Region int                 `json:"region"`
	Bucket int                 `json:"bucket"`
	// Revision is the build checksum the package was collected
	// against (0 from pre-revision publishers). Carried on the
	// manifest so a consumer can check compatibility before spending
	// its fetch budget on chunks.
	Revision  uint64   `json:"revision"`
	Size      int      `json:"size"`
	CRC32     uint32   `json:"crc32"`
	ChunkSize int      `json:"chunk_size"`
	Chunks    []uint64 `json:"chunks"` // FNV-1a 64 content addresses
}

// chunkHash is the content address of one uncompressed chunk.
func chunkHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// NumChunks is the number of chunkSize-byte chunks a size-byte payload
// splits into (chunkSize > 0; written so a hostile chunkSize cannot
// overflow it).
func NumChunks(size, chunkSize int) int {
	n := size / chunkSize
	if size%chunkSize != 0 {
		n++
	}
	return n
}

// chunkBounds returns the [lo, hi) byte range of chunk idx.
func chunkBounds(size, chunkSize, idx int) (int, int, error) {
	if idx < 0 || idx >= NumChunks(size, chunkSize) {
		return 0, 0, fmt.Errorf("%w: chunk %d out of range", ErrRPC, idx)
	}
	lo := idx * chunkSize
	return lo, min(lo+chunkSize, size), nil
}

// manifestFor chunks a stored package.
func manifestFor(p *jumpstart.StoredPackage, chunkSize int) *Manifest {
	m := &Manifest{
		ID:        p.ID,
		Region:    p.Region,
		Bucket:    p.Bucket,
		Revision:  p.Revision,
		Size:      len(p.Data),
		CRC32:     crc32.ChecksumIEEE(p.Data),
		ChunkSize: chunkSize,
		Chunks:    make([]uint64, NumChunks(len(p.Data), chunkSize)),
	}
	for idx := range m.Chunks {
		lo, hi, _ := chunkBounds(m.Size, chunkSize, idx) // idx is in range by construction
		m.Chunks[idx] = chunkHash(p.Data[lo:hi])
	}
	return m
}

// validate rejects a manifest whose geometry cannot describe a real
// package. A manifest arrives from outside the process; the client
// sizes buffers and indexes by it, so it is checked once, on receipt
// (a consumer must survive a hostile store, Section VI-A3).
func (m *Manifest) validate() error {
	switch {
	case m == nil:
		return fmt.Errorf("%w: empty manifest", ErrRPC)
	case m.Size < 0 || m.Size > maxPublishBytes:
		return fmt.Errorf("%w: manifest size %d", ErrRPC, m.Size)
	case m.ChunkSize <= 0:
		return fmt.Errorf("%w: manifest chunk size %d", ErrRPC, m.ChunkSize)
	case len(m.Chunks) != NumChunks(m.Size, m.ChunkSize):
		return fmt.Errorf("%w: manifest lists %d chunks for %d bytes in %d-byte chunks",
			ErrRPC, len(m.Chunks), m.Size, m.ChunkSize)
	}
	return nil
}
