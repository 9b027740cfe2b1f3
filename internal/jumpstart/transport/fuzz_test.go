package transport

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/netsim"
)

// fuzzConn is a store the fuzzer controls: it holds one payload and
// describes it with a manifest that is honest except where the fuzzed
// deltas say otherwise, and serves its chunks with one byte optionally
// flipped. All-zero deltas are a healthy store.
type fuzzConn struct {
	Conn
	man     *Manifest
	payload []byte
	chunks  [][]byte // payload split at the manifest's chunk size
	flipAt  int
}

func newFuzzConn(payload []byte, chunkSize, sizeDelta int, crcXor uint32, chunksDelta, flipAt int) *fuzzConn {
	f := &fuzzConn{payload: payload, flipAt: flipAt, man: &Manifest{
		ID:        1,
		Size:      len(payload) + sizeDelta,
		CRC32:     crc32.ChecksumIEEE(payload) ^ crcXor,
		ChunkSize: chunkSize,
	}}
	for rest := payload; chunkSize > 0 && len(rest) > 0; {
		n := min(chunkSize, len(rest))
		f.chunks = append(f.chunks, rest[:n])
		f.man.Chunks = append(f.man.Chunks, chunkHash(rest[:n]))
		rest = rest[n:]
	}
	// Drop up to seven addresses off the end, or append bogus ones.
	want := max(0, len(f.chunks)+chunksDelta%8)
	for len(f.man.Chunks) < want {
		f.man.Chunks = append(f.man.Chunks, uint64(want))
	}
	f.man.Chunks = f.man.Chunks[:want]
	return f
}

func (f *fuzzConn) Manifest(int, int, uint64, []jumpstart.PackageID) (*Manifest, error) {
	m := *f.man
	return &m, nil
}

func (f *fuzzConn) Chunk(_ jumpstart.PackageID, idx int) ([]byte, error) {
	b := f.payload // what a store with no chunking would answer
	if idx < len(f.chunks) {
		b = f.chunks[idx]
	}
	if i := f.flipAt; i >= 0 && i < len(b) {
		b = append([]byte{}, b...)
		b[i] ^= 0xff
	}
	return b, nil
}

// FuzzFetchHostileConn: whatever manifest geometry and chunk bytes a
// store answers with, Client.Fetch never panics, ends in data or one of
// its two documented errors, and returns data only when the size, every
// chunk's content address and the whole-payload CRC all match the
// manifest it was given (Section VI-A3: fall back, never crash).
func FuzzFetchHostileConn(f *testing.F) {
	// The cases that once crashed or overflowed (negative Size, ChunkSize
	// near MaxInt) are committed under testdata/fuzz/FuzzFetchHostileConn.
	f.Add([]byte("a healthy package payload, three chunks long"), 16, 0, uint32(0), 0, -1)
	f.Add([]byte("wrong crc"), 4, 0, uint32(1), 0, -1)
	f.Add([]byte("flipped chunk byte"), 8, 0, uint32(0), 0, 3)
	f.Add([]byte("one chunk short"), 4, 0, uint32(0), -1, -1)
	f.Add([]byte("zero chunk size"), 0, 0, uint32(0), 1, -1)
	f.Add([]byte{}, 16, 0, uint32(0), 0, -1)
	f.Fuzz(func(t *testing.T, payload []byte, chunkSize, sizeDelta int, crcXor uint32, chunksDelta, flipAt int) {
		conn := newFuzzConn(payload, chunkSize, sizeDelta, crcXor, chunksDelta, flipAt)
		cli := NewClient(conn, netsim.NewVirtualClock(0), ClientConfig{Budget: 2})
		res, err := cli.Fetch(0, 0, 1, nil)
		// No lie in the manifest and no chunk long enough to be flipped:
		// a healthy store must be served, or the target proves nothing.
		if chunkSize > 0 && sizeDelta == 0 && crcXor == 0 && chunksDelta%8 == 0 &&
			(flipAt < 0 || flipAt >= min(chunkSize, len(payload))) {
			if err != nil || !bytes.Equal(res.Data, payload) {
				t.Fatalf("healthy store not served: %v", err)
			}
		}
		if err != nil {
			if !errors.Is(err, ErrBudget) && !errors.Is(err, ErrNoPackage) {
				t.Fatalf("undocumented error: %v", err)
			}
			return
		}
		man := conn.man
		if man.validate() != nil {
			t.Fatalf("data returned for an invalid manifest: %+v", man)
		}
		if len(res.Data) != man.Size || crc32.ChecksumIEEE(res.Data) != man.CRC32 {
			t.Fatalf("data returned with size %d crc %08x against manifest %d/%08x",
				len(res.Data), crc32.ChecksumIEEE(res.Data), man.Size, man.CRC32)
		}
		for idx, want := range man.Chunks {
			lo, hi, err := chunkBounds(man.Size, man.ChunkSize, idx)
			if err != nil || chunkHash(res.Data[lo:hi]) != want {
				t.Fatalf("data returned with chunk %d off its content address (%v)", idx, err)
			}
		}
	})
}
