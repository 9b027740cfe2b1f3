package prof

import (
	"bytes"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
)

// frame wraps payload in a well-formed package header and trailer
// (magic, current version, length, CRC), so that hostile payloads reach
// the section parser instead of stopping at the checksum.
func frame(payload []byte) []byte {
	var e encoder
	e.buf = append(e.buf, magic...)
	e.buf = append(e.buf, formatVersion)
	e.u64(uint64(len(payload)))
	e.buf = append(e.buf, payload...)
	e.u32(crc32.ChecksumIEEE(payload))
	return e.buf
}

// oneFuncPrefix encodes an empty meta and unit list followed by one
// function with a zero checksum and entry count; the caller appends
// that function's sections.
func oneFuncPrefix() *encoder {
	var e encoder
	for i := 0; i < 5; i++ {
		e.i64(0) // meta
	}
	e.u64(0) // units
	e.u64(1) // funcs
	e.str("f")
	e.u64(0) // checksum
	e.u64(0) // entry count
	return &e
}

// amplifyBlocks is a payload whose function claims maxCount block
// counters with none present. A decoder that presizes from the count
// alone allocates 32 MiB for it.
func amplifyBlocks() []byte {
	e := oneFuncPrefix()
	e.u64(maxCount)
	return e.buf
}

// amplifyTargets is a payload whose one call site claims maxCount
// targets with none present. A decoder that presizes the target map
// from the count alone allocates over 200 MB for it.
func amplifyTargets() []byte {
	e := oneFuncPrefix()
	e.u64(0) // block counts
	e.u64(0) // edges
	e.u64(1) // call sites
	e.i64(0) // pc
	e.u64(maxCount)
	return e.buf
}

// TestDecodeBoundsAllocation checks that a count is bounded by the bytes
// left in the payload: a package of a few dozen bytes must be rejected
// before it makes the decoder allocate memory for elements it lacks.
func TestDecodeBoundsAllocation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"block counts", amplifyBlocks()},
		{"call targets", amplifyTargets()},
	} {
		pkg := frame(tc.payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(pkg)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s (%d-byte package): got %v, want ErrCorrupt", tc.name, len(pkg), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s (%d-byte package): decode allocated %d bytes", tc.name, len(pkg), grew)
		}
	}
}

// FuzzProfDecode feeds framed payloads to Decode. Every rejection must
// be ErrCorrupt, and every accepted package must re-encode to a fixed
// point: Encode(Decode(Encode(q))) == Encode(q).
func FuzzProfDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		q, err := Decode(frame(payload))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v is not ErrCorrupt", err)
			}
			return
		}
		enc := q.Encode()
		r, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded package rejected: %v", err)
		}
		if !bytes.Equal(r.Encode(), enc) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
