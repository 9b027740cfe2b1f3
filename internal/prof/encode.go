package prof

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

// Wire-format constants. The format is: magic, format version, uvarint
// payload length, payload, CRC-32 (IEEE) of the payload. Everything in
// the payload is written with varints and length-prefixed strings, all
// map iterations sorted so encoding is deterministic (a requirement
// for package checksums and test golden files).
var magic = []byte("JSPKG")

const formatVersion = 2

// Decode limits. A corrupt or malicious package must not OOM a
// consumer (Section VI-A3 requires surviving corrupted packages).
const (
	maxStringLen = 1 << 12
	maxCount     = 1 << 22
)

// ErrCorrupt is returned (wrapped) for any malformed package.
var ErrCorrupt = errors.New("prof: corrupt profile package")

type encoder struct{ buf []byte }

func (e *encoder) u64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) i64(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) str(s string) { e.u64(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) u64() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	d.off += n
	return v, nil
}

func (d *decoder) i64() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	d.off += n
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.u64()
	if err != nil {
		return "", err
	}
	if n > maxStringLen || d.off+int(n) > len(d.buf) {
		return "", ErrCorrupt
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) count() (int, error) {
	n, err := d.u64()
	if err != nil {
		return 0, err
	}
	// Every element takes at least one byte, so a count larger than
	// the bytes left is corrupt; rejecting it before callers presize
	// bounds the allocation by the package's own size.
	if n > maxCount || n > uint64(len(d.buf)-d.off) {
		return 0, ErrCorrupt
	}
	return int(n), nil
}

// Encode serializes the profile package.
func (p *Profile) Encode() []byte {
	var e encoder
	// Meta.
	e.i64(int64(p.Meta.Region))
	e.i64(int64(p.Meta.Bucket))
	e.i64(int64(p.Meta.SeederID))
	e.i64(p.Meta.Revision)
	e.i64(p.Meta.RequestCount)

	// Units.
	e.u64(uint64(len(p.Units)))
	for _, u := range p.Units {
		e.str(u)
	}

	// Functions, sorted by name.
	names := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	e.u64(uint64(len(names)))
	for _, name := range names {
		fp := p.Funcs[name]
		e.str(name)
		e.u64(fp.Checksum)
		e.u64(fp.EntryCount)
		e.u64(uint64(len(fp.BlockCounts)))
		for _, n := range fp.BlockCounts {
			e.u64(n)
		}
		// Edges sorted by (src, dst).
		edges := make([]EdgeKey, 0, len(fp.EdgeCounts))
		for k := range fp.EdgeCounts {
			edges = append(edges, k)
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Src != edges[j].Src {
				return edges[i].Src < edges[j].Src
			}
			return edges[i].Dst < edges[j].Dst
		})
		e.u64(uint64(len(edges)))
		for _, k := range edges {
			e.i64(int64(k.Src))
			e.i64(int64(k.Dst))
			e.u64(fp.EdgeCounts[k])
		}
		// Call targets sorted by pc then name.
		pcs := make([]int32, 0, len(fp.CallTargets))
		for pc := range fp.CallTargets {
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		e.u64(uint64(len(pcs)))
		for _, pc := range pcs {
			targets := fp.CallTargets[pc]
			tnames := make([]string, 0, len(targets))
			for n := range targets {
				tnames = append(tnames, n)
			}
			sort.Strings(tnames)
			e.i64(int64(pc))
			e.u64(uint64(len(tnames)))
			for _, tn := range tnames {
				e.str(tn)
				e.u64(targets[tn])
			}
		}
		// Type observations sorted by pc then key.
		tpcs := make([]int32, 0, len(fp.TypeObs))
		for pc := range fp.TypeObs {
			tpcs = append(tpcs, pc)
		}
		sort.Slice(tpcs, func(i, j int) bool { return tpcs[i] < tpcs[j] })
		e.u64(uint64(len(tpcs)))
		for _, pc := range tpcs {
			obs := fp.TypeObs[pc]
			keys := make([]uint16, 0, len(obs))
			for k := range obs {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			e.i64(int64(pc))
			e.u64(uint64(len(keys)))
			for _, k := range keys {
				e.u64(uint64(k))
				e.u64(obs[k])
			}
		}
		// Vasm counters.
		e.u64(uint64(len(fp.VasmCounts)))
		for _, n := range fp.VasmCounts {
			e.u64(n)
		}
	}

	// Props sorted by key.
	pkeys := make([]string, 0, len(p.Props))
	for k := range p.Props {
		pkeys = append(pkeys, k)
	}
	sort.Strings(pkeys)
	e.u64(uint64(len(pkeys)))
	for _, k := range pkeys {
		e.str(k)
		e.u64(p.Props[k])
	}

	// Call pairs sorted by caller, callee.
	cps := make([]CallPair, 0, len(p.CallPairs))
	for k := range p.CallPairs {
		cps = append(cps, k)
	}
	sort.Slice(cps, func(i, j int) bool {
		if cps[i].Caller != cps[j].Caller {
			return cps[i].Caller < cps[j].Caller
		}
		return cps[i].Callee < cps[j].Callee
	})
	e.u64(uint64(len(cps)))
	for _, k := range cps {
		e.str(k.Caller)
		e.str(k.Callee)
		e.u64(p.CallPairs[k])
	}

	// Function order.
	e.u64(uint64(len(p.FuncOrder)))
	for _, n := range p.FuncOrder {
		e.str(n)
	}

	payload := e.buf
	var out encoder
	out.buf = append(out.buf, magic...)
	out.buf = append(out.buf, formatVersion)
	out.u64(uint64(len(payload)))
	out.buf = append(out.buf, payload...)
	out.u32(crc32.ChecksumIEEE(payload))
	return out.buf
}

// Decode parses a profile package, verifying framing and checksum.
// It never panics on malformed input.
func Decode(data []byte) (p *Profile, err error) {
	defer func() {
		// Belt and suspenders: any slip in the bounds checks below
		// must surface as ErrCorrupt, not a panic in a consumer.
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("%w: %v", ErrCorrupt, r)
		}
	}()

	if len(data) < len(magic)+1 {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	for i, c := range magic {
		if data[i] != c {
			return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
		}
	}
	if data[len(magic)] != formatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, data[len(magic)])
	}
	d := &decoder{buf: data, off: len(magic) + 1}
	plen, err := d.u64()
	if err != nil {
		return nil, err
	}
	if d.off+int(plen)+4 > len(data) || plen > uint64(len(data)) {
		return nil, fmt.Errorf("%w: truncated payload", ErrCorrupt)
	}
	// Strict framing: the CRC word must be the final bytes of the
	// package. Anything after it is not covered by the checksum, so a
	// lax decoder would vouch for data it never verified (and two
	// byte-different packages would decode identically).
	if d.off+int(plen)+4 != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after checksum",
			ErrCorrupt, len(data)-(d.off+int(plen)+4))
	}
	payload := data[d.off : d.off+int(plen)]
	gotCRC := binary.LittleEndian.Uint32(data[d.off+int(plen):])
	if crc32.ChecksumIEEE(payload) != gotCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d = &decoder{buf: payload}

	p = NewProfile()
	rd := func(dst *int32) error {
		v, err := d.i64()
		if err != nil {
			return err
		}
		*dst = int32(v)
		return nil
	}
	if err := rd(&p.Meta.Region); err != nil {
		return nil, err
	}
	if err := rd(&p.Meta.Bucket); err != nil {
		return nil, err
	}
	if err := rd(&p.Meta.SeederID); err != nil {
		return nil, err
	}
	if p.Meta.Revision, err = d.i64(); err != nil {
		return nil, err
	}
	if p.Meta.RequestCount, err = d.i64(); err != nil {
		return nil, err
	}

	nUnits, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nUnits; i++ {
		u, err := d.str()
		if err != nil {
			return nil, err
		}
		p.Units = append(p.Units, u)
	}

	nFuncs, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nFuncs; i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		fp := &FuncProfile{
			EdgeCounts:  map[EdgeKey]uint64{},
			CallTargets: map[int32]map[string]uint64{},
			TypeObs:     map[int32]map[uint16]uint64{},
		}
		if fp.Checksum, err = d.u64(); err != nil {
			return nil, err
		}
		if fp.EntryCount, err = d.u64(); err != nil {
			return nil, err
		}
		nb, err := d.count()
		if err != nil {
			return nil, err
		}
		fp.BlockCounts = make([]uint64, nb)
		for j := 0; j < nb; j++ {
			if fp.BlockCounts[j], err = d.u64(); err != nil {
				return nil, err
			}
		}
		ne, err := d.count()
		if err != nil {
			return nil, err
		}
		for j := 0; j < ne; j++ {
			var k EdgeKey
			s, err := d.i64()
			if err != nil {
				return nil, err
			}
			t, err := d.i64()
			if err != nil {
				return nil, err
			}
			k.Src, k.Dst = int32(s), int32(t)
			if fp.EdgeCounts[k], err = d.u64(); err != nil {
				return nil, err
			}
		}
		nc, err := d.count()
		if err != nil {
			return nil, err
		}
		for j := 0; j < nc; j++ {
			pc, err := d.i64()
			if err != nil {
				return nil, err
			}
			nt, err := d.count()
			if err != nil {
				return nil, err
			}
			targets := make(map[string]uint64, nt)
			for k := 0; k < nt; k++ {
				tn, err := d.str()
				if err != nil {
					return nil, err
				}
				if targets[tn], err = d.u64(); err != nil {
					return nil, err
				}
			}
			fp.CallTargets[int32(pc)] = targets
		}
		nty, err := d.count()
		if err != nil {
			return nil, err
		}
		for j := 0; j < nty; j++ {
			pc, err := d.i64()
			if err != nil {
				return nil, err
			}
			no, err := d.count()
			if err != nil {
				return nil, err
			}
			obs := make(map[uint16]uint64, no)
			for k := 0; k < no; k++ {
				key, err := d.u64()
				if err != nil {
					return nil, err
				}
				if key > 0xffff {
					return nil, fmt.Errorf("%w: type key out of range", ErrCorrupt)
				}
				if obs[uint16(key)], err = d.u64(); err != nil {
					return nil, err
				}
			}
			fp.TypeObs[int32(pc)] = obs
		}
		nv, err := d.count()
		if err != nil {
			return nil, err
		}
		if nv > 0 {
			fp.VasmCounts = make([]uint64, nv)
			for j := 0; j < nv; j++ {
				if fp.VasmCounts[j], err = d.u64(); err != nil {
					return nil, err
				}
			}
		}
		p.Funcs[name] = fp
	}

	np, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < np; i++ {
		k, err := d.str()
		if err != nil {
			return nil, err
		}
		if p.Props[k], err = d.u64(); err != nil {
			return nil, err
		}
	}

	ncp, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < ncp; i++ {
		caller, err := d.str()
		if err != nil {
			return nil, err
		}
		callee, err := d.str()
		if err != nil {
			return nil, err
		}
		if p.CallPairs[CallPair{caller, callee}], err = d.u64(); err != nil {
			return nil, err
		}
	}

	nfo, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nfo; i++ {
		n, err := d.str()
		if err != nil {
			return nil, err
		}
		p.FuncOrder = append(p.FuncOrder, n)
	}

	if d.off != len(payload) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return p, nil
}
