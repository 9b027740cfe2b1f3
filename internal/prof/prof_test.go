package prof

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"jumpstart/internal/hackc"
	"jumpstart/internal/interp"
	"jumpstart/internal/object"
	"jumpstart/internal/value"
)

const profSrc = `
class Shape { prop hot = 0; prop cold = 0; fun area() { return 0; } }
class Circle extends Shape { prop r = 2; fun area() { return this->r * this->r * 3; } }
class Square extends Shape { prop s = 3; fun area() { return this->s * this->s; } }
fun tally(o) { o->hot += 1; o->cold += o->hot; return o->area(); }
fun work(n) {
  total = 0;
  c = new Circle;
  s = new Square;
  for (i = 0; i < n; i += 1) {
    total += tally(c);
    if (i % 10 == 0) { total += tally(s); }
  }
  return total;
}`

// profiledRun compiles profSrc, runs work(n) under a Collector, and
// returns the collector plus the program.
func profiledRun(t *testing.T, n int64) (*Collector, *interp.Interp) {
	t.Helper()
	prog, err := hackc.CompileSources(
		map[string]string{"site.mh": profSrc}, []string{"site.mh"}, hackc.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := object.NewRegistry(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(prog)
	ip := interp.New(prog, reg, interp.Config{Tracer: col})
	col.BeginRequest()
	if _, err := ip.CallByName("work", value.Int(n)); err != nil {
		t.Fatal(err)
	}
	return col, ip
}

func TestCollectorCounts(t *testing.T) {
	col, ip := profiledRun(t, 100)
	p := col.Snapshot(Meta{Region: 1, Bucket: 2, SeederID: 3, Revision: 42})
	if p.Meta.RequestCount != 1 {
		t.Fatalf("requests = %d", p.Meta.RequestCount)
	}
	work := p.Funcs["work"]
	if work == nil || work.EntryCount != 1 {
		t.Fatalf("work profile = %+v", work)
	}
	tally := p.Funcs["tally"]
	if tally == nil || tally.EntryCount != 110 {
		t.Fatalf("tally entries = %+v", tally)
	}
	circle := p.Funcs["Circle::area"]
	if circle == nil || circle.EntryCount != 100 {
		t.Fatalf("Circle::area entries = %+v", circle)
	}
	// Call-target profile at tally's method-call site must show both
	// targets with Circle dominant.
	var foundSite bool
	for _, targets := range tally.CallTargets {
		if targets["Circle::area"] == 100 && targets["Square::area"] == 10 {
			foundSite = true
		}
	}
	if !foundSite {
		t.Fatalf("call targets = %v", tally.CallTargets)
	}
	// Block counts: some block in work ran 100 times (loop body).
	found := false
	for _, n := range work.BlockCounts {
		if n == 100 {
			found = true
		}
	}
	if !found {
		t.Fatalf("work blocks = %v", work.BlockCounts)
	}
	// Edge counts exist and connect blocks.
	if len(work.EdgeCounts) == 0 {
		t.Fatal("no edges")
	}
	// Property counters: Shape::hot is hottest (110 writes + 110
	// compound reads).
	if p.Props["Shape::hot"] == 0 {
		t.Fatalf("props = %v", p.Props)
	}
	if p.Props["Shape::hot"] <= p.Props["Shape::cold"] {
		t.Fatalf("hot/cold inverted: %v", p.Props)
	}
	// Inherited props keyed by the declaring class (Shape), own by the
	// leaf (Circle::r).
	if p.Props["Circle::r"] == 0 {
		t.Fatalf("Circle::r missing: %v", p.Props)
	}
	// Units preload list records the unit.
	if len(p.Units) != 1 || p.Units[0] != "site.mh" {
		t.Fatalf("units = %v", p.Units)
	}
	// Checksums match the live program.
	fn, _ := ip.Program().FuncByName("work")
	if work.Checksum != FuncChecksum(fn) {
		t.Fatal("checksum mismatch")
	}
}

func TestDominantTarget(t *testing.T) {
	col, _ := profiledRun(t, 100)
	p := col.Snapshot(Meta{})
	tally := p.Funcs["tally"]
	var pc int32 = -1
	for cpc, targets := range tally.CallTargets {
		if len(targets) == 2 {
			pc = cpc
		}
	}
	if pc < 0 {
		t.Fatal("polymorphic site not found")
	}
	// Circle gets 100/110 ≈ 91%.
	if name, ok := tally.DominantTarget(pc, 0.9); !ok || name != "Circle::area" {
		t.Fatalf("dominant = %q, %v", name, ok)
	}
	if _, ok := tally.DominantTarget(pc, 0.95); ok {
		t.Fatal("95% should not be met")
	}
	if _, ok := tally.DominantTarget(999, 0.5); ok {
		t.Fatal("unknown site")
	}
}

func TestMonoTypes(t *testing.T) {
	col, _ := profiledRun(t, 50)
	p := col.Snapshot(Meta{})
	work := p.Funcs["work"]
	mono := 0
	for pc := range work.TypeObs {
		if a, b, ok := work.MonoTypes(pc); ok {
			if value.Kind(a) != value.KindInt || value.Kind(b) != value.KindInt {
				t.Fatalf("work arithmetic should be int/int, got %v/%v",
					value.Kind(a), value.Kind(b))
			}
			mono++
		}
	}
	if mono == 0 {
		t.Fatal("no monomorphic sites found")
	}
}

func TestHotFunctions(t *testing.T) {
	col, _ := profiledRun(t, 100)
	p := col.Snapshot(Meta{})
	hot := p.HotFunctions()
	if len(hot) < 4 {
		t.Fatalf("hot = %v", hot)
	}
	if hot[0] != "tally" { // 110 entries, the hottest
		t.Fatalf("hottest = %q (%v)", hot[0], hot)
	}
	// Decreasing entry counts.
	for i := 1; i < len(hot); i++ {
		if p.Funcs[hot[i]].EntryCount > p.Funcs[hot[i-1]].EntryCount {
			t.Fatalf("not sorted: %v", hot)
		}
	}
}

func TestCoverageAndThresholds(t *testing.T) {
	col, _ := profiledRun(t, 100)
	p := col.Snapshot(Meta{})
	c := p.Coverage()
	if c.Funcs < 4 || c.Blocks == 0 || c.TotalCount == 0 || c.RequestCount != 1 {
		t.Fatalf("coverage = %+v", c)
	}
	if !p.MeetsThresholds(Thresholds{MinFuncs: 3, MinBlocks: 3, MinRequests: 1}) {
		t.Fatal("should meet modest thresholds")
	}
	if p.MeetsThresholds(Thresholds{MinFuncs: 1000}) {
		t.Fatal("should not meet huge thresholds")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	col, _ := profiledRun(t, 100)
	p := col.Snapshot(Meta{Region: 7, Bucket: 3, SeederID: 11, Revision: 99})
	p.FuncOrder = []string{"tally", "work"}
	p.CallPairs[CallPair{"work", "tally"}] = 110
	p.Funcs["work"].VasmCounts = []uint64{5, 10, 15}

	data := p.Encode()
	q, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if q.Meta != p.Meta {
		t.Fatalf("meta = %+v, want %+v", q.Meta, p.Meta)
	}
	if len(q.Funcs) != len(p.Funcs) {
		t.Fatalf("funcs = %d, want %d", len(q.Funcs), len(p.Funcs))
	}
	for name, fp := range p.Funcs {
		qf := q.Funcs[name]
		if qf == nil {
			t.Fatalf("func %s missing", name)
		}
		if qf.Checksum != fp.Checksum || qf.EntryCount != fp.EntryCount {
			t.Fatalf("func %s header mismatch", name)
		}
		if len(qf.BlockCounts) != len(fp.BlockCounts) {
			t.Fatalf("func %s blocks", name)
		}
		for i := range fp.BlockCounts {
			if qf.BlockCounts[i] != fp.BlockCounts[i] {
				t.Fatalf("func %s block %d", name, i)
			}
		}
		if len(qf.EdgeCounts) != len(fp.EdgeCounts) {
			t.Fatalf("func %s edges", name)
		}
		for k, v := range fp.EdgeCounts {
			if qf.EdgeCounts[k] != v {
				t.Fatalf("func %s edge %v", name, k)
			}
		}
		for pc, targets := range fp.CallTargets {
			for tn, v := range targets {
				if qf.CallTargets[pc][tn] != v {
					t.Fatalf("func %s call target", name)
				}
			}
		}
		for pc, obs := range fp.TypeObs {
			for k, v := range obs {
				if qf.TypeObs[pc][k] != v {
					t.Fatalf("func %s types", name)
				}
			}
		}
	}
	if len(q.Props) != len(p.Props) {
		t.Fatal("props")
	}
	if q.CallPairs[CallPair{"work", "tally"}] != 110 {
		t.Fatal("call pairs")
	}
	if len(q.FuncOrder) != 2 || q.FuncOrder[0] != "tally" {
		t.Fatalf("func order = %v", q.FuncOrder)
	}
	vc := q.Funcs["work"].VasmCounts
	if len(vc) != 3 || vc[2] != 15 {
		t.Fatalf("vasm counts = %v", vc)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	col, _ := profiledRun(t, 30)
	p := col.Snapshot(Meta{})
	a := p.Encode()
	b := p.Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	col, _ := profiledRun(t, 20)
	p := col.Snapshot(Meta{})
	good := p.Encode()

	// Truncations at every prefix length must error, never panic.
	for n := 0; n < len(good); n += 7 {
		if _, err := Decode(good[:n]); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
	// Bit flips through the body must be caught by the CRC.
	for i := 0; i < len(good); i += 11 {
		bad := append([]byte{}, good...)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	// Wrong magic and version.
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte{}, good...)
	bad[5] = 99
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	// A version-1 package carried a property-pair section this format
	// no longer has; its payload must be rejected, not parsed with the
	// later sections shifted. The CRC covers only the payload, so it
	// still matches.
	bad = append([]byte{}, good...)
	bad[5] = 1
	if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version-1 package: got %v, want ErrCorrupt", err)
	}
	// Trailing garbage after the CRC word: the checksum does not cover
	// it, so the strict framing check must reject it as corruption.
	for _, tail := range [][]byte{{0}, {0xff}, {1, 2, 3, 4, 5, 6, 7, 8}} {
		bad = append(append([]byte{}, good...), tail...)
		_, err := Decode(bad)
		if err == nil {
			t.Fatalf("%d trailing bytes accepted", len(tail))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trailing bytes: got %v, want ErrCorrupt", err)
		}
	}
	// A self-framed package followed by a second copy must not decode
	// as the first (concatenation is not a valid package).
	if _, err := Decode(append(append([]byte{}, good...), good...)); err == nil {
		t.Fatal("concatenated packages accepted")
	}
}

// Property: Decode never panics on arbitrary bytes.
func TestPropDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, err := Decode(data)
		_ = err
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChecksumDetectsCodeChange(t *testing.T) {
	prog1, err := hackc.CompileSources(
		map[string]string{"m.mh": `fun f(x) { return x + 1; }`}, []string{"m.mh"}, hackc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := hackc.CompileSources(
		map[string]string{"m.mh": `fun f(x) { return x + 2; }`}, []string{"m.mh"}, hackc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := prog1.FuncByName("f")
	f2, _ := prog2.FuncByName("f")
	if FuncChecksum(f1) == FuncChecksum(f2) {
		t.Fatal("checksum must change with code")
	}
	if FuncChecksum(f1) != FuncChecksum(f1) {
		t.Fatal("checksum must be stable")
	}
}

// Property: arbitrary well-formed profiles survive an encode/decode
// round trip exactly.
func TestPropRandomProfileRoundTrip(t *testing.T) {
	f := func(seed int64, nf, nu uint8) bool {
		rng := seed
		next := func() uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return uint64(rng)
		}
		str := func() string {
			n := int(next()%12) + 1
			b := make([]byte, n)
			for i := range b {
				b[i] = byte('a' + next()%26)
			}
			return string(b)
		}
		p := NewProfile()
		p.Meta = Meta{
			Region: int32(next() % 16), Bucket: int32(next() % 10),
			SeederID: int32(next() % 1000), Revision: int64(next() % 1_000_000),
			RequestCount: int64(next() % 100_000),
		}
		for i := 0; i < int(nu%6); i++ {
			p.Units = append(p.Units, str())
		}
		for i := 0; i < int(nf%8); i++ {
			fp := &FuncProfile{
				Checksum:    next(),
				EntryCount:  next() % 1_000_000,
				EdgeCounts:  map[EdgeKey]uint64{},
				CallTargets: map[int32]map[string]uint64{},
				TypeObs:     map[int32]map[uint16]uint64{},
			}
			for j := 0; j < int(next()%6); j++ {
				fp.BlockCounts = append(fp.BlockCounts, next()%1000)
			}
			for j := 0; j < int(next()%4); j++ {
				fp.EdgeCounts[EdgeKey{Src: int32(next() % 8), Dst: int32(next() % 8)}] = next() % 500
			}
			for j := 0; j < int(next()%3); j++ {
				fp.CallTargets[int32(next()%32)] = map[string]uint64{str(): next() % 99}
			}
			for j := 0; j < int(next()%3); j++ {
				fp.TypeObs[int32(next()%32)] = map[uint16]uint64{uint16(next() % 0x700): next() % 99}
			}
			if next()%2 == 0 {
				for j := 0; j < int(next()%5); j++ {
					fp.VasmCounts = append(fp.VasmCounts, next()%1000)
				}
			}
			p.Funcs[str()] = fp
		}
		for i := 0; i < int(next()%5); i++ {
			p.Props[str()] = next() % 10000
		}
		for i := 0; i < int(next()%4); i++ {
			p.CallPairs[CallPair{Caller: str(), Callee: str()}] = next() % 10000
		}
		for i := 0; i < int(next()%4); i++ {
			p.FuncOrder = append(p.FuncOrder, str())
		}

		q, err := Decode(p.Encode())
		if err != nil {
			return false
		}
		// Re-encoding the decoded profile must be byte-identical
		// (deterministic encoding implies this checks deep equality).
		return bytes.Equal(p.Encode(), q.Encode())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
