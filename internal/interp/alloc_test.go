package interp

import (
	"testing"

	"jumpstart/internal/bytecode"
	"jumpstart/internal/hackc"
	"jumpstart/internal/object"
	"jumpstart/internal/value"
)

// TestDispatchAllocFree pins the tier-0 hot path: once the per-depth
// frame pool has grown, interpreting pure compute — arithmetic,
// comparisons, branches, loops, nested and recursive calls — performs
// zero heap allocations. Only program-level value allocations (arrays,
// objects) may allocate; the dispatch machinery itself never does.
func TestDispatchAllocFree(t *testing.T) {
	src := `
fun helper(x, y) {
  acc = 0;
  for (i = 0; i < 8; i += 1) {
    if (x > y) { acc += x - y; } else { acc += y; }
    x += 3;
  }
  return acc;
}
fun fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
fun entry(a) {
  s = 0;
  for (i = 0; i < 10; i += 1) {
    s += helper(a + i, i * 2);
  }
  return s + fib(10);
}
`
	prog, err := hackc.CompileSources(
		map[string]string{"m.mh": src}, []string{"m.mh"}, hackc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := object.NewRegistry(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	ip := New(prog, reg, Config{})
	fn, ok := prog.FuncByName("entry")
	if !ok {
		t.Fatal("no entry")
	}
	arg := value.Int(7)
	// Warm once: grows the frame pool to the program's max depth.
	want, err := ip.Call(fn, arg)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		got, err := ip.Call(fn, arg)
		if err != nil {
			t.Fatal(err)
		}
		if !value.Identical(got, want) {
			t.Fatalf("result changed: %v vs %v", got, want)
		}
	})
	if avg != 0 {
		t.Fatalf("interpreter dispatch allocates: %v allocs per call", avg)
	}
}

// TestPackedArrayAllocFree pins the packed array layout on the
// interpreter path. Building a presized list — a literal (OpNewVec) or
// keys(), which appends into an array sized up front — takes exactly
// two allocations: the array header and one values buffer. Indexing
// and foreach over a packed array allocate nothing.
func TestPackedArrayAllocFree(t *testing.T) {
	src := `
fun build(a) { return [a, a + 1, a + 2, a + 3, a + 4, a + 5, a + 6, a + 7]; }
fun ks(xs) { return keys(xs); }
fun read(xs) {
  s = 0;
  foreach (xs as k => x) { s += x * xs[k]; }
  return s;
}
`
	prog, err := hackc.CompileSources(
		map[string]string{"m.mh": src}, []string{"m.mh"}, hackc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := object.NewRegistry(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	ip := New(prog, reg, Config{})
	fns := map[string]*bytecode.Function{}
	for _, name := range []string{"build", "ks", "read"} {
		fn, ok := prog.FuncByName(name)
		if !ok {
			t.Fatalf("no %s", name)
		}
		fns[name] = fn
	}
	xs, err := ip.Call(fns["build"], value.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		fn   string
		arg  value.Value
		want float64
	}{
		{"build", value.Int(3), 2},
		{"ks", xs, 2},
		{"read", xs, 0},
	}
	for _, c := range cases {
		if _, err := ip.Call(fns[c.fn], c.arg); err != nil { // warm the frame pool
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := ip.Call(fns[c.fn], c.arg); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %v allocs per call, want %v", c.fn, got, c.want)
		}
	}
}

// TestIterReuseAllocFree pins iterator-state reuse: a foreach over an
// existing array reuses the pooled snapshot buffer after the first
// pass. (The array built inside the loop body is program data and is
// excluded by constructing it once up front.)
func TestIterReuseAllocFree(t *testing.T) {
	src := `
fun sum(xs) {
  s = 0;
  foreach (xs as x) { s += x; }
  return s;
}
`
	prog, err := hackc.CompileSources(
		map[string]string{"m.mh": src}, []string{"m.mh"}, hackc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := object.NewRegistry(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	ip := New(prog, reg, Config{})
	fn, ok := prog.FuncByName("sum")
	if !ok {
		t.Fatal("no sum")
	}
	arr := value.NewArray(16)
	for i := 0; i < 16; i++ {
		arr.Append(value.Int(int64(i)))
	}
	arg := value.Arr(arr)
	if _, err := ip.Call(fn, arg); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := ip.Call(fn, arg); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("foreach allocates after warmup: %v allocs per call", avg)
	}
}
