package interp

import (
	"strings"
	"testing"

	"jumpstart/internal/bytecode"
	"jumpstart/internal/hackc"
	"jumpstart/internal/object"
	"jumpstart/internal/value"
)

func TestBuiltinArityAndTypeErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{`fun f() { return len(1); }`, "wants array or string"},
		{`fun f() { return push(1, 2); }`, "wants array"},
		{`fun f() { return keys("x"); }`, "wants array"},
		{`fun f() { return vals(5); }`, "wants array"},
	}
	for _, c := range cases {
		err := runErr(t, c.src, "f")
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%q: error %q missing %q", c.src, err, c.wantSub)
		}
	}
}

func TestBuiltinMathAndStrings(t *testing.T) {
	src := `
fun f() {
  r = [];
  push(r, floor(2.7));
  push(r, ceil(2.1));
  push(r, pow(2, 10));
  push(r, pow(2.0, 0.5));
  push(r, abs(-3));
  push(r, abs(-2.5));
  push(r, substr("abcdef", 2, 100));
  push(r, substr("abcdef", -100, 2));
  push(r, substr("abcdef", 4, -1));
  push(r, substr("abcdef", 10, 2));
  push(r, ord(""));
  push(r, strval(vals(["a" => 1])[0]));
  push(r, strval(keys(["a" => 1])[0]));
  return r;
}`
	v := run(t, src, "f")
	arr := v.AsArr()
	get := func(i int64) value.Value { x, _ := arr.GetInt(i); return x }
	if get(0).AsFloat() != 2 || get(1).AsFloat() != 3 {
		t.Fatalf("floor/ceil: %v", arr)
	}
	if get(2).AsInt() != 1024 {
		t.Fatalf("pow int: %v", get(2))
	}
	if f := get(3).AsFloat(); f < 1.41 || f > 1.42 {
		t.Fatalf("pow float: %v", get(3))
	}
	if get(4).AsInt() != 3 || get(5).AsFloat() != 2.5 {
		t.Fatalf("abs: %v %v", get(4), get(5))
	}
	if get(6).AsStr() != "cdef" {
		t.Fatalf("substr clamp: %q", get(6).AsStr())
	}
	if get(7).AsStr() != "ab" {
		t.Fatalf("substr negative start: %q", get(7).AsStr())
	}
	if get(8).AsStr() != "e" {
		t.Fatalf("substr negative length: %q", get(8).AsStr())
	}
	if get(9).AsStr() != "" {
		t.Fatalf("substr past end: %q", get(9).AsStr())
	}
	if get(10).AsInt() != 0 {
		t.Fatalf("ord empty: %v", get(10))
	}
	if get(11).AsStr() != "1" || get(12).AsStr() != "a" {
		t.Fatalf("vals/keys: %v %v", get(11), get(12))
	}
}

func TestBuiltinPowOverflowPromotes(t *testing.T) {
	src := `fun f() { return pow(10, 30); }`
	v := run(t, src, "f")
	if v.Kind() != value.KindFloat {
		t.Fatalf("pow overflow should promote to float, got %v", v.Kind())
	}
}

func TestBuiltinMinMaxNoArgs(t *testing.T) {
	// min()/max() with zero args is a runtime error; exercise via raw
	// bytecode since the compiler would happily emit it.
	ip := rawProgram(t, func(b *bytecode.FuncBuilder) {
		b.Emit(bytecode.OpBuiltin, int32(bytecode.BMin), 0)
		b.Emit(bytecode.OpRet, 0, 0)
	})
	if _, err := ip.CallByName("f", value.Int(0)); err == nil {
		t.Fatal("min() should fail")
	}
}

func TestInterpAccessors(t *testing.T) {
	prog, err := hackc.CompileSources(
		map[string]string{"m.mh": `fun f() { return 0; }`}, []string{"m.mh"}, hackc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := object.NewRegistry(prog, nil)
	ip := New(prog, reg, Config{})
	if ip.Registry() != reg || ip.Program() != prog {
		t.Fatal("accessors")
	}
	fn, _ := prog.FuncByName("f")
	if v, err := ip.Call(fn); err != nil || v.AsInt() != 0 {
		t.Fatalf("Call = %v, %v", v, err)
	}
}

func TestCompareAllOps(t *testing.T) {
	src := `fun f(a, b) {
  r = 0;
  if (a == b)  { r += 1; }
  if (a != b)  { r += 2; }
  if (a === b) { r += 4; }
  if (a !== b) { r += 8; }
  if (a < b)   { r += 16; }
  if (a <= b)  { r += 32; }
  if (a > b)   { r += 64; }
  if (a >= b)  { r += 128; }
  return r;
}`
	if v := run(t, src, "f", value.Int(2), value.Int(2)); v.AsInt() != 1+4+32+128 {
		t.Fatalf("equal = %v", v)
	}
	if v := run(t, src, "f", value.Int(1), value.Int(2)); v.AsInt() != 2+8+16+32 {
		t.Fatalf("less = %v", v)
	}
	if v := run(t, src, "f", value.Int(1), value.Str("1")); v.AsInt() != 1+8+32+128 {
		t.Fatalf("loose-equal = %v", v)
	}
}
