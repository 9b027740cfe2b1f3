package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestArrayAppendAndGet(t *testing.T) {
	a := NewArray(0)
	a.Append(Str("x"))
	a.Append(Str("y"))
	if a.Len() != 2 {
		t.Fatalf("len = %d", a.Len())
	}
	v, ok := a.GetInt(0)
	if !ok || v.AsStr() != "x" {
		t.Fatalf("a[0] = %v, %v", v, ok)
	}
	v, ok = a.GetInt(1)
	if !ok || v.AsStr() != "y" {
		t.Fatalf("a[1] = %v, %v", v, ok)
	}
	if _, ok := a.GetInt(2); ok {
		t.Fatal("a[2] should be absent")
	}
}

func TestArrayAutoIncrementAfterExplicitKey(t *testing.T) {
	a := NewArray(0)
	a.SetInt(10, Int(1))
	a.Append(Int(2))
	if _, ok := a.GetInt(11); !ok {
		t.Fatal("append after a[10] should use key 11")
	}
}

func TestArrayStringKeys(t *testing.T) {
	a := NewArray(0)
	a.SetStr("name", Str("bob"))
	v, ok := a.GetStr("name")
	if !ok || v.AsStr() != "bob" {
		t.Fatalf(`a["name"] = %v`, v)
	}
	// Canonical numeric string keys alias integer keys, like PHP.
	a.SetStr("5", Int(99))
	v, ok = a.GetInt(5)
	if !ok || v.AsInt() != 99 {
		t.Fatalf(`a["5"] should alias a[5], got %v %v`, v, ok)
	}
	// Non-canonical ("05") stays a string key.
	a.SetStr("05", Int(1))
	if _, ok := a.GetInt(5); !ok {
		t.Fatal("a[5] should still exist")
	}
	v, _ = a.GetStr("05")
	if v.AsInt() != 1 {
		t.Fatalf(`a["05"] = %v`, v)
	}
}

func TestArraySetGenericKeyCoercion(t *testing.T) {
	a := NewArray(0)
	a.Set(Float(3.7), Str("v")) // float keys truncate
	if v, ok := a.GetInt(3); !ok || v.AsStr() != "v" {
		t.Fatalf("a[3] = %v %v", v, ok)
	}
	a.Set(Bool(true), Str("w"))
	if v, ok := a.GetInt(1); !ok || v.AsStr() != "w" {
		t.Fatalf("a[1] = %v %v", v, ok)
	}
	if v, ok := a.Get(Int(3)); !ok || v.AsStr() != "v" {
		t.Fatalf("Get(3) = %v %v", v, ok)
	}
}

func TestArrayKeysValuesClone(t *testing.T) {
	a := NewArray(0)
	a.Append(Int(1))
	a.SetStr("s", Int(2))
	ks := a.Keys()
	if len(ks) != 2 || ks[0].AsInt() != 0 || ks[1].AsStr() != "s" {
		t.Fatalf("keys = %v", ks)
	}
	vs := a.Values()
	if len(vs) != 2 || vs[1].AsInt() != 2 {
		t.Fatalf("values = %v", vs)
	}
	c := a.Clone()
	c.SetStr("s", Int(9))
	if v, _ := a.GetStr("s"); v.AsInt() != 2 {
		t.Fatal("clone must not alias original")
	}
	if v, _ := c.GetStr("s"); v.AsInt() != 9 {
		t.Fatal("clone write lost")
	}
}

func TestArrayString(t *testing.T) {
	a := NewArray(0)
	a.Append(Int(1))
	a.SetStr("k", Str("v"))
	want := `[0 => 1, "k" => "v"]`
	if got := a.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestCanonicalIntKey(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true}, {"7", 7, true}, {"-3", -3, true},
		{"42", 42, true}, {"007", 0, false}, {"", 0, false},
		{"-", 0, false}, {"1.5", 0, false}, {"+1", 0, false},
		{"99999999999999999999999", 0, false},
		// 2^64+10 wraps to 10 in int64 arithmetic; it is out of range.
		{"18446744073709551626", 0, false},
		// PHP keeps "-0" a string key.
		{"-0", 0, false},
		{"-9223372036854775808", math.MinInt64, true},
		{"9223372036854775807", math.MaxInt64, true},
		{"9223372036854775808", 0, false},
		{"-9223372036854775809", 0, false},
	}
	for _, c := range cases {
		got, ok := canonicalIntKey(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("canonicalIntKey(%q) = %d,%v want %d,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// Property: after SetInt(k, v), GetInt(k) returns v.
func TestPropArraySetGetRoundTrip(t *testing.T) {
	f := func(keys []int16, vals []int16) bool {
		a := NewArray(0)
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		want := map[int64]int64{}
		for i := 0; i < n; i++ {
			a.SetInt(int64(keys[i]), Int(int64(vals[i])))
			want[int64(keys[i])] = int64(vals[i])
		}
		if a.Len() != len(want) {
			return false
		}
		for k, v := range want {
			got, ok := a.GetInt(k)
			if !ok || got.AsInt() != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
