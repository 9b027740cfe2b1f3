package value

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// refArray is the reference model for FuzzArrayOps: the ordered-map
// semantics of Array written as naively as possible — a list of
// key/value pairs searched linearly, plus the next append key. It has
// one layout, so every packed/mixed transition of Array is checked
// against it.
type refArray struct {
	keys []arrayKey
	vals []Value
	next int64
}

func (r *refArray) find(k arrayKey) int {
	for i, rk := range r.keys {
		if rk == k {
			return i
		}
	}
	return -1
}

func (r *refArray) set(k arrayKey, v Value) {
	if i := r.find(k); i >= 0 {
		r.vals[i] = v
		return
	}
	r.keys = append(r.keys, k)
	r.vals = append(r.vals, v)
	if !k.b && k.i >= r.next {
		r.next = k.i + 1
	}
}

func (r *refArray) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, k := range r.keys {
		if i > 0 {
			b.WriteString(", ")
		}
		if k.b {
			b.WriteString(`"` + k.s + `"`)
		} else {
			b.WriteString(strconv.FormatInt(k.i, 10))
		}
		b.WriteString(" => " + r.vals[i].String())
	}
	b.WriteByte(']')
	return b.String()
}

func (r *refArray) clone() *refArray {
	return &refArray{
		keys: append([]arrayKey(nil), r.keys...),
		vals: append([]Value(nil), r.vals...),
		next: r.next,
	}
}

// refKey maps a key Value the way Array does: canonical numeric
// strings are integers.
func refKey(k Value) arrayKey {
	if k.Kind() == KindStr {
		if ik, ok := canonicalIntKey(k.AsStr()); ok {
			return arrayKey{i: ik}
		}
		return arrayKey{s: k.AsStr(), b: true}
	}
	return arrayKey{i: k.ToInt()}
}

// fuzzStrs are the string keys and values the fuzzer draws from:
// plain strings, canonical and non-canonical numeric strings, and the
// int64 edges.
var fuzzStrs = []string{
	"a", "b", "0", "1", "2", "-1", "-0", "01", "3", "",
	"18446744073709551626", "9223372036854775807", "-9223372036854775808",
}

// fuzzInt is a small signed key: -4..19, so keys land inside, at and
// past the end of short lists.
func fuzzInt(arg byte) int64 { return int64(arg%24) - 4 }

// FuzzArrayOps drives Array and refArray with the same operations and
// requires every observable to agree after each one. Input bytes are
// read in (op, arg) pairs. The committed corpus
// (testdata/fuzz/FuzzArrayOps) reaches each packed → mixed transition:
// a negative key, a key past the end and a string first key.
func FuzzArrayOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		a, r := NewArray(int(len(data)%5)), &refArray{}
		for p := 0; p+1 < len(data); p += 2 {
			op, arg := data[p]%5, data[p+1]
			s := fuzzStrs[int(arg)%len(fuzzStrs)]
			switch op {
			case 0:
				a.Append(Int(int64(arg)))
				r.set(arrayKey{i: r.next}, Int(int64(arg)))
			case 1:
				a.SetInt(fuzzInt(arg), Int(int64(arg)))
				r.set(arrayKey{i: fuzzInt(arg)}, Int(int64(arg)))
			case 2:
				a.SetStr(s, Int(int64(arg)))
				r.set(refKey(Str(s)), Int(int64(arg)))
			case 3:
				c, rc := a.Clone(), r.clone()
				c.Append(Str(s))
				rc.set(arrayKey{i: rc.next}, Str(s))
				checkAgainstRef(t, p/2, c, rc)
			case 4:
				a.Append(Str(s))
				r.set(arrayKey{i: r.next}, Str(s))
			}
			checkAgainstRef(t, p/2, a, r)
		}
	})
}

// checkAgainstRef compares every observable of a with the model:
// length, each entry in order, lookups of live and absent keys, the
// rendering, Equals/Compare against a copy rebuilt key by key, and the
// next append key (read from a clone, so a is left as it was). It also
// checks that a is packed only when the model's keys allow it.
func checkAgainstRef(t *testing.T, step int, a *Array, r *refArray) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("op %d: %s\narray %s", step, fmt.Sprintf(format, args...), a)
	}
	if a.Len() != len(r.keys) {
		fail("Len = %d, want %d", a.Len(), len(r.keys))
	}
	rebuilt := NewArray(0)
	for i, k := range r.keys {
		e := a.At(i)
		if e.IsStr != k.b || e.IntKey != k.i || e.StrKey != k.s || !Identical(e.Val, r.vals[i]) {
			fail("At(%d) = %+v, want key %+v val %v", i, e, k, r.vals[i])
		}
		var got Value
		var ok bool
		if k.b {
			got, ok = a.GetStr(k.s)
			rebuilt.SetStr(k.s, r.vals[i])
		} else {
			got, ok = a.GetInt(k.i)
			rebuilt.SetInt(k.i, r.vals[i])
		}
		if !ok || !Identical(got, r.vals[i]) {
			fail("Get(%+v) = %v,%v, want %v", k, got, ok, r.vals[i])
		}
	}
	for _, k := range []Value{Int(-1), Int(int64(len(r.keys))), Int(r.next), Str("zz"), Str("-0")} {
		want := r.find(refKey(k)) >= 0
		if _, ok := a.Get(k); ok != want {
			fail("Get(%v) present = %v, want %v", k, ok, want)
		}
	}
	if got, want := a.String(), r.String(); got != want {
		fail("String = %s, want %s", got, want)
	}
	if !Equals(Arr(a), Arr(rebuilt)) || Compare(Arr(a), Arr(rebuilt)) != 0 {
		fail("not Equal to its rebuilt copy %s", rebuilt)
	}
	c := a.Clone()
	c.Append(Bool(true))
	if v, ok := c.GetInt(r.next); !ok || !Identical(v, Bool(true)) {
		fail("append did not land on key %d", r.next)
	}
	if _, packed := a.Packed(); packed {
		for i, k := range r.keys {
			if k != (arrayKey{i: int64(i)}) {
				fail("packed with key %+v at position %d", k, i)
			}
		}
		if r.next != int64(len(r.keys)) {
			fail("packed with next key %d at length %d", r.next, len(r.keys))
		}
	}
}
