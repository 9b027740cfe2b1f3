package value

import (
	"maps"
	"math"
	"slices"
	"strings"
)

// Array is a PHP-style ordered map. Keys are either int64 or string;
// insertion order is preserved. Appending uses the next-free integer
// key, like PHP's $a[] = v.
//
// Arrays are reference types: a Value holds a *Array and assignments
// share the backing store. (Real PHP has copy-on-write value semantics;
// MiniHack deliberately uses reference semantics, which is what Hack's
// vec/dict migration pushed toward and what keeps the interpreter and
// the simulated JIT agreeing on aliasing.)
//
// Like HHVM's packed and mixed array kinds, an Array has two layouts
// behind one API, chosen only by the keys it has seen:
//
//   - packed (m == nil): the keys are exactly 0..Len()-1 in insertion
//     order and the next append key is Len(), so only the values are
//     stored, 32 bytes per slot with no index;
//   - mixed (m != nil): an entry list plus a key → position map. An
//     array turns mixed for good at the first key that breaks the
//     packed shape: a string key, a negative key or a key past the end.
//
// Every observable (At, Keys, Values, String, iteration order, the
// next append key) is the same in both layouts.
type Array struct {
	vals []Value // the packed layout: vals[i] is keyed i
	m    *mixed  // the mixed layout; nil while packed
	hint int     // capacity for the first buffer, which waits for the first key
}

// mixed is the hashed layout of an Array.
type mixed struct {
	entries []Entry
	index   map[arrayKey]int // key -> position in entries
	nextInt int64            // next auto-increment integer key
}

// Entry is one key/value pair of an Array.
type Entry struct {
	IntKey int64
	StrKey string
	IsStr  bool
	Val    Value
}

// Key returns the entry's key as a Value.
func (e Entry) Key() Value {
	if e.IsStr {
		return Str(e.StrKey)
	}
	return Int(e.IntKey)
}

type arrayKey struct {
	i int64
	s string
	b bool
}

// NewArray returns an empty array with capacity for n entries. The
// buffer is allocated at the first insert, in the layout that key
// calls for.
func NewArray(n int) *Array { return &Array{hint: n} }

// Len returns the number of entries.
func (a *Array) Len() int {
	if a.m != nil {
		return len(a.m.entries)
	}
	return len(a.vals)
}

// Packed returns the values of a packed array — keyed 0..Len()-1 in
// order — and true, or nil and false for a mixed array. The slice is
// the array's own storage: read it, do not keep or modify it.
func (a *Array) Packed() ([]Value, bool) {
	if a.m != nil {
		return nil, false
	}
	return a.vals, true
}

// Append adds v under the next auto-increment integer key.
func (a *Array) Append(v Value) {
	if a.m != nil {
		a.m.set(arrayKey{i: a.m.nextInt}, v)
		return
	}
	if a.vals == nil && a.hint > 0 {
		a.vals = make([]Value, 0, a.hint)
	}
	a.vals = append(a.vals, v)
}

// SetInt sets the entry with integer key k.
func (a *Array) SetInt(k int64, v Value) {
	if a.m == nil {
		n := int64(len(a.vals))
		switch {
		case 0 <= k && k < n:
			a.vals[k] = v
			return
		case k == n:
			a.Append(v)
			return
		}
		a.toMixed()
	}
	a.m.set(arrayKey{i: k}, v)
}

// SetStr sets the entry with string key k. Numeric string keys are
// canonicalized to integer keys, as PHP does.
func (a *Array) SetStr(k string, v Value) {
	if ik, ok := canonicalIntKey(k); ok {
		a.SetInt(ik, v)
		return
	}
	if a.m == nil {
		a.toMixed()
	}
	a.m.set(arrayKey{s: k, b: true}, v)
}

// Set sets the entry keyed by an arbitrary Value, coercing the key the
// way PHP array subscripting does (float→int, bool→int, null→"").
func (a *Array) Set(k, v Value) {
	switch k.Kind() {
	case KindStr:
		a.SetStr(k.AsStr(), v)
	default:
		a.SetInt(k.ToInt(), v)
	}
}

// GetInt fetches the entry with integer key k.
func (a *Array) GetInt(k int64) (Value, bool) {
	if a.m == nil {
		if 0 <= k && k < int64(len(a.vals)) {
			return a.vals[k], true
		}
		return Null, false
	}
	return a.m.get(arrayKey{i: k})
}

// GetStr fetches the entry with string key k.
func (a *Array) GetStr(k string) (Value, bool) {
	if ik, ok := canonicalIntKey(k); ok {
		return a.GetInt(ik)
	}
	if a.m == nil {
		return Null, false
	}
	return a.m.get(arrayKey{s: k, b: true})
}

// Get fetches the entry keyed by an arbitrary Value.
func (a *Array) Get(k Value) (Value, bool) {
	switch k.Kind() {
	case KindStr:
		return a.GetStr(k.AsStr())
	default:
		return a.GetInt(k.ToInt())
	}
}

// At returns the i-th entry in insertion order.
func (a *Array) At(i int) Entry {
	if a.m != nil {
		return a.m.entries[i]
	}
	return Entry{IntKey: int64(i), Val: a.vals[i]}
}

// Keys returns the keys in insertion order as Values.
func (a *Array) Keys() []Value {
	ks := make([]Value, a.Len())
	for i := range ks {
		ks[i] = a.At(i).Key()
	}
	return ks
}

// Values returns the values in insertion order.
func (a *Array) Values() []Value {
	vs := make([]Value, a.Len())
	for i := range vs {
		vs[i] = a.At(i).Val
	}
	return vs
}

// Clone returns a shallow copy of the array.
func (a *Array) Clone() *Array {
	if a.m == nil {
		return &Array{vals: slices.Clone(a.vals)}
	}
	return &Array{m: &mixed{
		entries: slices.Clone(a.m.entries),
		index:   maps.Clone(a.m.index),
		nextInt: a.m.nextInt,
	}}
}

// String renders the array for debugging: [k => v, ...].
func (a *Array) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < a.Len(); i++ {
		e := a.At(i)
		if i > 0 {
			b.WriteString(", ")
		}
		if e.IsStr {
			b.WriteString(`"` + e.StrKey + `"`)
		} else {
			b.WriteString(Int(e.IntKey).String())
		}
		b.WriteString(" => ")
		b.WriteString(e.Val.String())
	}
	b.WriteByte(']')
	return b.String()
}

// toMixed moves a packed array to the mixed layout, with room for one
// entry more than it holds: an insert is what usually triggers it.
func (a *Array) toMixed() {
	n := len(a.vals)
	size := max(n+1, a.hint)
	m := &mixed{
		entries: make([]Entry, n, size),
		index:   make(map[arrayKey]int, size),
		nextInt: int64(n),
	}
	for i, v := range a.vals {
		m.entries[i] = Entry{IntKey: int64(i), Val: v}
		m.index[arrayKey{i: int64(i)}] = i
	}
	a.vals, a.m = nil, m
}

func (m *mixed) get(key arrayKey) (Value, bool) {
	pos, ok := m.index[key]
	if !ok {
		return Null, false
	}
	return m.entries[pos].Val, true
}

func (m *mixed) set(key arrayKey, v Value) {
	if pos, ok := m.index[key]; ok {
		m.entries[pos].Val = v
		return
	}
	m.index[key] = len(m.entries)
	if key.b {
		m.entries = append(m.entries, Entry{StrKey: key.s, IsStr: true, Val: v})
		return
	}
	m.entries = append(m.entries, Entry{IntKey: key.i, Val: v})
	if key.i >= m.nextInt {
		m.nextInt = key.i + 1
	}
}

// canonicalIntKey reports whether s is a canonical integer key ("0",
// "-7", "42" but not "007", "-0" or "1.5") in int64 range and returns
// its value.
func canonicalIntKey(s string) (int64, bool) {
	digits := strings.TrimPrefix(s, "-")
	neg := len(digits) < len(s)
	if digits == "" || (digits[0] == '0' && (len(digits) > 1 || neg)) {
		return 0, false // empty, a leading zero, or "-0": not canonical
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++ // -9223372036854775808 is in range
	}
	var n uint64
	for i := 0; i < len(digits); i++ {
		d := digits[i]
		if d < '0' || d > '9' {
			return 0, false
		}
		if n > (limit-uint64(d-'0'))/10 {
			return 0, false // overflow
		}
		n = n*10 + uint64(d-'0')
	}
	if neg {
		return int64(-n), true
	}
	return int64(n), true
}
