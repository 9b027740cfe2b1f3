package object

import (
	"fmt"
	"testing"

	"jumpstart/internal/bytecode"
	"jumpstart/internal/value"
)

// classWithProps returns the runtime class of a one-class program
// whose class declares n properties p0, p1, … with no defaults.
func classWithProps(t *testing.T, n int) *RuntimeClass {
	t.Helper()
	u := &bytecode.Unit{Name: "t"}
	c := &bytecode.Class{Name: "C", Parent: bytecode.NoClass,
		Methods: map[string]*bytecode.Function{}, Unit: u}
	for i := 0; i < n; i++ {
		c.Props = append(c.Props, bytecode.PropDef{Name: fmt.Sprintf("p%d", i), DefaultLit: -1})
	}
	u.Classes = []*bytecode.Class{c}
	p, err := bytecode.NewProgram(u)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRegistry(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	rc, _ := r.ClassByName("C")
	return rc
}

// roundedSize is an object's simulated footprint: header plus slots,
// rounded up to a cache line.
func roundedSize(props int) uint64 {
	return (headerSize + slotSize*uint64(props) + heapAlign - 1) / heapAlign * heapAlign
}

// Objects carved from one slab never see each other's writes, whether
// through SetSlot, SetProp or an append on the slots slice.
func TestSlabNeighboursIsolated(t *testing.T) {
	r, err := NewRegistry(makeProgram(t), Layout{"Derived": {"e", "c", "d"}})
	if err != nil {
		t.Fatal(err)
	}
	rc, _ := r.ClassByName("Derived")
	h := NewHeap()
	// Enough objects to span several header and slot slabs.
	objs := make([]*Object, 3*objSlabLen)
	for i := range objs {
		objs[i] = h.NewObject(rc)
		if v, _, _ := objs[i].GetProp("d"); v.AsInt() != 7 {
			t.Fatalf("object %d: default d = %v", i, v)
		}
	}
	for i, o := range objs {
		if cap(o.slots) != len(o.slots) {
			t.Fatalf("object %d: slots not capacity-clipped (len %d, cap %d)", i, len(o.slots), cap(o.slots))
		}
		for s := 0; s < rc.NumProps(); s++ {
			o.SetSlot(s, value.Int(int64(100*i+s)))
		}
		_ = append(o.slots, value.Int(-1))
	}
	for i, o := range objs {
		if _, ok := o.SetProp("c", value.Int(int64(-i))); !ok {
			t.Fatal("SetProp c failed")
		}
	}
	cSlot := rc.PhysSlot(2)
	for i, o := range objs {
		for s := 0; s < rc.NumProps(); s++ {
			want := int64(100*i + s)
			if s == cSlot {
				want = int64(-i)
			}
			if got := o.GetSlot(s).AsInt(); got != want {
				t.Fatalf("object %d slot %d = %d, want %d", i, s, got, want)
			}
		}
	}
}

// A class wider than a whole slot slab gets its own buffer and leaves
// the slab to its narrow neighbours.
func TestWideClassOwnBuffer(t *testing.T) {
	wide := classWithProps(t, slotSlabLen+45)
	narrow := classWithProps(t, 3)
	h := NewHeap()
	before := h.NewObject(narrow)
	w := h.NewObject(wide)
	after := h.NewObject(narrow)
	if len(w.slots) != wide.NumProps() {
		t.Fatalf("wide object has %d slots, want %d", len(w.slots), wide.NumProps())
	}
	if got := len(h.slotSlab); got != slotSlabLen-2*narrow.NumProps() {
		t.Fatalf("slot slab has %d slots left, want %d", got, slotSlabLen-2*narrow.NumProps())
	}
	for s := range w.slots {
		w.SetSlot(s, value.Int(int64(s)))
	}
	for _, o := range []*Object{before, after} {
		for s := 0; s < narrow.NumProps(); s++ {
			if !o.GetSlot(s).IsNull() {
				t.Fatalf("narrow neighbour slot %d = %v after writes to the wide object", s, o.GetSlot(s))
			}
		}
	}
	last := wide.NumProps() - 1
	if v, _, ok := w.GetProp(fmt.Sprintf("p%d", last)); !ok || v.AsInt() != int64(last) {
		t.Fatalf("wide object p%d = %v, %v", last, v, ok)
	}
}

// A class with no properties takes a header from the header slab and
// nothing else: a batch of objSlabLen such objects costs exactly the
// one header slab it crosses into.
func TestZeroPropClassAllocatesNothing(t *testing.T) {
	rc := classWithProps(t, 0)
	h := NewHeap()
	o := h.NewObject(rc)
	if len(o.slots) != 0 || h.slotSlab != nil {
		t.Fatalf("0-prop object took slots: %v (slab %d)", o.slots, len(h.slotSlab))
	}
	if a := o.ToArray(); a.Len() != 0 {
		t.Fatalf("0-prop ToArray has %d entries", a.Len())
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < objSlabLen; i++ {
			h.NewObject(rc)
		}
	})
	if allocs != 1 {
		t.Fatalf("%d 0-prop objects made %.0f allocations, want 1 (the header slab)", objSlabLen, allocs)
	}
}

// Ids and simulated addresses follow the bump formula — ids count up
// from 1, each object takes its header plus slots rounded up to a cache
// line, and AdvanceBy skips exactly what it is told — whatever the
// slabs do.
func TestHeapAddressFormula(t *testing.T) {
	h := NewHeap()
	wantAddr, wantID := uint64(heapBase), uint64(0)
	check := func(props int) {
		t.Helper()
		o := h.NewObject(classWithProps(t, props))
		wantID++
		if o.ObjectID() != wantID || o.Addr() != wantAddr {
			t.Fatalf("%d-prop object: id %d addr %#x, want id %d addr %#x",
				props, o.ObjectID(), o.Addr(), wantID, wantAddr)
		}
		for s := 0; s < props; s++ {
			if o.SlotAddr(s) != wantAddr+headerSize+uint64(s)*slotSize {
				t.Fatalf("%d-prop object: slot %d at %#x", props, s, o.SlotAddr(s))
			}
		}
		wantAddr += roundedSize(props)
	}
	for _, props := range []int{0, 2, 5, slotSlabLen + 1, 1, 3, 0, slotSlabLen, 60} {
		check(props)
	}
	h.AdvanceBy(1000, 3)
	wantAddr += 1000
	wantID += 3
	for i := 0; i < 2*objSlabLen; i++ {
		check(i % 7)
	}
	if h.Next() != wantAddr || h.Allocations() != wantID {
		t.Fatalf("Next %#x Allocations %d, want %#x %d", h.Next(), h.Allocations(), wantAddr, wantID)
	}
}

// TestNewObjectAllocFree pins NewObject at ≤ 0.05 Go allocations per
// object, amortised over 1,000 calls: only a slab refill allocates.
// Allocating the header and the slots separately made 2.
func TestNewObjectAllocFree(t *testing.T) {
	r, err := NewRegistry(makeProgram(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	rc, _ := r.ClassByName("Derived")
	h := NewHeap()
	const calls = 1000
	per := testing.AllocsPerRun(5, func() {
		for i := 0; i < calls; i++ {
			h.NewObject(rc)
		}
	}) / calls
	t.Logf("NewObject (%d props): %.3f allocations per object", rc.NumProps(), per)
	if per > 0.05 {
		t.Fatalf("NewObject allocations regressed: %.3f > 0.05 per object", per)
	}
}
