package object

import "jumpstart/internal/value"

// Heap is a simulated bump allocator. It assigns stable 64-bit
// addresses to objects so the micro-architecture simulator can model
// D-cache/D-TLB behaviour of property accesses under different slot
// layouts. Its Go memory is two slabs it carves objects from: one of
// Object headers and one of slots, so creating an object costs a Go
// allocation only when a slab runs out. A carved object keeps its whole
// slab reachable; the simulated addresses do not depend on the slabs.
type Heap struct {
	next    uint64
	nextID  uint64
	objects uint64 // allocation count, for stats

	objSlab  []Object      // unused tail of the current header slab
	slotSlab []value.Value // unused tail of the current slot slab
}

// Slab sizes. Go (1.22 and later) prefixes each pointerful allocation
// over 512 bytes with an 8-byte malloc header, so a slab's bytes plus 8
// must fit a size class exactly, or the slab lands in the next class
// up and wastes most of it: 63 headers of 48 bytes are 3,024 bytes
// (+8 = the 3,072 class), 255 slots of 32 bytes are 8,160 (+8 = the
// 8,192 class). 64 and 256 would each spill into a larger class.
const (
	objSlabLen  = 63
	slotSlabLen = 255
)

// Simulated address-space constants. Object headers are 16 bytes and
// each slot is 16 bytes (a boxed value), matching HHVM's TypedValue.
// Allocations are rounded up to cache-line granularity, as real
// size-class allocators (jemalloc under HHVM) do; without this, dense
// bump allocation makes one object's cold tail share a line with the
// next object's header, which would mask the data-layout effects the
// Section V-C optimization exists to create.
const (
	heapBase   = 0x7f00_0000_0000
	headerSize = 16
	slotSize   = 16
	heapAlign  = 64
)

// NewHeap returns an empty simulated heap.
func NewHeap() *Heap {
	return &Heap{next: heapBase}
}

// Object is a MiniHack object instance. Slots are stored in *physical*
// order; all name- and declared-index-based access translates through
// the RuntimeClass tables.
type Object struct {
	class *RuntimeClass
	slots []value.Value
	id    uint64
	addr  uint64
}

var _ value.Obj = (*Object)(nil)

// NewObject allocates an instance of rc with defaulted properties.
func (h *Heap) NewObject(rc *RuntimeClass) *Object {
	h.nextID++
	h.objects++
	size := uint64(headerSize + slotSize*len(rc.props))
	size = (size + heapAlign - 1) &^ (heapAlign - 1)
	if len(h.objSlab) == 0 {
		h.objSlab = make([]Object, objSlabLen)
	}
	o := &h.objSlab[0]
	h.objSlab = h.objSlab[1:]
	*o = Object{class: rc, slots: h.carveSlots(len(rc.props)), id: h.nextID, addr: h.next}
	h.next += size
	for _, p := range rc.props {
		o.slots[p.Slot] = p.Default
	}
	return o
}

// carveSlots returns n zeroed slots. They come from the slot slab,
// capacity-clipped so no append can reach a neighbour's slots; a class
// wider than a whole slab gets its own buffer.
func (h *Heap) carveSlots(n int) []value.Value {
	if n > slotSlabLen {
		return make([]value.Value, n)
	}
	if len(h.slotSlab) < n {
		h.slotSlab = make([]value.Value, slotSlabLen)
	}
	s := h.slotSlab[:n:n]
	h.slotSlab = h.slotSlab[n:]
	return s
}

// Allocations returns the number of objects allocated.
func (h *Heap) Allocations() uint64 { return h.objects }

// Next returns the address the next allocation will receive. Replay
// captures record object addresses relative to this watermark so a
// recorded data stream stays valid when replayed later in the heap.
func (h *Heap) Next() uint64 { return h.next }

// AdvanceBy skips bytes of address space and objects allocation ids,
// exactly as if the recorded allocations had been performed. This
// keeps the addresses and ids of every allocation *after* a replayed
// call identical to the ones real execution would have produced.
func (h *Heap) AdvanceBy(bytes, objects uint64) {
	h.next += bytes
	h.nextID += objects
	h.objects += objects
}

// ClassName implements value.Obj.
func (o *Object) ClassName() string { return o.class.Name() }

// ObjectID implements value.Obj.
func (o *Object) ObjectID() uint64 { return o.id }

// Class returns the object's runtime class.
func (o *Object) Class() *RuntimeClass { return o.class }

// Addr returns the object's simulated base address.
func (o *Object) Addr() uint64 { return o.addr }

// SlotAddr returns the simulated address of a physical slot. The
// micro-architecture simulator feeds these into the D-cache model; hot
// properties packed into low slots share cache lines, which is where
// the Section V-C speedup comes from.
func (o *Object) SlotAddr(physSlot int) uint64 {
	return o.addr + headerSize + uint64(physSlot)*slotSize
}

// GetProp reads property name, returning its value and physical slot.
func (o *Object) GetProp(name string) (v value.Value, physSlot int, ok bool) {
	declIdx, ok := o.class.byName[name]
	if !ok {
		return value.Null, -1, false
	}
	slot := o.class.physOf[declIdx]
	return o.slots[slot], slot, true
}

// SetProp writes property name, returning the physical slot.
func (o *Object) SetProp(name string, v value.Value) (physSlot int, ok bool) {
	declIdx, ok := o.class.byName[name]
	if !ok {
		return -1, false
	}
	slot := o.class.physOf[declIdx]
	o.slots[slot] = v
	return slot, true
}

// GetSlot reads a physical slot directly (used by JIT-specialized
// property access that has already resolved the slot).
func (o *Object) GetSlot(physSlot int) value.Value { return o.slots[physSlot] }

// SetSlot writes a physical slot directly.
func (o *Object) SetSlot(physSlot int, v value.Value) { o.slots[physSlot] = v }

// ToArray returns the object's properties as a MiniHack array in
// *declared* order — the observable-order operation that forces the
// translation table to exist.
func (o *Object) ToArray() *value.Array {
	a := value.NewArray(len(o.slots))
	for _, p := range o.class.props {
		a.SetStr(p.Name, o.slots[p.Slot])
	}
	return a
}
