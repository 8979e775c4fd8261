package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocBasics(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(100)
	if b.Len() != 100 {
		t.Errorf("Len = %d, want 100", b.Len())
	}
	if b.Refcount() != 1 {
		t.Errorf("fresh refcount = %d, want 1", b.Refcount())
	}
	if b.Cap() < 128 {
		t.Errorf("Cap = %d, want >= 128 (power-of-two slot)", b.Cap())
	}
	if len(b.Bytes()) != 100 {
		t.Errorf("Bytes len = %d", len(b.Bytes()))
	}
}

func TestAllocZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Alloc(0) did not panic")
		}
	}()
	NewAllocator().Alloc(0)
}

func TestRoundClass(t *testing.T) {
	cases := map[int]int{1: 64, 64: 64, 65: 128, 512: 512, 513: 1024, 9000: 16384}
	for in, want := range cases {
		if got := roundClass(in); got != want {
			t.Errorf("roundClass(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestDistinctAllocationsDoNotOverlap(t *testing.T) {
	a := NewAllocator()
	b1 := a.Alloc(64)
	b2 := a.Alloc(64)
	b1.Bytes()[0] = 0xAA
	b2.Bytes()[0] = 0xBB
	if b1.Bytes()[0] != 0xAA {
		t.Error("allocations share memory")
	}
	if b1.SimAddr() == b2.SimAddr() {
		t.Error("allocations share a simulated address")
	}
}

func TestFreeAndReuse(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(256)
	sim := b.SimAddr()
	b.DecRef()
	if got := a.Stats(); got.Frees != 1 || got.SlotsInUse != 0 {
		t.Errorf("stats after free = %+v", got)
	}
	// The freed slot is reused (LIFO free list).
	b2 := a.Alloc(256)
	if b2.SimAddr() != sim {
		t.Errorf("freed slot not reused: sim %x vs %x", b2.SimAddr(), sim)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(64)
	b.DecRef()
	defer func() {
		if recover() == nil {
			t.Error("double DecRef did not panic")
		}
	}()
	b.DecRef()
}

func TestIncRefOnFreedPanics(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(64)
	b.DecRef()
	defer func() {
		if recover() == nil {
			t.Error("IncRef on freed buffer did not panic")
		}
	}()
	b.incRef()
}

func TestRefcountKeepsSlotAlive(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(64)
	dma := b.Clone() // e.g. the NIC holds its own view during DMA
	b.DecRef()       // application frees
	if a.Stats().SlotsInUse != 1 {
		t.Error("slot freed while a reference was outstanding")
	}
	dma.DecRef() // NIC completion
	if a.Stats().SlotsInUse != 0 {
		t.Error("slot not freed after last reference dropped")
	}
}

// A view is one reference: once its own DecRef has run, every use of it
// panics, even while a clone keeps the slot alive.
func TestViewDeadAfterItsDecRef(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(64)
	keep := b.Clone()
	b.DecRef()
	if keep.Refcount() != 1 || a.Stats().SlotsInUse != 1 {
		t.Fatalf("clone left refcount %d, %d slots in use; want 1 and 1", keep.Refcount(), a.Stats().SlotsInUse)
	}
	for _, use := range []struct {
		name string
		fn   func()
	}{
		{"Bytes", func() { b.Bytes() }},
		{"Refcount", func() { b.Refcount() }},
		{"Clone", func() { b.Clone() }},
		{"DecRef", b.DecRef},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a dropped view did not panic", use.name)
				}
			}()
			use.fn()
		}()
	}
	if keep.Refcount() != 1 {
		t.Fatalf("a use of the dropped view moved the shared refcount to %d", keep.Refcount())
	}
	keep.DecRef()
	if a.Stats().SlotsInUse != 0 {
		t.Error("slot not freed after the clone's DecRef")
	}
}

func TestSubViewSharesRefcount(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(512)
	for i := range b.Bytes() {
		b.Bytes()[i] = byte(i)
	}
	v := b.SubView(100, 50)
	if b.Refcount() != 2 {
		t.Errorf("refcount after SubView = %d, want 2", b.Refcount())
	}
	if v.Len() != 50 || v.Bytes()[0] != byte(100) {
		t.Errorf("SubView contents wrong: len=%d first=%d", v.Len(), v.Bytes()[0])
	}
	if v.SimAddr() != b.SimAddr()+100 {
		t.Error("SubView sim address not offset correctly")
	}
	b.DecRef()
	if a.Stats().SlotsInUse != 1 {
		t.Error("slot freed while SubView alive")
	}
	v.DecRef()
	if a.Stats().SlotsInUse != 0 {
		t.Error("slot not freed after all views dropped")
	}
}

func TestSubViewBoundsPanics(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(64)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range SubView did not panic")
		}
	}()
	b.SubView(60, 10)
}

func TestResize(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(100) // slot is 128
	b.Resize(128)
	if b.Len() != 128 {
		t.Errorf("Len after grow = %d", b.Len())
	}
	b.Resize(10)
	if b.Len() != 10 {
		t.Errorf("Len after shrink = %d", b.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("Resize beyond capacity did not panic")
		}
	}()
	b.Resize(129)
}

func TestRecoverPtrExact(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(1024)
	r, ok := a.RecoverPtr(b.Bytes())
	if !ok {
		t.Fatal("RecoverPtr failed on pinned bytes")
	}
	if b.Refcount() != 2 {
		t.Errorf("refcount = %d, want 2 (RecoverPtr takes a reference)", b.Refcount())
	}
	if r.SimAddr() != b.SimAddr() || r.Len() != b.Len() {
		t.Error("recovered view does not match original")
	}
	r.DecRef()
	b.DecRef()
}

func TestRecoverPtrInterior(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(2048)
	inner := b.Bytes()[300:700]
	r, ok := a.RecoverPtr(inner)
	if !ok {
		t.Fatal("RecoverPtr failed on interior slice")
	}
	if r.SimAddr() != b.SimAddr()+300 || r.Len() != 400 {
		t.Errorf("interior recovery wrong: sim+%d len=%d", r.SimAddr()-b.SimAddr(), r.Len())
	}
	r.DecRef()
	b.DecRef()
}

func TestRecoverPtrUnpinned(t *testing.T) {
	a := NewAllocator()
	a.Alloc(64) // make sure slabs exist
	heap := make([]byte, 100)
	if _, ok := a.RecoverPtr(heap); ok {
		t.Error("RecoverPtr succeeded on ordinary heap memory")
	}
	if _, ok := a.RecoverPtr(nil); ok {
		t.Error("RecoverPtr succeeded on nil")
	}
	if a.Stats().RecoverMisses == 0 {
		t.Error("misses not counted")
	}
}

func TestRecoverPtrStaleSlot(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(64)
	raw := b.Bytes()
	b.DecRef()
	if _, ok := a.RecoverPtr(raw); ok {
		t.Error("RecoverPtr succeeded on a freed slot (stale pointer)")
	}
}

func TestRecoverPtrCrossSlot(t *testing.T) {
	a := NewAllocator()
	b1 := a.Alloc(64)
	_ = a.Alloc(64)
	// Construct a slice spanning past b1's slot inside the slab.
	slabBytes := b1.slab.data
	span := slabBytes[int(b1.slot)*64+32 : int(b1.slot)*64+96]
	if _, ok := a.RecoverPtr(span); ok {
		t.Error("RecoverPtr succeeded on a slice spanning two slots")
	}
}

func TestIsPinned(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(128)
	if !a.IsPinned(b.Bytes()) {
		t.Error("IsPinned false for pinned bytes")
	}
	if a.IsPinned(make([]byte, 10)) {
		t.Error("IsPinned true for heap bytes")
	}
	if b.Refcount() != 1 {
		t.Error("IsPinned must not touch refcounts")
	}
}

func TestLargeAllocation(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(3 << 20) // larger than one slab target
	if b.Len() != 3<<20 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Bytes()[3<<20-1] = 1
	r, ok := a.RecoverPtr(b.Bytes()[1<<20 : 2<<20])
	if !ok {
		t.Error("RecoverPtr failed inside large allocation")
	} else {
		r.DecRef()
	}
	b.DecRef()
}

func TestSimAddressRangesDisjoint(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(4096)
	if b.SimAddr() < SimDataBase || b.SimAddr() >= SimMetaBase {
		t.Errorf("data sim addr %x outside data range", b.SimAddr())
	}
	if b.RefcountSimAddr() < SimMetaBase {
		t.Errorf("refcount sim addr %x not in metadata range", b.RefcountSimAddr())
	}
}

func TestRefcountAddrsDistinctLines(t *testing.T) {
	a := NewAllocator()
	b1 := a.Alloc(64)
	b2 := a.Alloc(64)
	if b1.RefcountSimAddr()/64 == b2.RefcountSimAddr()/64 {
		t.Error("two refcounts share a simulated cache line")
	}
}

// Property: after any sequence of alloc/free pairs, live allocations never
// overlap in simulated address space and stats balance.
func TestAllocatorProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := NewAllocator()
		type span struct{ lo, hi uint64 }
		var live []span
		var bufs []*Buf
		for _, s := range sizes {
			size := int(s%8192) + 1
			b := a.Alloc(size)
			lo, hi := b.SimAddr(), b.SimAddr()+uint64(b.Len())
			for _, sp := range live {
				if lo < sp.hi && sp.lo < hi {
					return false // overlap
				}
			}
			live = append(live, span{lo, hi})
			bufs = append(bufs, b)
		}
		for _, b := range bufs {
			b.DecRef()
		}
		st := a.Stats()
		return st.SlotsInUse == 0 && st.Allocs == uint64(len(sizes)) && st.Frees == uint64(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: RecoverPtr on any sub-slice of a live allocation succeeds and
// recovers the right range.
func TestRecoverPtrProperty(t *testing.T) {
	a := NewAllocator()
	b := a.Alloc(8192)
	f := func(off, n uint16) bool {
		o := int(off) % 8192
		ln := int(n)%(8192-o) + 1
		r, ok := a.RecoverPtr(b.Bytes()[o : o+ln])
		if !ok {
			return false
		}
		good := r.SimAddr() == b.SimAddr()+uint64(o) && r.Len() == ln
		r.DecRef()
		return good
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Stale-pointer semantics under slot reuse: once a slot is freed and
// reallocated, RecoverPtr on an old raw pointer recovers the *new*
// allocation. This matches the paper's model — use-after-free protection
// comes from holding references, not from detecting stale raw pointers.
func TestRecoverPtrAfterSlotReuse(t *testing.T) {
	a := NewAllocator()
	b1 := a.Alloc(128)
	raw := b1.Bytes()
	b1.DecRef()
	b2 := a.Alloc(128) // LIFO free list: same slot
	copy(b2.Bytes(), "new-occupant")
	r, ok := a.RecoverPtr(raw)
	if !ok {
		t.Fatal("recover failed on reused slot")
	}
	if r.SimAddr() != b2.SimAddr() {
		t.Error("recovered view does not alias the new occupant")
	}
	r.DecRef()
	b2.DecRef()
}

func TestManySlabsSortedLookup(t *testing.T) {
	a := NewAllocator()
	// Force many slabs across several size classes, then verify RecoverPtr
	// still resolves correctly for each.
	var bufs []*Buf
	for i := 0; i < 200; i++ {
		size := 64 << (i % 5) // 64..1024
		bufs = append(bufs, a.Alloc(size*17%MaxClass+1))
	}
	for i, b := range bufs {
		r, ok := a.RecoverPtr(b.Bytes())
		if !ok || r.SimAddr() != b.SimAddr() {
			t.Fatalf("buffer %d not recovered correctly", i)
		}
		r.DecRef()
	}
	for _, b := range bufs {
		b.DecRef()
	}
	if a.Stats().SlotsInUse != 0 {
		t.Error("leak after mass free")
	}
}

func TestSimAddrOfUnpinnedStable(t *testing.T) {
	a := NewAllocator()
	heap := make([]byte, 256)
	s1 := a.SimAddrOf(heap)
	s2 := a.SimAddrOf(heap)
	if s1 != s2 {
		t.Error("unpinned sim address not stable")
	}
	if s1 < SimUnpinnedBase || s1 >= SimMetaBase {
		t.Errorf("unpinned sim address %x outside its range", s1)
	}
	if a.SimAddrOf(nil) != SimUnpinnedBase {
		t.Error("nil slice should map to the range base")
	}
	pinned := a.Alloc(64)
	if a.SimAddrOf(pinned.Bytes()) != pinned.SimAddr() {
		t.Error("pinned SimAddrOf disagrees with Buf.SimAddr")
	}
}
