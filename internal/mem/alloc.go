// Package mem implements the DMA-safe (pinned) memory layer of Cornflakes:
// a power-of-two slab allocator, reference-counted buffer views (RcBuf in
// the paper, Buf here), and pointer recovery that maps an arbitrary []byte
// back to its containing pinned allocation (recover_ptr, Listing 2).
//
// Two address spaces coexist:
//
//   - Real addresses: every pinned slab is an ordinary Go []byte, so
//     serializers move real bytes and RecoverPtr performs a genuine address
//     range lookup on the slice's data pointer. Slabs are retained by the
//     allocator for its lifetime, and Go's GC is non-moving, so the lookup
//     is sound.
//   - Simulated physical addresses: each slab, each refcount word, and each
//     arena chunk is assigned a stable simulated address used by
//     internal/cachesim to model data and metadata cache misses. Performance
//     modelling never depends on real addresses.
//
// In the paper the NIC can only DMA pinned pages; here "pinned" means
// "allocated from this allocator", and the simulated NIC refuses (and the
// serialization layer transparently copies) anything else — the memory
// transparency property of §2.3.
package mem

import (
	"errors"
	"fmt"
	"sort"
	"unsafe"
)

// ErrNoMem is returned by TryAlloc when the allocator's configured capacity
// cap is exhausted. Pinned memory is a finite resource on a real NIC host
// (registered pages the IOMMU knows about); a caller seeing ErrNoMem must
// degrade — copy instead of pin, shed the request, or drop the frame — and
// must not leak any references it already holds.
var ErrNoMem = errors.New("mem: pinned memory cap exhausted")

const (
	// MinClass is the smallest slot size: one cache line.
	MinClass = 64
	// MaxClass is the largest slotted size; larger requests get a dedicated
	// slab of their exact (rounded) size.
	MaxClass = 1 << 24 // 16 MiB
	// slabTarget is the target byte size of one slab; the slot count per
	// slab is derived from it.
	slabTarget = 1 << 20 // 1 MiB
	// refcountBytes is the simulated footprint of one refcount word. Each
	// refcount lives on its own simulated cache line to model the metadata
	// miss the paper attributes to zero-copy bookkeeping (§2.3): refcounts
	// for different buffers do not share lines.
	refcountBytes = 64
)

// slab is one contiguous pinned region divided into equal slots.
type slab struct {
	data     []byte
	realBase uintptr
	simBase  uint64
	// simRefBase is the simulated address of slot 0's refcount word.
	simRefBase uint64
	slotSize   int
	slots      int
	refcnts    []int32
	free       []int32 // free slot indices (LIFO)
	class      *sizeClass
	alloc      *Allocator // owning allocator (stats + Buf free list)
}

type sizeClass struct {
	size  int
	slabs []*slab
	// partial lists slabs that have at least one free slot.
	partial []*slab
}

// Stats summarises allocator state.
type Stats struct {
	BytesPinned    int64 // total bytes of pinned slabs
	SlotsInUse     int64
	PeakSlotsInUse int64 // high-water mark of SlotsInUse over the allocator's lifetime
	Slabs          int64 // slab count across all size classes
	Allocs, Frees  uint64
	AllocFailures  uint64 // TryAlloc calls refused by the capacity cap
	RecoverHits    uint64
	RecoverMisses  uint64
	DedicatedSlabs int64
}

// Allocator is the pinned-memory allocator. It is not safe for concurrent
// use: the simulation is single-threaded, and the paper's stack is likewise
// a single-core datapath (§6.6 shards allocators per core).
type Allocator struct {
	classes map[int]*sizeClass
	// byReal is kept sorted by realBase for RecoverPtr binary search.
	byReal []*slab
	// simCursor hands out simulated data addresses; simRefCursor hands out
	// simulated metadata addresses from a disjoint range so data and
	// metadata never share cache lines.
	simCursor    uint64
	simRefCursor uint64
	stats        Stats
	// capSlots bounds SlotsInUse when positive; TryAlloc fails with
	// ErrNoMem at the bound instead of growing a new slab. Zero means
	// unbounded (the pre-overload-hardening behaviour).
	capSlots int64
	// bufFree recycles Buf view structs: a view whose final reference is
	// dropped (refcount reaches zero) parks here and the next
	// TryAlloc/RecoverPtr/SubView reuses it instead of allocating. Views
	// whose DecRef was not the last reference are NOT recycled — another
	// holder may still alias the struct. The allocator is single-goroutine
	// by contract, so a plain slice suffices. Parked views have slab nil,
	// so a (contract-violating) use after the final DecRef fails fast.
	bufFree []*Buf
}

// SimDataBase and SimMetaBase separate the simulated address ranges for
// buffer data and refcount metadata. SimUnpinnedBase is the range used to
// derive stable pseudo-addresses for ordinary (unpinned) Go memory so the
// cache model can still see accesses to it; SimScratchBase is the window
// the per-meter bump allocator (costmodel.Meter.AllocSimAddr) assigns
// fresh heap chunks from.
const (
	SimDataBase     = 0x0000_1000_0000_0000
	SimUnpinnedBase = 0x0000_4000_0000_0000
	SimScratchBase  = 0x0000_6000_0000_0000
	SimMetaBase     = 0x0000_F000_0000_0000
)

// UnpinnedSimAddr returns a deterministic simulated address for unpinned
// memory, derived from an FNV-1a hash of its contents folded into a 1 TiB
// window. Hashing contents rather than the real heap address keeps whole
// runs reproducible across processes: real addresses vary with heap layout,
// and feeding them to the cache model made cycle counts jitter between
// otherwise identical runs. Buffers with identical bytes alias — which is
// harmless here (payloads embed unique request ids) and, for true repeats
// like retransmitted frames, models the buffer reuse a real allocator does.
// Buffers that are mutated in place cannot hash their contents; they keep
// an address assigned at allocation (costmodel.Meter.AllocSimAddr).
func UnpinnedSimAddr(p []byte) uint64 {
	if len(p) == 0 {
		return SimUnpinnedBase
	}
	h := uint64(14695981039346656037)
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return SimUnpinnedBase + (h & 0xFF_FFFF_FFFF) // fold into a 1 TiB window
}

// NewAllocator returns an empty pinned allocator.
func NewAllocator() *Allocator {
	return &Allocator{
		classes:      make(map[int]*sizeClass),
		simCursor:    SimDataBase,
		simRefCursor: SimMetaBase,
	}
}

// roundClass rounds size up to the allocator's slot size for it.
func roundClass(size int) int {
	if size <= MinClass {
		return MinClass
	}
	// next power of two
	c := MinClass
	for c < size {
		c <<= 1
	}
	return c
}

// SetCap bounds the number of pinned slots that may be in use at once;
// zero or negative removes the bound. The cap models the finite pinned
// pool of a kernel-bypass host: once it is set, hot paths must allocate
// with TryAlloc and handle ErrNoMem.
func (a *Allocator) SetCap(slots int64) {
	if slots < 0 {
		slots = 0
	}
	a.capSlots = slots
}

// Cap returns the configured slot cap (0 = unbounded).
func (a *Allocator) Cap() int64 { return a.capSlots }

// Occupancy returns the fraction of the cap currently in use, in [0, 1].
// An uncapped allocator reports 0: without a bound there is no pressure
// signal, and pressure-aware callers stay on the fast path.
func (a *Allocator) Occupancy() float64 {
	if a.capSlots <= 0 {
		return 0
	}
	occ := float64(a.stats.SlotsInUse) / float64(a.capSlots)
	if occ > 1 {
		occ = 1
	}
	return occ
}

// Alloc returns a pinned buffer of at least size bytes with refcount 1.
// The returned view's length is exactly size. Alloc panics on size <= 0
// (zero-length pinned buffers have no slot identity) and on cap
// exhaustion: infallible callers — preload, tests, uncapped clients — use
// it, while every hot path on a capped allocator must use TryAlloc.
func (a *Allocator) Alloc(size int) *Buf {
	b, err := a.TryAlloc(size)
	if err != nil {
		panic(fmt.Sprintf("mem: Alloc(%d) over cap %d: %v", size, a.capSlots, err))
	}
	return b
}

// TryAlloc is Alloc with the capacity cap enforced as a failure rather
// than a panic: it returns ErrNoMem when the cap is reached, counting the
// refusal in Stats.AllocFailures. Callers own exactly the reference of a
// successful return and nothing on failure.
func (a *Allocator) TryAlloc(size int) (*Buf, error) {
	if size <= 0 {
		panic(fmt.Sprintf("mem: Alloc(%d)", size))
	}
	if a.capSlots > 0 && a.stats.SlotsInUse >= a.capSlots {
		a.stats.AllocFailures++
		return nil, ErrNoMem
	}
	class := roundClass(size)
	sc := a.classes[class]
	if sc == nil {
		sc = &sizeClass{size: class}
		a.classes[class] = sc
	}
	var s *slab
	for len(sc.partial) > 0 {
		cand := sc.partial[len(sc.partial)-1]
		if len(cand.free) > 0 {
			s = cand
			break
		}
		sc.partial = sc.partial[:len(sc.partial)-1]
	}
	if s == nil {
		s = a.newSlab(sc)
		sc.partial = append(sc.partial, s)
	}
	slot := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.refcnts[slot] = 1
	a.stats.Allocs++
	a.stats.SlotsInUse++
	if a.stats.SlotsInUse > a.stats.PeakSlotsInUse {
		a.stats.PeakSlotsInUse = a.stats.SlotsInUse
	}
	return a.getBuf(s, slot, int(slot)*s.slotSize, size), nil
}

// getBuf takes a Buf view struct off the free list (or allocates one) and
// points it at the given slot view.
func (a *Allocator) getBuf(s *slab, slot int32, off, n int) *Buf {
	if k := len(a.bufFree); k > 0 {
		b := a.bufFree[k-1]
		a.bufFree[k-1] = nil
		a.bufFree = a.bufFree[:k-1]
		b.slab, b.slot, b.off, b.n = s, slot, off, n
		return b
	}
	return &Buf{slab: s, slot: slot, off: off, n: n}
}

func (a *Allocator) newSlab(sc *sizeClass) *slab {
	slots := slabTarget / sc.size
	if slots < 1 {
		slots = 1
		a.stats.DedicatedSlabs++
	}
	data := make([]byte, sc.size*slots)
	s := &slab{
		data:       data,
		realBase:   uintptr(unsafe.Pointer(unsafe.SliceData(data))),
		simBase:    a.simCursor,
		simRefBase: a.simRefCursor,
		slotSize:   sc.size,
		slots:      slots,
		refcnts:    make([]int32, slots),
		free:       make([]int32, 0, slots),
		class:      sc,
		alloc:      a,
	}
	a.simCursor += uint64(len(data))
	// Pad the sim range so distinct slabs never share a modelled line.
	a.simCursor = (a.simCursor + 4095) &^ 4095
	a.simRefCursor += uint64(slots * refcountBytes)
	a.simRefCursor = (a.simRefCursor + 4095) &^ 4095
	for i := slots - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
	sc.slabs = append(sc.slabs, s)
	a.stats.BytesPinned += int64(len(data))
	a.stats.Slabs++

	// Insert into the sorted-by-real-address table.
	i := sort.Search(len(a.byReal), func(i int) bool { return a.byReal[i].realBase >= s.realBase })
	a.byReal = append(a.byReal, nil)
	copy(a.byReal[i+1:], a.byReal[i:])
	a.byReal[i] = s
	return s
}

// findSlab locates the slab containing the real address p, if any.
func (a *Allocator) findSlab(p uintptr) *slab {
	i := sort.Search(len(a.byReal), func(i int) bool { return a.byReal[i].realBase > p })
	if i == 0 {
		return nil
	}
	s := a.byReal[i-1]
	if p < s.realBase+uintptr(len(s.data)) {
		return s
	}
	return nil
}

// RecoverPtr maps an arbitrary byte slice to the pinned allocation that
// contains it. On success it returns a view covering exactly p with the
// allocation's refcount incremented (the caller owns one reference). On
// failure — p is empty, not inside pinned memory, or the containing slot is
// free — it returns (nil, false) and the caller must copy.
//
// This is recover_ptr from Listing 2: "a map lookup and fast arithmetic".
func (a *Allocator) RecoverPtr(p []byte) (*Buf, bool) {
	if len(p) == 0 {
		a.stats.RecoverMisses++
		return nil, false
	}
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	s := a.findSlab(addr)
	if s == nil {
		a.stats.RecoverMisses++
		return nil, false
	}
	off := int(addr - s.realBase)
	if off+len(p) > len(s.data) {
		// Slice straddles the slab end; cannot be a single allocation.
		a.stats.RecoverMisses++
		return nil, false
	}
	slot := int32(off / s.slotSize)
	if off+len(p) > (int(slot)+1)*s.slotSize {
		// Straddles two slots: not a single allocation either.
		a.stats.RecoverMisses++
		return nil, false
	}
	if s.refcnts[slot] <= 0 {
		// Slot currently free: the pointer is stale.
		a.stats.RecoverMisses++
		return nil, false
	}
	s.refcnts[slot]++
	a.stats.RecoverHits++
	return a.getBuf(s, slot, off, len(p)), true
}

// IsPinned reports whether p lies entirely within one live pinned
// allocation, without touching any refcount.
func (a *Allocator) IsPinned(p []byte) bool {
	if len(p) == 0 {
		return false
	}
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	s := a.findSlab(addr)
	if s == nil {
		return false
	}
	off := int(addr - s.realBase)
	slot := off / s.slotSize
	return off+len(p) <= len(s.data) &&
		off+len(p) <= (slot+1)*s.slotSize &&
		s.refcnts[slot] > 0
}

// SimAddrOf returns the simulated address of p's first byte: the pinned
// mapping when p lies in a live pinned allocation, otherwise the unpinned
// pseudo-address. It is simulation infrastructure — unlike RecoverPtr it
// touches no refcount and models no cost.
func (a *Allocator) SimAddrOf(p []byte) uint64 {
	if len(p) == 0 {
		return SimUnpinnedBase
	}
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	if s := a.findSlab(addr); s != nil {
		return s.simBase + uint64(addr-s.realBase)
	}
	return UnpinnedSimAddr(p)
}

// Stats returns a copy of the allocator counters.
func (a *Allocator) Stats() Stats { return a.stats }

// SlabCounts returns the number of slabs per size class — the gauge an
// operator watches to see which class a leak or a cap-sizing problem lives
// in. The map is freshly built on every call.
func (a *Allocator) SlabCounts() map[int]int {
	out := make(map[int]int, len(a.classes))
	for size, sc := range a.classes {
		if len(sc.slabs) > 0 {
			out[size] = len(sc.slabs)
		}
	}
	return out
}

// Buf is a reference-counted view of a pinned allocation — the paper's
// RcBuf {data_pointer, offset, len, refcnt}. Multiple Bufs may view the
// same allocation; the slot returns to the free list when the shared
// refcount reaches zero.
type Buf struct {
	slab *slab
	slot int32
	off  int // byte offset of the view within the slab
	n    int
}

// Bytes returns the view's backing bytes. The slice remains valid while the
// caller holds a reference.
func (b *Buf) Bytes() []byte { return b.slab.data[b.off : b.off+b.n] }

// Len returns the view length.
func (b *Buf) Len() int { return b.n }

// Cap returns the number of bytes from the view start to the end of the
// slot — the writable headroom of the allocation.
func (b *Buf) Cap() int { return (int(b.slot)+1)*b.slab.slotSize - b.off }

// SimAddr returns the simulated physical address of the view's first byte.
func (b *Buf) SimAddr() uint64 { return b.slab.simBase + uint64(b.off) }

// RefcountSimAddr returns the simulated address of the allocation's
// refcount word — the metadata location whose cache behaviour dominates the
// zero-copy bookkeeping cost (§2.3).
func (b *Buf) RefcountSimAddr() uint64 {
	return b.slab.simRefBase + uint64(b.slot)*refcountBytes
}

// Refcount returns the current reference count of the allocation.
func (b *Buf) Refcount() int32 { return b.slab.refcnts[b.slot] }

// IncRef adds a reference. Panics if the allocation is already free.
func (b *Buf) IncRef() {
	if b.slab.refcnts[b.slot] <= 0 {
		panic("mem: IncRef on freed buffer")
	}
	b.slab.refcnts[b.slot]++
}

// DecRef drops a reference, returning the slot to the allocator free list
// when the count reaches zero. Panics on double free.
func (b *Buf) DecRef() {
	rc := b.slab.refcnts[b.slot]
	if rc <= 0 {
		panic("mem: DecRef on freed buffer (double free)")
	}
	b.slab.refcnts[b.slot] = rc - 1
	if rc-1 == 0 {
		s := b.slab
		s.free = append(s.free, b.slot)
		if len(s.free) == 1 {
			s.class.partial = append(s.class.partial, s)
		}
		st := statsOwner(s)
		st.Frees++
		st.SlotsInUse--
		// The final reference is gone: no live holder may touch this view
		// again, so the struct itself recycles through the allocator's Buf
		// free list. slab nil-s out so a stale use panics instead of
		// silently reading whatever allocation reuses the struct.
		b.slab = nil
		s.alloc.bufFree = append(s.alloc.bufFree, b)
	}
}

// SubView returns a new view of n bytes starting off bytes into b, sharing
// (and incrementing) the refcount.
func (b *Buf) SubView(off, n int) *Buf {
	if off < 0 || n < 0 || off+n > b.n {
		panic(fmt.Sprintf("mem: SubView(%d, %d) out of range of %d-byte view", off, n, b.n))
	}
	b.IncRef()
	return b.slab.alloc.getBuf(b.slab, b.slot, b.off+off, n)
}

// Resize shrinks or grows the view in place within the slot's capacity.
// It is used by receive paths that allocate a full-MTU buffer and trim it
// to the received length.
func (b *Buf) Resize(n int) {
	if n < 0 || n > b.Cap() {
		panic(fmt.Sprintf("mem: Resize(%d) beyond capacity %d", n, b.Cap()))
	}
	b.n = n
}

// statsOwner walks back to the Allocator stats through the slab.
func statsOwner(s *slab) *Stats { return &s.alloc.stats }
