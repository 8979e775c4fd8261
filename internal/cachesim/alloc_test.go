package cachesim

import (
	"fmt"
	"slices"
	"testing"
)

// TestAccessRangeAllocFree pins 0 allocs on the batched range walk, hit and
// miss alike: a level allocates its page table on the first access and each
// page on the first fill into it, so once the walk's pages exist,
// steady-state lookups, fills, and evictions must never touch the heap.
func TestAccessRangeAllocFree(t *testing.T) {
	h := New(DefaultConfig())
	const base = uint64(1) << 40
	touch := func() {
		// An L1-resident run (fast path) plus a strided walk wide enough to
		// evict through L3 (miss path).
		h.AccessRange(base, 4096)
		for a := base; a < base+(64<<20); a += 64 << 10 {
			h.AccessRange(a, 128)
		}
	}
	touch() // materialize every set on the walk
	allocs := testing.AllocsPerRun(10, touch)
	if allocs != 0 {
		t.Fatalf("warm AccessRange allocated %.2f allocs (want 0)", allocs)
	}
}

// TestLevelsAllocateOnFirstAccess pins the first-touch allocation: a fresh
// New or NewShared hierarchy holds no page table until it is accessed,
// reads as empty meanwhile, and its first access allocates its own levels'
// tables plus the L3's it shares, without the sibling's private levels.
func TestLevelsAllocateOnFirstAccess(t *testing.T) {
	base := New(DefaultConfig())
	sib := NewShared(base)
	for _, h := range []*Hierarchy{base, sib} {
		for i, l := range []*level{h.l1, h.l2, h.l3} {
			if l.pages != nil {
				t.Fatalf("level L%d allocated before any access", i+1)
			}
		}
		if h.Allocated() {
			t.Error("Allocated before any access")
		}
		h.Flush()
		if s := h.Stats(); s != ([3]LevelStats{}) || h.DRAMAccesses != 0 {
			t.Errorf("untouched hierarchy reads %+v, %d DRAM accesses", s, h.DRAMAccesses)
		}
		if lvl := h.Contains(0x1000); lvl != HitDRAM {
			t.Errorf("untouched hierarchy contains a line at %v", lvl)
		}
	}

	sib.AccessRange(0x1000, 0) // an empty range touches nothing
	if sib.Allocated() || base.l3.pages != nil {
		t.Fatal("an empty AccessRange allocated")
	}
	sib.AccessRange(0x1000, 64)
	if !sib.Allocated() || base.l3.pages == nil {
		t.Fatal("the sibling's first access left its levels or the shared L3 unallocated")
	}
	if base.Allocated() {
		t.Error("the sibling's access allocated the base's private levels")
	}
	if lvl := base.Contains(0x1000); lvl != HitL3 {
		t.Errorf("base sees the sibling's fill at %v, want L3", lvl)
	}
	if lvl, _ := base.Access(0x1000); lvl != HitL3 || !base.Allocated() {
		t.Errorf("base's first access hit %v (allocated %v), want L3 and allocated", lvl, base.Allocated())
	}
}

// heldPages returns which pages of each of h's levels are allocated, in L1,
// L2, L3 order.
func heldPages(h *Hierarchy) [3][]int {
	var held [3][]int
	for i, l := range []*level{h.l1, h.l2, h.l3} {
		for p, pg := range l.pages {
			if pg != nil {
				held[i] = append(held[i], p)
			}
		}
	}
	return held
}

// pageOf returns the page of l that holds line's set.
func pageOf(l *level, line uint64) int { return l.setIndex(line) >> pageShift }

// TestUntouchedPagesAllocFree pins the page table's holes: on an accessed
// hierarchy, lookups, Contains and Flush over pages no fill has reached
// allocate nothing and miss, a fill allocates exactly its own set's page at
// each level, a 4 KiB range materializes at most two pages per level, and
// a sibling's fill materializes only the shared L3's page.
func TestUntouchedPagesAllocFree(t *testing.T) {
	const a = uint64(1) << 40
	h := New(DefaultConfig())
	h.allocate()
	levels := []*level{h.l1, h.l2, h.l3}
	probe := func(line uint64) {
		t.Helper()
		for i, l := range levels {
			tags, stamps := l.set(l.setIndex(line))
			if tags != nil {
				continue // a page a fill reached
			}
			hits := l.hits
			if allocs := testing.AllocsPerRun(10, func() { l.lookup(tags, stamps, line) }); allocs != 0 || l.hits != hits {
				t.Errorf("L%d lookup over an untouched page: %.2f allocs, %d hits", i+1, allocs, l.hits-hits)
			}
		}
		var lvl HitLevel
		if allocs := testing.AllocsPerRun(10, func() { lvl = h.Contains(line) }); allocs != 0 || lvl != HitDRAM {
			t.Errorf("Contains(%#x) over untouched pages: %.2f allocs, at %v", line, allocs, lvl)
		}
		if allocs := testing.AllocsPerRun(10, h.Flush); allocs != 0 {
			t.Errorf("Flush: %.2f allocs", allocs)
		}
	}
	probe(a)
	if held := heldPages(h); len(held[0])+len(held[1])+len(held[2]) != 0 {
		t.Fatalf("probes allocated pages %v", held)
	}

	h.Access(a)
	for i, l := range levels {
		if held := heldPages(h)[i]; len(held) != 1 || held[0] != pageOf(l, a) {
			t.Errorf("L%d holds pages %v after one fill, want [%d]", i+1, held, pageOf(l, a))
		}
	}
	// The next page of L2 and L3 (L1's 64 sets are all one page).
	b := a + pageSets*LineSize
	probe(b)
	if held := heldPages(h); len(held[0]) != 1 || len(held[1]) != 1 || len(held[2]) != 1 {
		t.Errorf("probes past the filled page allocated: %v", held)
	}

	// A 4 KiB range is at most 65 lines, so at most 65 consecutive sets.
	for start := uint64(0); start < 2*pageSets*LineSize; start += 8 * LineSize / 3 {
		r := New(DefaultConfig())
		r.AccessRange(a+start, 4096)
		for i, held := range heldPages(r) {
			if len(held) == 0 || len(held) > 2 {
				t.Fatalf("AccessRange(%#x, 4096) materialized L%d pages %v, want one or two", a+start, i+1, held)
			}
		}
	}

	sib := NewShared(h)
	before := heldPages(h)
	c := a + 8*pageSets*LineSize // in L3 page 8, which nothing has filled
	sib.Access(c)
	after := heldPages(h)
	if fmt.Sprint(after[:2]) != fmt.Sprint(before[:2]) {
		t.Errorf("a sibling's fill changed the base's private pages: %v → %v", before[:2], after[:2])
	}
	want := append(slices.Clone(before[2]), pageOf(h.l3, c))
	slices.Sort(want)
	if !slices.Equal(after[2], want) {
		t.Errorf("a sibling's fill left the shared L3 holding pages %v, want %v", after[2], want)
	}
}
