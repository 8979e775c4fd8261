package cachesim

import "testing"

// TestAccessRangeAllocFree pins 0 allocs on the batched range walk, hit and
// miss alike: the stamp-LRU levels are flat arrays allocated once, on the
// first access, so steady-state lookups, fills, and evictions must never
// touch the heap.
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
// New or NewShared hierarchy holds no level array until it is accessed,
// reads as empty meanwhile, and its first access allocates its own levels
// plus the L3 it shares, without the sibling's private levels.
func TestLevelsAllocateOnFirstAccess(t *testing.T) {
	base := New(DefaultConfig())
	sib := NewShared(base)
	for _, h := range []*Hierarchy{base, sib} {
		for i, l := range []*level{h.l1, h.l2, h.l3} {
			if l.tags != nil || l.stamps != nil {
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
	if sib.Allocated() || base.l3.tags != nil {
		t.Fatal("an empty AccessRange allocated")
	}
	sib.AccessRange(0x1000, 64)
	if !sib.Allocated() || base.l3.tags == nil {
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
