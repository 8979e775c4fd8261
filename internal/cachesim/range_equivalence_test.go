package cachesim

import (
	"math/rand"
	"testing"
)

// perLineRange is the straightforward per-line loop AccessRange replaced:
// the fast path must be observationally identical to it.
func perLineRange(h *Hierarchy, addr uint64, n int) (cycles float64, dramLines int) {
	if n <= 0 {
		return 0, 0
	}
	first := addr &^ uint64(LineSize-1)
	last := (addr + uint64(n) - 1) &^ uint64(LineSize-1)
	for line := first; ; line += LineSize {
		lvl, c := h.Access(line)
		cycles += c
		if lvl == HitDRAM {
			dramLines++
		}
		if line == last {
			break
		}
	}
	return cycles, dramLines
}

// TestAccessRangeFastPathEquivalence drives two identical hierarchies —
// one through the batched AccessRange fast path, one through a per-line
// Access loop — over randomized ranges covering unaligned starts and ends,
// single-line ranges, and ranges long enough to span every L1 set (and
// wrap), asserting identical costs, DRAM counts, stats, and residency.
func TestAccessRangeFastPathEquivalence(t *testing.T) {
	cfg := equivalenceConfig()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fast, slow := New(cfg), New(cfg)
		l1Bytes := uint64(cfg.L1.Size / cfg.L1.Ways) // bytes covering all L1 sets once
		for step := 0; step < 4000; step++ {
			base := uint64(1+rng.Intn(4096)) * LineSize
			off := uint64(rng.Intn(LineSize)) // unaligned start
			var n int
			switch rng.Intn(4) {
			case 0:
				n = 1 + rng.Intn(LineSize) // within one or two lines
			case 1:
				n = 1 + rng.Intn(8*LineSize)
			case 2:
				n = int(l1Bytes) + rng.Intn(2*LineSize) // spans all L1 sets, wraps
			default:
				n = 1 + rng.Intn(3*int(l1Bytes)) // multiple wraps
			}
			fc, fd := fast.AccessRange(base+off, n)
			sc, sd := perLineRange(slow, base+off, n)
			if fc != sc || fd != sd {
				t.Fatalf("seed %d step %d: AccessRange(%#x, %d) = (%v, %d), per-line loop = (%v, %d)",
					seed, step, base+off, n, fc, fd, sc, sd)
			}
			if fast.Stats() != slow.Stats() {
				t.Fatalf("seed %d step %d: stats diverged: fast %v, slow %v", seed, step, fast.Stats(), slow.Stats())
			}
		}
		if fast.DRAMAccesses != slow.DRAMAccesses {
			t.Fatalf("seed %d: DRAM accesses diverged: fast %d, slow %d", seed, fast.DRAMAccesses, slow.DRAMAccesses)
		}
	}
}

// TestAccessRangeL1Resident pins the fast path's behavior on a range fully
// resident in L1: cost is exactly lines×L1 latency, nothing below L1 is
// probed, and no DRAM access is charged.
func TestAccessRangeL1Resident(t *testing.T) {
	cfg := equivalenceConfig()
	h := New(cfg)
	const base, n = 64 * 1024, 4 * LineSize
	h.AccessRange(base, n) // fill
	before := h.Stats()
	cy, dram := h.AccessRange(base, n)
	if want := 4 * cfg.L1.LatencyCy; cy != want || dram != 0 {
		t.Fatalf("resident range: got (%v, %d), want (%v, 0)", cy, dram, want)
	}
	after := h.Stats()
	if after[0].Hits != before[0].Hits+4 || after[0].Misses != before[0].Misses {
		t.Fatalf("L1 stats: got %+v after %+v", after[0], before[0])
	}
	if after[1] != before[1] || after[2] != before[2] {
		t.Fatalf("resident range touched lower levels: before %v, after %v", before, after)
	}
}
