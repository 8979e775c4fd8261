package costmodel

import (
	"testing"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/sim"
)

func newTestMeter() *Meter {
	return NewMeter(DefaultCPU(), cachesim.New(cachesim.DefaultConfig()))
}

func TestCyclesToTime(t *testing.T) {
	cpu := DefaultCPU()
	// 280 cycles at 2.8 GHz = 100 ns.
	if got := cpu.Cycles(280); got != 100*sim.Nanosecond {
		t.Errorf("Cycles(280) = %v, want 100ns", got)
	}
	if got := cpu.Cycles(0); got != 0 {
		t.Errorf("Cycles(0) = %v, want 0", got)
	}
}

func TestChargeAndDrain(t *testing.T) {
	m := newTestMeter()
	m.Charge(100)
	m.Charge(50)
	if got := m.Drain(); got != 150 {
		t.Errorf("Drain = %v, want 150", got)
	}
	if got := m.Drain(); got != 0 {
		t.Errorf("second Drain = %v, want 0", got)
	}
}

func TestDrainTime(t *testing.T) {
	m := newTestMeter()
	m.Charge(280)
	if got := m.DrainTime(); got != 100*sim.Nanosecond {
		t.Errorf("DrainTime = %v, want 100ns", got)
	}
}

func TestCategories(t *testing.T) {
	m := newTestMeter()
	m.SetCategory(CatDeserialize)
	m.Charge(10)
	prev := m.SetCategory(CatApp)
	if prev != CatDeserialize {
		t.Errorf("SetCategory returned %v, want CatDeserialize", prev)
	}
	m.Charge(20)
	r := m.TakeReceipt()
	if r.Cycles[CatDeserialize] != 10 || r.Cycles[CatApp] != 20 {
		t.Errorf("receipt = %+v", r)
	}
	if r.Total() != 30 {
		t.Errorf("Total = %v, want 30", r.Total())
	}
	// Receipt resets.
	if m.TakeReceipt().Total() != 0 {
		t.Error("receipt not reset")
	}
}

func TestReceiptAddScale(t *testing.T) {
	var a, b Receipt
	a.Cycles[CatRx] = 10
	b.Cycles[CatRx] = 30
	a.Add(b)
	if a.Cycles[CatRx] != 40 {
		t.Errorf("Add: got %v", a.Cycles[CatRx])
	}
	a.Scale(4)
	if a.Cycles[CatRx] != 10 {
		t.Errorf("Scale: got %v", a.Cycles[CatRx])
	}
	a.Scale(0) // must not divide by zero
}

func TestCategoryStrings(t *testing.T) {
	want := map[Category]string{
		CatRx: "rx", CatDeserialize: "deserialize", CatApp: "app",
		CatSerialize: "serialize", CatTx: "tx", CatOther: "other",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestCopyChargesCacheAndBytes(t *testing.T) {
	m := newTestMeter()
	m.Copy(0x1000, 0x200000, 512)
	cy := m.Drain()
	if cy <= 0 {
		t.Fatal("copy charged nothing")
	}
	if m.BytesCopied != 512 {
		t.Errorf("BytesCopied = %d", m.BytesCopied)
	}
	// A warm copy of the same range must be cheaper (both ranges cached).
	m.Copy(0x1000, 0x200000, 512)
	warm := m.Drain()
	if warm >= cy {
		t.Errorf("warm copy (%v cy) not cheaper than cold copy (%v cy)", warm, cy)
	}
}

func TestCopyZeroBytesFree(t *testing.T) {
	m := newTestMeter()
	m.Copy(0x1000, 0x2000, 0)
	if m.Drain() != 0 {
		t.Error("zero-byte copy charged cycles")
	}
}

func TestMetadataAccessCountsMisses(t *testing.T) {
	m := newTestMeter()
	m.MetadataAccess(0xF000000)
	if m.MetadataTouch != 1 || m.MetadataMisses != 1 {
		t.Errorf("cold metadata: touch=%d misses=%d", m.MetadataTouch, m.MetadataMisses)
	}
	m.MetadataAccess(0xF000000)
	if m.MetadataMisses != 1 {
		t.Errorf("warm metadata counted as miss")
	}
}

func TestSGPost(t *testing.T) {
	m := newTestMeter()
	m.SGPost()
	m.SGPost()
	if m.SGEntriesPosts != 2 {
		t.Errorf("SGEntriesPosts = %d", m.SGEntriesPosts)
	}
	if got := m.Drain(); got != 2*m.CPU.SGPostCy {
		t.Errorf("Drain = %v, want %v", got, 2*m.CPU.SGPostCy)
	}
}

// The central calibration property behind the paper's Figure 5: with a cold
// source buffer and cold metadata, the zero-copy bookkeeping path and the
// copy path cost about the same at 512-byte fields; copy is cheaper well
// below, zero-copy cheaper well above.
func TestCrossoverCalibration(t *testing.T) {
	cost := func(n int, zeroCopy bool) float64 {
		m := newTestMeter()
		dataAddr := uint64(0x10_0000_0000) // cold
		refAddr := uint64(0xF0_0000_0000)  // cold metadata
		arena := uint64(0x70_0000_0000)
		dma := uint64(0x20_0000_0000)
		// Warm the arena and DMA destinations: they are reused per request.
		m.Access(arena, n)
		m.Access(dma, n)
		m.Drain()
		if zeroCopy {
			m.Charge(m.CPU.RegistryLookupCy)
			m.MetadataAccess(refAddr) // refcount increment
			m.SGPost()                // extra descriptor entry
			m.MetadataAccess(refAddr) // completion decrement (likely warm)
			m.Charge(m.CPU.CompletionCy)
		} else {
			m.Charge(m.CPU.ArenaAllocCy)
			m.Copy(dataAddr, arena, n) // first copy: cold source
			m.Copy(arena, dma, n)      // second copy: cached source (§2.2)
		}
		return m.Drain()
	}
	for _, n := range []int{64, 128, 256} {
		if cost(n, false) >= cost(n, true) {
			t.Errorf("at %dB copy (%.0f cy) should beat zero-copy (%.0f cy)",
				n, cost(n, false), cost(n, true))
		}
	}
	for _, n := range []int{1024, 2048, 4096} {
		if cost(n, true) >= cost(n, false) {
			t.Errorf("at %dB zero-copy (%.0f cy) should beat copy (%.0f cy)",
				n, cost(n, true), cost(n, false))
		}
	}
	// At 512 the two should be within ~35% of each other (the crossover).
	c, z := cost(512, false), cost(512, true)
	ratio := c / z
	if ratio < 0.65 || ratio > 1.55 {
		t.Errorf("at 512B copy/zero-copy ratio = %.2f (copy %.0f, zc %.0f); want near 1", ratio, c, z)
	}
}

// TestMeterWithoutCache pins the load generator's meter: with no hierarchy,
// touches charge nothing and never miss, while copies keep their fixed
// setup and per-byte cost and every counter.
func TestMeterWithoutCache(t *testing.T) {
	m := NewMeter(DefaultCPU(), nil)
	m.Access(0x1000, 4096)
	if lvl := m.AccessWord(0x1000); lvl != cachesim.HitL1 {
		t.Errorf("AccessWord = %v, want a free L1 hit", lvl)
	}
	m.MetadataAccess(0x2000)
	if got := m.Drain(); got != 0 {
		t.Errorf("touches charged %v cycles, want 0", got)
	}
	if m.MetadataTouch != 1 || m.MetadataMisses != 0 {
		t.Errorf("metadata touches %d, misses %d; want 1, 0", m.MetadataTouch, m.MetadataMisses)
	}
	m.Copy(0x1000, 0x9000, 1000)
	cpu := DefaultCPU()
	if got, want := m.Drain(), cpu.CopySetupCy+1000*cpu.CopyPerByteCy; got != want {
		t.Errorf("copy charged %v cycles, want %v", got, want)
	}
	if m.BytesCopied != 1000 {
		t.Errorf("BytesCopied = %d, want 1000", m.BytesCopied)
	}
}
