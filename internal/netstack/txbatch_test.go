package netstack

import (
	"testing"

	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

// TestTxBatchFlushPostsAll: frames sent inside a Begin/End bracket post
// as they are sent, counted in TxPackets at once, and share one doorbell.
func TestTxBatchFlushPostsAll(t *testing.T) {
	eng, ua, ub, _, _ := udpPair(nic.MellanoxCX6())
	var got []string
	ub.SetRecvHandler(func(p *mem.Buf) { got = append(got, string(p.Bytes())); p.DecRef() })

	ua.BeginTxBatch()
	for i, s := range []string{"one", "two", "three"} {
		if err := ua.SendContiguous([]byte(s), 0); err != nil {
			t.Fatal(err)
		}
		if ua.TxPackets != uint64(i+1) {
			t.Errorf("TxPackets = %d after frame %d, want %d (counted at post)", ua.TxPackets, i+1, i+1)
		}
	}
	ua.EndTxBatch()
	if ua.Port.TxDoorbells != 1 {
		t.Errorf("TxDoorbells = %d, want 1 for a 3-frame burst", ua.Port.TxDoorbells)
	}
	eng.Run()
	if len(got) != 3 || got[0] != "one" || got[1] != "two" || got[2] != "three" {
		t.Errorf("delivered %q, want the three frames in order", got)
	}
}

// TestTxBatchFlushEmpty: a bracket with no frames is a no-op.
func TestTxBatchFlushEmpty(t *testing.T) {
	_, ua, _, na, _ := udpPair(nic.MellanoxCX6())
	ua.BeginTxBatch()
	ua.EndTxBatch()
	if ua.Port.TxDoorbells != 0 || ua.TxPackets != 0 {
		t.Errorf("empty batch did work: doorbells=%d packets=%d", ua.Port.TxDoorbells, ua.TxPackets)
	}
	if cy := na.meter.Drain(); cy != 0 {
		t.Errorf("empty batch charged %v cycles, want 0", cy)
	}
}

// txBatchRun sends the given number of 100-byte frames from a fresh pair,
// inside one TX batch or unbatched, and returns the sender's cycles, its
// doorbells and the last arrival.
func txBatchRun(t *testing.T, prof nic.Profile, frames int, batch bool) (float64, uint64, sim.Time) {
	eng, ua, ub, na, _ := udpPair(prof)
	var last sim.Time
	ub.SetRecvHandler(func(p *mem.Buf) { last = eng.Now(); p.DecRef() })
	if batch {
		ua.BeginTxBatch()
	}
	for i := 0; i < frames; i++ {
		if err := ua.SendContiguous(make([]byte, 100), 0); err != nil {
			t.Fatal(err)
		}
	}
	if batch {
		ua.EndTxBatch()
	}
	eng.Run()
	return na.meter.Drain(), ua.Port.TxDoorbells, last
}

// TestTxBatchOfOneMatchesSend: a one-frame batch is indistinguishable from
// an unbatched send — same arrival, one doorbell, same cycles — so the
// drain's B=1 floor really is the unbatched path.
func TestTxBatchOfOneMatchesSend(t *testing.T) {
	sendCy, sendDB, sendAt := txBatchRun(t, nic.MellanoxCX6(), 1, false)
	batchCy, batchDB, batchAt := txBatchRun(t, nic.MellanoxCX6(), 1, true)
	if sendAt == 0 || batchAt != sendAt {
		t.Errorf("arrival: unbatched %v, batch of one %v", sendAt, batchAt)
	}
	if sendDB != 1 || batchDB != 1 {
		t.Errorf("doorbells: unbatched %d, batch of one %d, want 1 each", sendDB, batchDB)
	}
	if batchCy != sendCy {
		t.Errorf("cycles: unbatched %v, batch of one %v", sendCy, batchCy)
	}
}

// TestTxBatchChunksByMaxTxBurst: a batch larger than MaxTxBurst rings one
// doorbell per chunk, and the host pays the doorbell share once per chunk
// instead of once per frame.
func TestTxBatchChunksByMaxTxBurst(t *testing.T) {
	prof := nic.MellanoxCX6()
	prof.MaxTxBurst = 4
	soloCy, soloDB, _ := txBatchRun(t, prof, 10, false)
	batchCy, batchDB, _ := txBatchRun(t, prof, 10, true)
	if soloDB != 10 || batchDB != 3 { // ceil(10/4)
		t.Errorf("TxDoorbells: unbatched %d (want 10), batch %d (want 3 for 10 frames at burst 4)", soloDB, batchDB)
	}
	if got, want := soloCy-batchCy, 7*costmodel.DefaultCPU().TxDoorbellCy; got != want {
		t.Errorf("batch charged %v fewer cycles, want exactly 7 doorbells (%v)", got, want)
	}
}

// TestTxBatchOversizeFailsAtQueueTime: a frame violating limits inside a
// batch fails its own post — releases run immediately, the rest of the
// batch is unaffected.
func TestTxBatchOversizeFailsAtQueueTime(t *testing.T) {
	eng, ua, ub, na, _ := udpPair(nic.MellanoxCX6())
	delivered := 0
	ub.SetRecvHandler(func(p *mem.Buf) { delivered++; p.DecRef() })

	ua.BeginTxBatch()
	if err := ua.SendContiguous(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if err := ua.SendContiguous(make([]byte, MaxPayload+1), 0); err == nil {
		t.Error("oversize frame accepted into batch")
	}
	if err := ua.SendContiguous(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	ua.EndTxBatch()
	eng.Run()
	if delivered != 2 {
		t.Errorf("delivered %d frames, want 2 (good frames only)", delivered)
	}
	if st := na.alloc.Stats(); st.SlotsInUse != 0 {
		t.Errorf("slots in use = %d; rejected frame leaked a buffer", st.SlotsInUse)
	}
}

// TestTxBatchEntryLimitFailsAtQueueTime: a frame exceeding MaxSGEntries
// inside a batch is refused by the NIC at its post and unwinds there.
func TestTxBatchEntryLimitFailsAtQueueTime(t *testing.T) {
	eng, ua, ub, na, _ := udpPair(nic.IntelE810()) // 8-entry limit
	delivered := 0
	ub.SetRecvHandler(func(p *mem.Buf) { delivered++; p.DecRef() })

	var bufs []*mem.Buf
	for i := 0; i < 9; i++ { // 9 pinned entries + header = 10 > 8
		bufs = append(bufs, na.alloc.Alloc(64))
	}
	ua.BeginTxBatch()
	err := ua.SendPinned(bufs, true)
	if _, ok := err.(*nic.ErrTooManyEntries); !ok {
		t.Errorf("error %T %v, want *nic.ErrTooManyEntries at post", err, err)
	}
	ua.EndTxBatch()
	for _, b := range bufs {
		b.DecRef() // drop the caller's own references
	}
	eng.Run()
	if delivered != 0 {
		t.Errorf("delivered %d frames, want 0", delivered)
	}
	if st := na.alloc.Stats(); st.SlotsInUse != 0 {
		t.Errorf("slots in use = %d; DMA references leaked", st.SlotsInUse)
	}
}

// TestTxBatchFlushErrUnwinds: a ring-full refusal of one frame inside a
// batch fails only that frame: it unwinds and is counted, and the frames
// before and after it post.
func TestTxBatchFlushErrUnwinds(t *testing.T) {
	eng, ua, ub, na, _ := udpPair(nic.MellanoxCX6())
	delivered := 0
	ub.SetRecvHandler(func(p *mem.Buf) { delivered++; p.DecRef() })
	base := na.alloc.Stats().SlotsInUse

	calls := 0
	ua.Port.InjectSendErr = func() error {
		calls++
		if calls == 3 { // refuse the third frame of the batch
			return mem.ErrNoMem
		}
		return nil
	}
	ua.BeginTxBatch()
	for i := 0; i < 4; i++ {
		err := ua.SendContiguous(make([]byte, 100), 0)
		if (i == 2) != (err != nil) {
			t.Errorf("frame %d: err = %v", i, err)
		}
	}
	ua.EndTxBatch()
	if ua.TxPackets != 3 {
		t.Errorf("TxPackets = %d, want 3 (every frame but the refused one)", ua.TxPackets)
	}
	if ua.TxFlushErrs != 1 {
		t.Errorf("TxFlushErrs = %d, want 1 (the refused frame)", ua.TxFlushErrs)
	}
	eng.Run()
	if delivered != 3 {
		t.Errorf("delivered %d frames, want 3", delivered)
	}
	if st := na.alloc.Stats(); st.SlotsInUse != base {
		t.Errorf("slots in use = %d, want %d; the refused frame leaked its buffer", st.SlotsInUse, base)
	}
}

// TestRxBatchedChargeSplit: with RxBatched set, onFrame charges only the
// per-frame remainder of RxPacketCy; the poll share is the drainer's to
// pay. The two paths must sum to the same total so calibration is
// preserved.
func TestRxBatchedChargeSplit(t *testing.T) {
	run := func(batched bool) float64 {
		eng, ua, ub, _, nb := udpPair(nic.MellanoxCX6())
		ub.RxBatched = batched
		ub.SetRecvHandler(func(p *mem.Buf) { p.DecRef() })
		if err := ua.SendContiguous([]byte("x"), 0); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		nb.meter.SetCategory(0)
		return nb.meter.Drain()
	}
	cpu := newNode().meter.CPU
	unb := run(false)
	bat := run(true)
	if got := unb - bat; got != cpu.RxPollCy {
		t.Errorf("batched RX charges %v fewer cycles, want exactly RxPollCy=%v", got, cpu.RxPollCy)
	}
}
