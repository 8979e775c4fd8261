package netstack

import (
	"testing"

	"cornflakes/internal/core"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
)

// TestSendObjectAllocFree pins the combined serialize-and-send path
// (§3.2.3) for a copied-field object: once the message pool, the DMA
// buffers and the NIC's frame state are warm, building a message with an
// int and two copied byte fields, sending it, releasing it and running the
// frame to delivery must not allocate. A zero-copy field is left out: it
// still costs one mem.Buf view per send.
func TestSendObjectAllocFree(t *testing.T) {
	eng, ua, ub, na, _ := udpPair(nic.MellanoxCX6())
	s := &core.Schema{Name: "PutReq", Fields: []core.Field{
		{Name: "id", Kind: core.KindInt},
		{Name: "key", Kind: core.KindBytes},
		{Name: "val", Kind: core.KindBytes},
	}}
	key, val := []byte("key-bytes"), make([]byte, 96)
	delivered := 0
	ub.SetRecvHandler(func(p *mem.Buf) {
		delivered++
		p.DecRef()
	})
	cycle := func() {
		m := core.NewMessage(s, na.ctx)
		m.SetInt(0, 7)
		m.SetBytes(1, na.ctx.NewCFPtrCopy(key))
		m.SetBytes(2, na.ctx.NewCFPtrCopy(val))
		if err := ua.SendObject(m); err != nil {
			t.Fatal(err)
		}
		m.Release()
		na.arena.Reset()
		eng.Run()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Fatalf("SendObject cycle allocated %.2f allocs (want 0)", allocs)
	}
	if delivered != 8+101 {
		t.Fatalf("delivered %d frames, want %d", delivered, 8+101)
	}
}

// TestTCPSendAckAllocFree pins TCP-lite's send/ack loop: once the pinned
// slabs and the NIC's frame state are warm, sending two 256-byte segments
// with SendContiguous, delivering them and releasing each on its ack must
// not allocate. Acknowledged segments are reused, the RTO callback is
// bound once, and the unacked queue keeps its backing array when an ack
// leaves a segment in flight.
func TestTCPSendAckAllocFree(t *testing.T) {
	eng, ca, cb, _, _, _ := tcpPair()
	delivered := 0
	cb.SetRecvHandler(func(p *mem.Buf) {
		delivered++
		p.DecRef()
	})
	payload := make([]byte, 256)
	addr := mem.UnpinnedSimAddr(payload)
	cycle := func() {
		for range 2 {
			if err := ca.SendContiguous(payload, addr); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Fatalf("TCP send/ack cycle allocated %.2f allocs (want 0)", allocs)
	}
	if delivered != 2*(8+101) || ca.Unacked() != 0 || ca.Retransmits != 0 {
		t.Fatalf("delivered %d segments (want %d), %d unacked, %d retransmits",
			delivered, 2*(8+101), ca.Unacked(), ca.Retransmits)
	}
}
