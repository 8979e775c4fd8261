package netstack

import (
	"bytes"
	"testing"

	"cornflakes/internal/core"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

func TestUDPRuntFrameIgnored(t *testing.T) {
	eng := sim.NewEngine()
	pa, pb := nic.Link(eng, nic.MellanoxCX6(), nic.MellanoxCX6(), 0)
	na := newNode()
	nb := newNode()
	NewUDP(eng, pa, na.alloc, na.meter)
	ub := NewUDP(eng, pb, nb.alloc, nb.meter)
	delivered := 0
	ub.SetRecvHandler(func(p *mem.Buf) { delivered++; p.DecRef() })
	// A frame shorter than the packet header must be dropped without
	// reaching the handler.
	pa.Send([]nic.SGEntry{{Data: make([]byte, PacketHeaderLen-1)}})
	eng.Run()
	if delivered != 0 {
		t.Error("runt frame delivered")
	}
	if nb.alloc.Stats().SlotsInUse != 0 {
		t.Error("runt frame leaked a buffer")
	}
}

func TestUDPNoHandlerNoLeak(t *testing.T) {
	eng, ua, _, _, nb := udpPair(nic.MellanoxCX6())
	ua.SendContiguous([]byte("payload-without-handler"), 0)
	eng.Run()
	if nb.alloc.Stats().SlotsInUse != 0 {
		t.Errorf("slots in use = %d; payload leaked with no handler", nb.alloc.Stats().SlotsInUse)
	}
}

func TestUDPSendWithShrink(t *testing.T) {
	eng, ua, ub, _, _ := udpPair(nic.MellanoxCX6())
	var got []byte
	ub.SetRecvHandler(func(p *mem.Buf) { got = append([]byte(nil), p.Bytes()...); p.DecRef() })
	// Reserve 100 bytes but only fill 10: the frame must shrink.
	ua.SendWith(100, func(dst []byte, _ uint64) int {
		return copy(dst, "ten-bytes!")
	})
	eng.Run()
	if string(got) != "ten-bytes!" {
		t.Errorf("got %q (len %d), want exactly the filled bytes", got, len(got))
	}
}

func TestUDPMaxPayloadBoundary(t *testing.T) {
	eng, ua, ub, _, _ := udpPair(nic.MellanoxCX6())
	ok := 0
	ub.SetRecvHandler(func(p *mem.Buf) { ok++; p.DecRef() })
	if err := ua.SendContiguous(make([]byte, MaxPayload), 0); err != nil {
		t.Errorf("MaxPayload-sized payload rejected: %v", err)
	}
	if err := ua.SendContiguous(make([]byte, MaxPayload+1), 0); err == nil {
		t.Error("payload above MaxPayload accepted")
	}
	eng.Run()
	if ok != 1 {
		t.Errorf("delivered %d frames, want 1", ok)
	}
}

func TestUDPDMABufferReuse(t *testing.T) {
	eng, ua, ub, na, _ := udpPair(nic.MellanoxCX6())
	ub.SetRecvHandler(func(p *mem.Buf) { p.DecRef() })
	for i := 0; i < 50; i++ {
		ua.SendContiguous(make([]byte, 1000), 0)
		eng.Run() // complete each send: the DMA buffer returns to the free list
	}
	st := na.alloc.Stats()
	if st.SlotsInUse != 0 {
		t.Errorf("slots in use = %d after all completions", st.SlotsInUse)
	}
	// The pinned footprint must stay bounded: buffers are recycled, not
	// accumulated.
	if st.BytesPinned > 4<<20 {
		t.Errorf("pinned footprint grew to %d bytes over 50 sends", st.BytesPinned)
	}
}

func TestTCPRTOBackoffAndRecovery(t *testing.T) {
	eng, ca, cb, na, _, pa := tcpPair()
	delivered := 0
	cb.SetRecvHandler(func(p *mem.Buf) { delivered++; p.DecRef() })
	// Drop the first three data transmissions: two RTO doublings, then
	// success.
	drops := 0
	pa.Interceptor = dropIf(func(data []byte) bool {
		if len(data) > TCPHeaderLen && drops < 3 {
			drops++
			return true
		}
		return false
	})
	msg := core.NewMessage(testSchema(), na.ctx)
	msg.SetInt(0, 1)
	if err := ca.SendObject(msg); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1 after three losses", delivered)
	}
	if ca.Retransmits != 3 {
		t.Errorf("retransmits = %d, want 3", ca.Retransmits)
	}
	if ca.Unacked() != 0 {
		t.Error("segment still outstanding")
	}
}

func TestTCPManyMessagesWithRandomLoss(t *testing.T) {
	eng, ca, cb, na, _, pa := tcpPair()
	var got []uint64
	cb.SetRecvHandler(func(p *mem.Buf) {
		id, ok := core.PeekID(p.Bytes())
		if !ok {
			t.Error("bad payload")
		}
		got = append(got, id)
		p.DecRef()
	})
	// Deterministic pseudo-random ~20% loss on data frames.
	n := uint64(0)
	pa.Interceptor = dropIf(func(data []byte) bool {
		if len(data) <= TCPHeaderLen {
			return false
		}
		n = n*6364136223846793005 + 1442695040888963407
		return n>>60 < 3
	})
	const msgs = 40
	for i := 0; i < msgs; i++ {
		m := core.NewMessage(testSchema(), na.ctx)
		m.SetInt(0, uint64(i))
		m.AppendBytes(2, na.ctx.NewCFPtr(bytes.Repeat([]byte{byte(i)}, 1024)))
		if err := ca.SendObject(m); err != nil {
			t.Fatal(err)
		}
		m.Release()
		na.arena.Reset()
	}
	eng.Run()
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d messages", len(got), msgs)
	}
	for i, id := range got {
		if id != uint64(i) {
			t.Fatalf("message %d arrived with id %d (ordering violated)", i, id)
		}
	}
	if ca.Retransmits == 0 {
		t.Error("expected retransmissions under 20% loss")
	}
	if ca.Unacked() != 0 {
		t.Error("unacked segments remain")
	}
}

func TestSendObjectManyZCEntriesWithinLimit(t *testing.T) {
	eng, ua, ub, na, nb := udpPair(nic.MellanoxCX6())
	s := testSchema()
	msg := core.NewMessage(s, na.ctx)
	// 8 zero-copy fields of 600B: well within the Mellanox 64-entry limit,
	// total 4800B within a jumbo frame.
	var want [][]byte
	for i := 0; i < 8; i++ {
		v := na.alloc.Alloc(600)
		for j := range v.Bytes() {
			v.Bytes()[j] = byte(i*31 + j)
		}
		want = append(want, append([]byte(nil), v.Bytes()...))
		msg.AppendBytes(2, na.ctx.NewCFPtr(v.Bytes()))
	}
	var got *core.Message
	ub.SetRecvHandler(func(p *mem.Buf) {
		m, err := nb.ctx.Deserialize(s, p)
		if err != nil {
			t.Errorf("deserialize: %v", err)
			p.DecRef()
			return
		}
		got = m
	})
	if err := ua.SendObject(msg); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got == nil {
		t.Fatal("not delivered")
	}
	for i := range want {
		if !bytes.Equal(got.GetBytesElem(2, i), want[i]) {
			t.Errorf("field %d corrupted", i)
		}
	}
	if ua.TxZCEntries != 8 {
		t.Errorf("TxZCEntries = %d, want 8", ua.TxZCEntries)
	}
}
