package netstack

import (
	"bytes"
	"testing"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

// dropIf is a port Interceptor that loses the frames drop selects and
// delivers the rest unchanged.
func dropIf(drop func(data []byte) bool) nic.Interceptor {
	return func(data []byte) []nic.Delivery {
		if drop(data) {
			return nil
		}
		return []nic.Delivery{{Data: data}}
	}
}

type node struct {
	alloc *mem.Allocator
	arena *mem.Arena
	meter *costmodel.Meter
	ctx   *core.Ctx
}

func newNode() *node {
	alloc := mem.NewAllocator()
	arena := mem.NewArena(64 << 10)
	meter := costmodel.NewMeter(costmodel.DefaultCPU(), cachesim.New(cachesim.DefaultConfig()))
	return &node{alloc: alloc, arena: arena, meter: meter, ctx: core.NewCtx(alloc, arena, meter)}
}

func testSchema() *core.Schema {
	return &core.Schema{Name: "GetM", Fields: []core.Field{
		{Name: "id", Kind: core.KindInt},
		{Name: "keys", Kind: core.KindBytesList},
		{Name: "vals", Kind: core.KindBytesList},
	}}
}

func udpPair(prof nic.Profile) (*sim.Engine, *UDP, *UDP, *node, *node) {
	eng := sim.NewEngine()
	pa, pb := nic.Link(eng, prof, prof, sim.FromNanos(1000))
	na, nb := newNode(), newNode()
	ua := NewUDP(eng, pa, na.alloc, na.meter)
	ub := NewUDP(eng, pb, nb.alloc, nb.meter)
	return eng, ua, ub, na, nb
}

func TestUDPSendObjectRoundTrip(t *testing.T) {
	eng, ua, ub, na, nb := udpPair(nic.MellanoxCX6())
	s := testSchema()

	val := na.alloc.Alloc(2048)
	for i := range val.Bytes() {
		val.Bytes()[i] = byte(i % 251)
	}
	msg := core.NewMessage(s, na.ctx)
	msg.SetInt(0, 77)
	msg.AppendBytes(1, na.ctx.NewCFPtr([]byte("some-key")))
	msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))
	if msg.Layout().NumZC != 1 {
		t.Fatal("expected one zero-copy entry")
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
		t.Fatal("no message delivered")
	}
	if got.GetInt(0) != 77 {
		t.Errorf("id = %d", got.GetInt(0))
	}
	if string(got.GetBytesElem(1, 0)) != "some-key" {
		t.Errorf("key = %q", got.GetBytesElem(1, 0))
	}
	if !bytes.Equal(got.GetBytesElem(2, 0), val.Bytes()) {
		t.Error("value corrupted in flight")
	}
	if ua.TxZCEntries != 1 {
		t.Errorf("TxZCEntries = %d", ua.TxZCEntries)
	}
}

func TestUDPZeroCopyRefcountLifecycle(t *testing.T) {
	eng, ua, _, na, _ := udpPair(nic.MellanoxCX6())
	val := na.alloc.Alloc(1024)
	msg := core.NewMessage(testSchema(), na.ctx)
	msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))
	if val.Refcount() != 2 { // app + CFPtr
		t.Fatalf("refcount = %d before send", val.Refcount())
	}
	if err := ua.SendObject(msg); err != nil {
		t.Fatal(err)
	}
	// NIC's in-flight reference is held until DMA completes.
	if val.Refcount() != 3 {
		t.Fatalf("refcount = %d during flight, want 3", val.Refcount())
	}
	// The application can release immediately after send — this is the
	// use-after-free guarantee: the buffer stays alive for the DMA.
	msg.Release()
	if val.Refcount() != 2 {
		t.Fatalf("refcount = %d after app release, want 2", val.Refcount())
	}
	eng.Run()
	if val.Refcount() != 1 {
		t.Errorf("refcount = %d after DMA completion, want 1 (app's own)", val.Refcount())
	}
}

func TestUDPFreeBeforeDMAKeepsDataIntact(t *testing.T) {
	eng, ua, ub, na, _ := udpPair(nic.MellanoxCX6())
	val := na.alloc.Alloc(600)
	for i := range val.Bytes() {
		val.Bytes()[i] = 0x5A
	}
	msg := core.NewMessage(testSchema(), na.ctx)
	msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))
	want := append([]byte(nil), val.Bytes()...)

	var gotPayload []byte
	ub.SetRecvHandler(func(p *mem.Buf) {
		gotPayload = append([]byte(nil), p.Bytes()...)
		p.DecRef()
	})
	ua.SendObject(msg)
	// App frees both its own handle and the message's references before the
	// DMA event fires. Allocating and scribbling over new buffers must not
	// corrupt the in-flight data, because the slot cannot be reused yet.
	msg.Release()
	val.DecRef()
	scribble := na.alloc.Alloc(600)
	for i := range scribble.Bytes() {
		scribble.Bytes()[i] = 0xFF
	}
	eng.Run()
	if gotPayload == nil {
		t.Fatal("nothing delivered")
	}
	if !bytes.Contains(gotPayload, want) {
		t.Error("in-flight data was corrupted after app free (use-after-free)")
	}
}

func TestUDPObjectTooLarge(t *testing.T) {
	_, ua, _, na, _ := udpPair(nic.MellanoxCX6())
	val := na.alloc.Alloc(10000)
	msg := core.NewMessage(testSchema(), na.ctx)
	msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))
	err := ua.SendObject(msg)
	if _, ok := err.(*ErrTooLarge); !ok {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestUDPSGLimitOverflow(t *testing.T) {
	// Intel E810: 8 entries max. An object with 10 zero-copy fields must
	// still arrive intact via the extension-buffer fallback.
	eng, ua, ub, na, nb := udpPair(nic.IntelE810())
	s := testSchema()
	msg := core.NewMessage(s, na.ctx)
	var want [][]byte
	for i := 0; i < 10; i++ {
		v := na.alloc.Alloc(600)
		for j := range v.Bytes() {
			v.Bytes()[j] = byte(i)
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
		t.Fatalf("SendObject on E810: %v", err)
	}
	eng.Run()
	if got == nil {
		t.Fatal("not delivered")
	}
	for i := range want {
		if !bytes.Equal(got.GetBytesElem(2, i), want[i]) {
			t.Errorf("val %d corrupted", i)
		}
	}
}

func TestUDPSendObjectViaSGArrayEquivalent(t *testing.T) {
	send := func(viaArray bool) []byte {
		eng, ua, ub, na, _ := udpPair(nic.MellanoxCX6())
		s := testSchema()
		val := na.alloc.Alloc(1024)
		for i := range val.Bytes() {
			val.Bytes()[i] = byte(i)
		}
		msg := core.NewMessage(s, na.ctx)
		msg.SetInt(0, 5)
		msg.AppendBytes(1, na.ctx.NewCFPtr([]byte("k")))
		msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))
		var got []byte
		ub.SetRecvHandler(func(p *mem.Buf) {
			got = append([]byte(nil), p.Bytes()...)
			p.DecRef()
		})
		var err error
		if viaArray {
			err = ua.SendObjectViaSGArray(msg)
		} else {
			err = ua.SendObject(msg)
		}
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return got
	}
	if !bytes.Equal(send(false), send(true)) {
		t.Error("SG-array path produced different wire bytes than serialize-and-send")
	}
}

func TestUDPSGArrayPathCostsMore(t *testing.T) {
	cost := func(viaArray bool) float64 {
		_, ua, _, na, _ := udpPair(nic.MellanoxCX6())
		val := na.alloc.Alloc(1024)
		msg := core.NewMessage(testSchema(), na.ctx)
		msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))
		na.meter.Drain()
		if viaArray {
			ua.SendObjectViaSGArray(msg)
		} else {
			ua.SendObject(msg)
		}
		return na.meter.Drain()
	}
	if cost(true) <= cost(false) {
		t.Errorf("SG-array path (%.0f cy) should cost more than serialize-and-send (%.0f cy)",
			cost(true), cost(false))
	}
}

func TestUDPBaselineSendPaths(t *testing.T) {
	eng, ua, ub, na, _ := udpPair(nic.MellanoxCX6())
	var got [][]byte
	ub.SetRecvHandler(func(p *mem.Buf) {
		got = append(got, append([]byte(nil), p.Bytes()...))
		p.DecRef()
	})
	payload := []byte("contiguous-payload")
	if err := ua.SendContiguous(payload, mem.UnpinnedSimAddr(payload)); err != nil {
		t.Fatal(err)
	}
	if err := ua.SendWith(32, func(dst []byte, sim uint64) int {
		return copy(dst, "filled-directly")
	}); err != nil {
		t.Fatal(err)
	}
	segs := [][]byte{[]byte("seg-one|"), []byte("seg-two")}
	if err := ua.SendSegments(segs, []uint64{0x1000, 0x2000}); err != nil {
		t.Fatal(err)
	}
	pinned := na.alloc.Alloc(64)
	copy(pinned.Bytes(), "pinned-zero-copy")
	if err := ua.SendPinned([]*mem.Buf{pinned}, true); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 4 {
		t.Fatalf("delivered %d payloads, want 4", len(got))
	}
	if string(got[0]) != "contiguous-payload" {
		t.Errorf("contiguous = %q", got[0])
	}
	if string(got[1]) != "filled-directly" {
		t.Errorf("sendwith = %q", got[1])
	}
	if string(got[2]) != "seg-one|seg-two" {
		t.Errorf("segments = %q", got[2])
	}
	if !bytes.HasPrefix(got[3], []byte("pinned-zero-copy")) {
		t.Errorf("pinned = %q", got[3])
	}
	if pinned.Refcount() != 1 {
		t.Errorf("pinned refcount = %d after completion", pinned.Refcount())
	}
}

func TestUDPSendPinnedRawVsSafeCost(t *testing.T) {
	cost := func(safe bool) float64 {
		_, ua, _, na, _ := udpPair(nic.MellanoxCX6())
		bufs := []*mem.Buf{na.alloc.Alloc(512), na.alloc.Alloc(512)}
		na.meter.Drain()
		ua.SendPinned(bufs, safe)
		return na.meter.Drain()
	}
	if cost(true) <= cost(false) {
		t.Error("safe scatter-gather should cost more than raw scatter-gather")
	}
}

// --- TCP ---

func tcpPair() (*sim.Engine, *TCPConn, *TCPConn, *node, *node, *nic.Port) {
	eng := sim.NewEngine()
	pa, pb := nic.Link(eng, nic.MellanoxCX6(), nic.MellanoxCX6(), sim.FromNanos(1000))
	na, nb := newNode(), newNode()
	ca := NewTCPConn(eng, pa, na.alloc, na.meter)
	cb := NewTCPConn(eng, pb, nb.alloc, nb.meter)
	return eng, ca, cb, na, nb, pa
}

func TestTCPInOrderDelivery(t *testing.T) {
	eng, ca, cb, na, _, _ := tcpPair()
	s := testSchema()
	var payloads [][]byte
	cb.SetRecvHandler(func(p *mem.Buf) {
		payloads = append(payloads, append([]byte(nil), p.Bytes()...))
		p.DecRef()
	})
	for i := 0; i < 5; i++ {
		msg := core.NewMessage(s, na.ctx)
		msg.SetInt(0, uint64(i))
		if err := ca.SendObject(msg); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(payloads) != 5 {
		t.Fatalf("delivered %d messages", len(payloads))
	}
	for i, p := range payloads {
		buf := newNode()
		b := buf.alloc.Alloc(len(p))
		copy(b.Bytes(), p)
		m, err := buf.ctx.Deserialize(s, b)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if m.GetInt(0) != uint64(i) {
			t.Errorf("msg %d has id %d (out of order?)", i, m.GetInt(0))
		}
	}
	if ca.Unacked() != 0 {
		t.Errorf("unacked = %d after full run", ca.Unacked())
	}
	if ca.Retransmits != 0 {
		t.Errorf("unexpected retransmits: %d", ca.Retransmits)
	}
}

func TestTCPRetransmitOnLoss(t *testing.T) {
	eng, ca, cb, na, _, pa := tcpPair()
	var delivered [][]byte
	cb.SetRecvHandler(func(p *mem.Buf) {
		delivered = append(delivered, append([]byte(nil), p.Bytes()...))
		p.DecRef()
	})
	// Drop the first data frame only.
	drops := 0
	pa.Interceptor = dropIf(func(data []byte) bool {
		if drops == 0 && len(data) > TCPHeaderLen {
			drops++
			return true
		}
		return false
	})
	val := na.alloc.Alloc(2048)
	for i := range val.Bytes() {
		val.Bytes()[i] = 0x3C
	}
	msg := core.NewMessage(testSchema(), na.ctx)
	msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))
	if err := ca.SendObject(msg); err != nil {
		t.Fatal(err)
	}
	// Application releases immediately; retransmission must still have the
	// data because the connection retains references until ACK.
	msg.Release()
	eng.Run()
	if ca.Retransmits == 0 {
		t.Fatal("no retransmission happened")
	}
	if len(delivered) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(delivered))
	}
	if !bytes.Contains(delivered[0], val.Bytes()) {
		t.Error("retransmitted payload corrupted")
	}
	if val.Refcount() != 1 {
		t.Errorf("refcount = %d after ack, want 1", val.Refcount())
	}
	if ca.Unacked() != 0 {
		t.Error("segment still unacked after retransmission round")
	}
}

func TestTCPRefsHeldUntilAck(t *testing.T) {
	eng, ca, cb, na, _, _ := tcpPair()
	cb.SetRecvHandler(func(p *mem.Buf) { p.DecRef() })
	val := na.alloc.Alloc(1024)
	msg := core.NewMessage(testSchema(), na.ctx)
	msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))
	ca.SendObject(msg)
	msg.Release()
	// Before any events: connection retention + NIC in-flight + app = 3.
	if val.Refcount() != 3 {
		t.Fatalf("refcount = %d right after send, want 3", val.Refcount())
	}
	eng.Run()
	// After ack: only the app's handle remains.
	if val.Refcount() != 1 {
		t.Errorf("refcount = %d after ack, want 1", val.Refcount())
	}
}

func TestTCPDuplicateDataReAcked(t *testing.T) {
	eng, ca, cb, na, _, pa := tcpPair()
	got := 0
	cb.SetRecvHandler(func(p *mem.Buf) { got++; p.DecRef() })
	// Drop the first ACK so the sender retransmits an already-delivered
	// segment; the receiver must not deliver it twice.
	ackDrops := 0
	pb := pa // sender side loss only affects data frames
	_ = pb
	cbPort := cb.Port
	cbPort.Interceptor = dropIf(func(data []byte) bool {
		if ackDrops == 0 && len(data) >= TCPHeaderLen && data[tcpOffFlags]&flagData == 0 {
			ackDrops++
			return true
		}
		return false
	})
	msg := core.NewMessage(testSchema(), na.ctx)
	msg.SetInt(0, 1)
	ca.SendObject(msg)
	eng.Run()
	if got != 1 {
		t.Errorf("delivered %d times, want exactly once", got)
	}
	if cb.DupAcks == 0 {
		t.Error("receiver never re-acked the duplicate")
	}
	if ca.Retransmits == 0 {
		t.Error("sender never retransmitted after lost ack")
	}
}

func TestTCPSendContiguous(t *testing.T) {
	eng, ca, cb, _, _, _ := tcpPair()
	var got []byte
	cb.SetRecvHandler(func(p *mem.Buf) {
		got = append([]byte(nil), p.Bytes()...)
		p.DecRef()
	})
	payload := bytes.Repeat([]byte("fb"), 512)
	if err := ca.SendContiguous(payload, mem.UnpinnedSimAddr(payload)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !bytes.Equal(got, payload) {
		t.Error("contiguous TCP payload corrupted")
	}
}

func TestTCPTooLarge(t *testing.T) {
	_, ca, _, na, _, _ := tcpPair()
	val := na.alloc.Alloc(9000)
	msg := core.NewMessage(testSchema(), na.ctx)
	msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))
	if _, ok := ca.SendObject(msg).(*ErrTooLarge); !ok {
		t.Error("oversized TCP object accepted")
	}
}

// TestReleaserModes pins the three completion behaviours of releaser: the
// zero value only drops the NIC's reference, a meter adds CompletionCy,
// and refcount also touches the buffer's refcount line.
func TestReleaserModes(t *testing.T) {
	for _, c := range []struct {
		name            string
		meter, refcount bool
		touches         uint64
	}{
		{"raw", false, false, 0},
		{"charged", true, false, 0},
		{"charged+refcount", true, true, 1},
	} {
		n := newNode()
		buf := n.alloc.Alloc(64)
		buf.IncRef() // the NIC's reference
		r := releaser{refcount: c.refcount}
		if c.meter {
			r.meter = n.meter
		}
		r.ReleaseSG(buf)
		if got := buf.Refcount(); got != 1 {
			t.Errorf("%s: refcount %d after release, want 1", c.name, got)
		}
		cy := n.meter.Drain()
		switch {
		case !c.meter && cy != 0:
			t.Errorf("%s: charged %v cycles, want 0", c.name, cy)
		case c.meter && !c.refcount && cy != n.meter.CPU.CompletionCy:
			t.Errorf("%s: charged %v cycles, want CompletionCy %v", c.name, cy, n.meter.CPU.CompletionCy)
		case c.refcount && cy <= n.meter.CPU.CompletionCy:
			t.Errorf("%s: charged %v cycles, want CompletionCy plus a refcount-line access", c.name, cy)
		}
		if n.meter.MetadataTouch != c.touches {
			t.Errorf("%s: %d metadata touches, want %d", c.name, n.meter.MetadataTouch, c.touches)
		}
	}
}
