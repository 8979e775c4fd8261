package netstack

import (
	"bytes"
	"testing"

	"cornflakes/internal/core"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
)

func TestSegmentedSmallObjectSingleFragment(t *testing.T) {
	eng, ua, ub, na, nb := udpPair(nic.MellanoxCX6())
	sa, sb := NewSegmenter(ua), NewSegmenter(ub)
	s := testSchema()
	msg := core.NewMessage(s, na.ctx)
	msg.SetInt(0, 5)
	msg.AppendBytes(2, na.ctx.NewCFPtr(bytes.Repeat([]byte{1}, 1000)))

	var got *core.Message
	sb.SetRecvHandler(func(p *mem.Buf) {
		m, err := nb.ctx.Deserialize(s, p)
		if err != nil {
			t.Errorf("deserialize: %v", err)
			p.DecRef()
			return
		}
		got = m
	})
	if err := sa.SendObject(msg); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got == nil || got.GetInt(0) != 5 {
		t.Fatal("small object not delivered via single fragment")
	}
	if sa.TxFragments != 1 || sb.Reassembled != 1 {
		t.Errorf("fragments=%d reassembled=%d, want 1/1", sa.TxFragments, sb.Reassembled)
	}
}

func TestSegmentedLargeObjectZeroCopy(t *testing.T) {
	eng, ua, ub, na, nb := udpPair(nic.MellanoxCX6())
	sa, sb := NewSegmenter(ua), NewSegmenter(ub)
	s := testSchema()

	// A 64 KB pinned value: far beyond one jumbo frame.
	const valSize = 64 << 10
	val := na.alloc.Alloc(valSize)
	for i := range val.Bytes() {
		val.Bytes()[i] = byte(i * 7)
	}
	msg := core.NewMessage(s, na.ctx)
	msg.SetInt(0, 99)
	msg.AppendBytes(1, na.ctx.NewCFPtr([]byte("big-object-key")))
	msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))

	copiedBefore := na.meter.BytesCopied
	var got *core.Message
	sb.SetRecvHandler(func(p *mem.Buf) {
		m, err := nb.ctx.Deserialize(s, p)
		if err != nil {
			t.Errorf("deserialize: %v", err)
			p.DecRef()
			return
		}
		got = m
	})
	if err := sa.SendObject(msg); err != nil {
		t.Fatal(err)
	}
	msg.Release() // immediate free: fragments hold their own references
	eng.Run()

	if got == nil {
		t.Fatal("large object not reassembled")
	}
	if got.GetInt(0) != 99 || string(got.GetBytesElem(1, 0)) != "big-object-key" {
		t.Error("header fields corrupted")
	}
	if !bytes.Equal(got.GetBytesElem(2, 0), val.Bytes()) {
		t.Fatal("64KB value corrupted across fragments")
	}
	if sa.TxFragments < 7 {
		t.Errorf("TxFragments = %d, want >= 7 for 64KB", sa.TxFragments)
	}
	// Zero-copy property: the sender CPU never copied the 64 KB value —
	// only the small key went through the arena.
	if copied := na.meter.BytesCopied - copiedBefore; copied > 2048 {
		t.Errorf("sender copied %d bytes; the large value should cross with no CPU copies", copied)
	}
	if val.Refcount() != 1 {
		t.Errorf("value refcount = %d after completion, want 1", val.Refcount())
	}
	got.Release()
	if nb.alloc.Stats().SlotsInUse != 0 {
		t.Error("receiver leaked the reassembly buffer")
	}
}

func TestSegmentedLossDiscardsMessage(t *testing.T) {
	eng, ua, ub, na, nb := udpPair(nic.MellanoxCX6())
	sa, sb := NewSegmenter(ua), NewSegmenter(ub)
	_ = nb
	s := testSchema()

	// Drop exactly one data fragment.
	dropped := false
	ua.Port.Interceptor = dropIf(func(data []byte) bool {
		if !dropped && len(data) > PacketHeaderLen+FragHeaderLen+1000 {
			dropped = true
			return true
		}
		return false
	})
	val := na.alloc.Alloc(32 << 10)
	msg := core.NewMessage(s, na.ctx)
	msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))
	delivered := 0
	sb.SetRecvHandler(func(p *mem.Buf) { delivered++; p.DecRef() })
	if err := sa.SendObject(msg); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !dropped {
		t.Fatal("loss injection never fired")
	}
	if delivered != 0 {
		t.Error("incomplete message delivered")
	}
	if sb.Reassembled != 0 {
		t.Error("reassembled despite loss")
	}
}

func TestSegmenterEviction(t *testing.T) {
	eng, ua, ub, na, nb := udpPair(nic.MellanoxCX6())
	sa, sb := NewSegmenter(ua), NewSegmenter(ub)
	sb.MaxInflight = 2
	s := testSchema()

	// Drop the LAST fragment of every message: reassemblies pile up.
	ua.Port.Interceptor = dropIf(func(data []byte) bool {
		// Fragment index is in the payload; drop small (final, partial)
		// fragments heuristically by size.
		return len(data) < PacketHeaderLen+FragHeaderLen+8000 && len(data) > PacketHeaderLen+FragHeaderLen
	})
	for i := 0; i < 5; i++ {
		val := na.alloc.Alloc(20 << 10)
		msg := core.NewMessage(s, na.ctx)
		msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))
		if err := sa.SendObject(msg); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if sb.Evicted == 0 {
		t.Error("no evictions despite MaxInflight=2 and 5 stuck reassemblies")
	}
	if len(sb.inflight) > sb.MaxInflight {
		t.Errorf("inflight = %d exceeds bound %d", len(sb.inflight), sb.MaxInflight)
	}
	_ = nb
}

func TestSegmentedManySizesRoundTrip(t *testing.T) {
	s := testSchema()
	for _, size := range []int{100, 8000, 8943, 9000, 17000, 40000, 200_000} {
		eng, ua, ub, na, nb := udpPair(nic.MellanoxCX6())
		sa, sb := NewSegmenter(ua), NewSegmenter(ub)
		val := na.alloc.Alloc(size)
		for i := 0; i < size; i += 251 {
			val.Bytes()[i] = byte(i)
		}
		msg := core.NewMessage(s, na.ctx)
		msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))
		var got *core.Message
		sb.SetRecvHandler(func(p *mem.Buf) {
			m, err := nb.ctx.Deserialize(s, p)
			if err != nil {
				t.Errorf("size %d: %v", size, err)
				p.DecRef()
				return
			}
			got = m
		})
		if err := sa.SendObject(msg); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		eng.Run()
		if got == nil {
			t.Fatalf("size %d: not delivered", size)
		}
		if !bytes.Equal(got.GetBytesElem(2, 0), val.Bytes()) {
			t.Fatalf("size %d: corrupted", size)
		}
	}
}
