package netstack

// Fuzz target for the UDP RX path: arbitrary wire bytes must never panic
// the stack, runt frames must be dropped before the handler, and no code
// path may leak a pinned buffer reference. Run long with:
//
//	go test -fuzz FuzzUDPOnFrame -fuzztime 30s ./internal/netstack

import (
	"bytes"
	"testing"

	"cornflakes/internal/core"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

func FuzzUDPOnFrame(f *testing.F) {
	f.Add([]byte{})                               // empty frame
	f.Add([]byte{0x42})                           // single byte
	f.Add(make([]byte, PacketHeaderLen-1))        // one short of the header
	f.Add(make([]byte, PacketHeaderLen))          // exactly the header: still runt
	f.Add(make([]byte, PacketHeaderLen+1))        // minimal deliverable frame
	f.Add(bytes.Repeat([]byte{0xEE}, JumboFrame)) // jumbo shed-marker bytes
	f.Add(append(make([]byte, PacketHeaderLen), 'x', 'y', 'z'))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, batched := range []bool{false, true} {
			eng := sim.NewEngine()
			pa, _ := nic.Link(eng, nic.MellanoxCX6(), nic.MellanoxCX6(), 0)
			n := newNode()
			u := NewUDP(eng, pa, n.alloc, n.meter)
			u.RxBatched = batched
			var got []byte
			delivered := 0
			u.SetRecvHandler(func(p *mem.Buf) {
				delivered++
				got = append([]byte(nil), p.Bytes()...)
				p.DecRef()
			})
			u.onFrame(&nic.Frame{Data: data})
			if len(data) <= PacketHeaderLen {
				if delivered != 0 {
					t.Fatalf("runt %d-byte frame delivered", len(data))
				}
			} else {
				if delivered != 1 {
					t.Fatalf("%d-byte frame not delivered", len(data))
				}
				if !bytes.Equal(got, data[PacketHeaderLen:]) {
					t.Fatalf("payload corrupted: got %d bytes, want %d", len(got), len(data)-PacketHeaderLen)
				}
			}
			if st := n.alloc.Stats(); st.SlotsInUse != 0 {
				t.Fatalf("slots in use = %d after frame (leak)", st.SlotsInUse)
			}
		}
	})
}

// FuzzUDPOnFrameNoMem drives the same path with a zero-capacity pool so the
// rx-nomem branch is exercised: drops must be counted, reported through
// OnDrop, and leak-free.
func FuzzUDPOnFrameNoMem(f *testing.F) {
	f.Add(make([]byte, PacketHeaderLen+100))
	f.Add(make([]byte, JumboFrame))
	f.Fuzz(func(t *testing.T, data []byte) {
		eng := sim.NewEngine()
		pa, _ := nic.Link(eng, nic.MellanoxCX6(), nic.MellanoxCX6(), 0)
		n := newNode()
		n.alloc.SetCap(1)                // a single slot…
		hold, err := n.alloc.TryAlloc(1) // …held here, so the RX alloc must fail
		if err != nil {
			t.Fatal(err)
		}
		defer hold.DecRef()
		u := NewUDP(eng, pa, n.alloc, n.meter)
		dropped := ""
		u.OnDrop = func(_ []byte, reason string) { dropped = reason }
		delivered := 0
		u.SetRecvHandler(func(p *mem.Buf) { delivered++; p.DecRef() })
		u.onFrame(&nic.Frame{Data: data})
		if len(data) > PacketHeaderLen {
			if delivered != 0 {
				t.Fatal("frame delivered despite exhausted pool")
			}
			if u.RxNoMem != 1 || dropped != "rx-nomem" {
				t.Fatalf("RxNoMem=%d reason=%q, want 1/rx-nomem", u.RxNoMem, dropped)
			}
		} else if delivered != 0 {
			t.Fatal("runt delivered")
		}
	})
}

// FuzzTCPOnFrame drives the TCP-lite RX path with arbitrary frames while
// two segments are in flight, one of them retaining a zero-copy buffer, so
// forged sequence numbers, acks and flags reach both in-order delivery and
// ack processing. No frame may panic the connection, and once the engine
// drains every pinned slot on both ends must be back at its baseline. The
// seed corpus in testdata/fuzz/FuzzTCPOnFrame holds runts, pure and
// wrapped acks, and in-order, out-of-order and empty data segments.
func FuzzTCPOnFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, ca, cb, na, nb, _ := tcpPair()
		baseA, baseB := na.alloc.Stats().SlotsInUse, nb.alloc.Stats().SlotsInUse
		ca.SetRecvHandler(func(p *mem.Buf) { p.DecRef() })
		cb.SetRecvHandler(func(p *mem.Buf) { p.DecRef() })
		val := na.alloc.Alloc(1024)
		msg := core.NewMessage(testSchema(), na.ctx)
		msg.SetInt(0, 1)
		msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))
		if err := ca.SendObject(msg); err != nil {
			t.Fatal(err)
		}
		msg.Release()
		val.DecRef()
		second := []byte("second segment")
		if err := ca.SendContiguous(second, mem.UnpinnedSimAddr(second)); err != nil {
			t.Fatal(err)
		}
		ca.onFrame(&nic.Frame{Data: data})
		eng.Run()
		if n := ca.Unacked(); n != 0 {
			t.Fatalf("%d segments unacked after quiesce", n)
		}
		if a, b := na.alloc.Stats().SlotsInUse, nb.alloc.Stats().SlotsInUse; a != baseA || b != baseB {
			t.Fatalf("pinned slots in use after quiesce: %d and %d, want %d and %d", a, b, baseA, baseB)
		}
	})
}
