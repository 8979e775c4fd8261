package netstack

// Fuzz target for the UDP RX path: arbitrary wire bytes must never panic
// the stack, runt frames must be dropped before the handler, and no code
// path may leak a pinned buffer reference. Run long with:
//
//	go test -fuzz FuzzUDPOnFrame -fuzztime 30s ./internal/netstack

import (
	"bytes"
	"testing"

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
