// tcploss: the memory-safety story end to end. A client sends
// cfc-generated GetM objects over the TCP-lite stack while the wire drops
// frames; the application frees its buffers immediately after send_object,
// yet retransmissions deliver intact data because refcounts hold the pinned
// buffers until cumulative acknowledgement — the use-after-free guarantee
// of §3, extended across retransmission.
//
// Run with:
//
//	go run ./examples/tcploss
package main

import (
	"bytes"
	"fmt"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
	"cornflakes/internal/msgs"
	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

func main() {
	eng := sim.NewEngine()
	pa, pb := nic.Link(eng, nic.MellanoxCX6(), nic.MellanoxCX6(), 1500*sim.Nanosecond)

	newNode := func(port *nic.Port) (*core.Ctx, *netstack.TCPConn) {
		alloc := mem.NewAllocator()
		meter := costmodel.NewMeter(costmodel.DefaultCPU(), cachesim.New(cachesim.DefaultConfig()))
		ctx := core.NewCtx(alloc, mem.NewArena(64<<10), meter)
		return ctx, netstack.NewTCPConn(eng, port, alloc, meter)
	}
	sctx, sTCP := newNode(pa)
	rctx, rTCP := newNode(pb)

	// Drop every third data frame: an interceptor that returns no
	// deliveries loses the frame on the wire.
	n := 0
	pa.Interceptor = func(data []byte) []nic.Delivery {
		if len(data) > netstack.TCPHeaderLen {
			n++
			if n%3 == 0 {
				return nil
			}
		}
		return []nic.Delivery{{Data: data}}
	}

	const messages = 10
	received := 0
	rTCP.SetRecvHandler(func(p *mem.Buf) {
		m, err := msgs.DeserializeGetM(rctx, p)
		if err != nil {
			panic(err)
		}
		want := bytes.Repeat([]byte{byte(m.Id())}, 2048)
		if !bytes.Equal(m.Vals(0), want) {
			panic(fmt.Sprintf("message %d corrupted after retransmission!", m.Id()))
		}
		received++
		m.Release()
	})

	for i := 0; i < messages; i++ {
		// Value in pinned memory, as a KV store would hold it.
		val := sctx.Alloc.Alloc(2048)
		for j := range val.Bytes() {
			val.Bytes()[j] = byte(i)
		}
		m := msgs.NewGetM(sctx)
		m.SetId(uint64(i))
		m.AppendVals(sctx.NewCFPtr(val.Bytes()))
		if err := sTCP.SendObject(m.Obj()); err != nil {
			panic(err)
		}
		// Free everything immediately — the TCP stack's references keep
		// the data alive until it is acknowledged.
		m.Release()
		val.DecRef()
		sctx.Arena.Reset()
	}

	eng.Run()

	fmt.Printf("sent %d messages, received %d intact\n", messages, received)
	fmt.Printf("frames dropped by the wire: %d, TCP retransmissions: %d\n",
		pa.DroppedFrames, sTCP.Retransmits)
	fmt.Printf("pinned slots still allocated on sender: %d (all reclaimed)\n",
		sctx.Alloc.Stats().SlotsInUse)
	if received != messages || sctx.Alloc.Stats().SlotsInUse != 0 {
		panic("safety property violated")
	}
	fmt.Println("use-after-free protection held across loss and retransmission ✓")
}
