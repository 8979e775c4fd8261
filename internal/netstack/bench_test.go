package netstack

import (
	"testing"

	"cornflakes/internal/core"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
)

// BenchmarkUDPSendObject is the UDP layer's micro-benchmark: one combined
// serialize-and-send cycle (§3.2.3) on the setup TestSendObjectAllocFree
// pins — build a three-field message, SendObject it, release it and run
// the frame to delivery. "copy" copies a 96 B value into the first DMA
// buffer; "zerocopy" posts a 2 KiB pinned value as its own scatter-gather
// entry, above the default zero-copy threshold.
func BenchmarkUDPSendObject(b *testing.B) {
	s := &core.Schema{Name: "PutReq", Fields: []core.Field{
		{Name: "id", Kind: core.KindInt},
		{Name: "key", Kind: core.KindBytes},
		{Name: "val", Kind: core.KindBytes},
	}}
	key := []byte("key-bytes")
	for _, tc := range []struct {
		name   string
		valLen int
		zc     bool
	}{{"copy", 96, false}, {"zerocopy", 2048, true}} {
		b.Run(tc.name, func(b *testing.B) {
			eng, ua, ub, na, _ := udpPair(nic.MellanoxCX6())
			ub.SetRecvHandler(func(p *mem.Buf) { p.DecRef() })
			val := na.alloc.Alloc(tc.valLen)
			cycle := func() {
				m := core.NewMessage(s, na.ctx)
				m.SetInt(0, 7)
				m.SetBytes(1, na.ctx.NewCFPtrCopy(key))
				if tc.zc {
					m.SetBytes(2, na.ctx.NewCFPtr(val.Bytes()))
				} else {
					m.SetBytes(2, na.ctx.NewCFPtrCopy(val.Bytes()))
				}
				if err := ua.SendObject(m); err != nil {
					b.Fatal(err)
				}
				m.Release()
				na.arena.Reset()
				eng.Run()
			}
			for i := 0; i < 8; i++ {
				cycle()
			}
			b.ReportAllocs()
			for b.Loop() {
				cycle()
			}
			if posted := ua.TxZCEntries > 0; posted != tc.zc {
				b.Fatalf("%s: %d zero-copy entries posted", tc.name, ua.TxZCEntries)
			}
		})
	}
}

// BenchmarkTCPSendAck is TCP-lite's micro-benchmark: one 256-byte segment
// sent with SendContiguous, delivered to the peer, acknowledged, and
// released when the ack arrives.
func BenchmarkTCPSendAck(b *testing.B) {
	eng, ca, cb, _, _, _ := tcpPair()
	cb.SetRecvHandler(func(p *mem.Buf) { p.DecRef() })
	payload := make([]byte, 256)
	addr := mem.UnpinnedSimAddr(payload)
	b.ReportAllocs()
	for b.Loop() {
		if err := ca.SendContiguous(payload, addr); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
	if ca.Unacked() != 0 || ca.Retransmits != 0 {
		b.Fatalf("%d segments unacked, %d retransmits", ca.Unacked(), ca.Retransmits)
	}
}
