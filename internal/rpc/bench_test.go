package rpc

import (
	"testing"

	"cornflakes/internal/driver"
	"cornflakes/internal/mem"
)

// BenchmarkHopReply is an RPC hop's micro-benchmark: one leaf reply
// (emitReply: a 128-byte GetResp behind a KindReply header, sent through
// System.Send) run to delivery at the client, on each system.
func BenchmarkHopReply(b *testing.B) {
	for _, sys := range driver.AllSystems() {
		b.Run(sys.String(), func(b *testing.B) {
			c := NewChain(chainCfg(sys, 1, 0))
			got := 0
			c.Client.N.UDP.SetRecvHandler(func(p *mem.Buf) { got++; p.DecRef() })
			leaf := c.Services[0]
			h := Header{Kind: KindCall, CallID: 1, RootID: 1}
			src := c.Client.N.UDP.LocalAddr
			b.ReportAllocs()
			n := 0
			for b.Loop() {
				leaf.emitReply(h, src)
				c.Eng.Run()
				n++
			}
			if leaf.Errors != 0 || got != n {
				b.Fatalf("%d errors, %d of %d replies delivered", leaf.Errors, got, n)
			}
		})
	}
}
