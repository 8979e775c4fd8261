package rpc

// Fuzz target for the RPC frame intake: arbitrary payload bytes delivered
// to any tier of a call graph must never panic a service, leak a pinned
// buffer, or leave a child ledger inexact once the engine quiesces. The
// seed corpus in testdata/fuzz/FuzzServiceOnPayload holds a valid
// Cornflakes call, a valid reply, a shed frame and a truncated header.
// Run long with:
//
//	go test -fuzz FuzzServiceOnPayload -fuzztime 30s ./internal/rpc

import (
	"testing"

	"cornflakes/internal/driver"
	"cornflakes/internal/netstack"
	"cornflakes/internal/sim"
)

func FuzzServiceOnPayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// The UDP stack delivers 1 to JumboFrame−PacketHeaderLen bytes.
		if len(data) == 0 || len(data) > netstack.JumboFrame-netstack.PacketHeaderLen {
			t.Skip("no frame carries this payload")
		}
		for _, sys := range driver.AllSystems() {
			cfg := chainCfg(sys, 2, 1)
			// A fan-in deadline resolves children whose replies never come
			// back, so the ledger closes at quiesce.
			cfg.CallTimeout = 250 * sim.Microsecond
			c := NewChain(cfg)
			base := make([]int64, len(c.Services))
			for i, s := range c.Services {
				base[i] = s.N.Alloc.Stats().SlotsInUse
			}
			for _, s := range c.Services {
				p := s.N.Alloc.Alloc(len(data))
				copy(p.Bytes(), data)
				s.onPayload(p)
			}
			c.Eng.Run()
			for i, s := range c.Services {
				if got := s.N.Alloc.Stats().SlotsInUse; got != base[i] {
					t.Fatalf("%s, %s: %d pinned slots in use after quiesce, want %d", sys, s.Name, got, base[i])
				}
			}
			if !c.ChildLedgersExact() {
				for _, s := range c.Services {
					t.Logf("%s: calls=%d replies=%d sheds=%d abandoned=%d late=%d pending=%d", s.Name,
						s.ChildCalls, s.ChildReplies, s.ChildSheds, s.ChildAbandoned, s.LateChildReplies, s.PendingChildren())
				}
				t.Fatalf("%s: child ledger inexact after quiesce", sys)
			}
		}
	})
}
