package rpc

import (
	"testing"

	"cornflakes/internal/driver"
	"cornflakes/internal/mem"
	"cornflakes/internal/workloads"
)

// A hop sends on its library's own datapath, driver.System.Send, as a KV
// server replies. These tests pin what that buys a hop: the Cornflakes
// scatter-gather path for a large pinned field, and no cold copy of a
// buffer the hop has just written.

// leafChain builds a depth-1 chain of sys whose client drops every reply,
// so calls can be served one at a time.
func leafChain(sys driver.System) (*Chain, *Service) {
	c := NewChain(chainCfg(sys, 1, 0))
	c.Client.N.UDP.SetRecvHandler(func(p *mem.Buf) { p.DecRef() })
	return c, c.Services[0]
}

// sendCall sends the client's call with root id id to the frontend.
func sendCall(t *testing.T, c *Chain, id uint64) {
	t.Helper()
	frame := c.Client.BuildStep(id, workloads.Request{}, 0)
	if err := c.Client.N.UDP.SendContiguous(frame, mem.UnpinnedSimAddr(frame)); err != nil {
		t.Fatal(err)
	}
}

// serveCalls sends n calls with root ids from first on, each run to
// quiesce before the next is sent.
func serveCalls(t *testing.T, c *Chain, first, n uint64) {
	t.Helper()
	for id := first; id < first+n; id++ {
		sendCall(t, c, id)
		c.Eng.Run()
	}
}

// A Cornflakes leaf whose reply field is a 1,024 B pinned buffer posts the
// field as its own scatter-gather entry and copies no byte of the reply.
func TestHopReplyZeroCopy(t *testing.T) {
	c, leaf := leafChain(driver.SysCornflakes)
	leaf.respBuf = leaf.N.Alloc.Alloc(1024).Bytes()
	const calls = 50
	serveCalls(t, c, 1, calls)
	if leaf.RepliesSent != calls || leaf.Errors != 0 {
		t.Fatalf("replies %d, errors %d; want %d, 0", leaf.RepliesSent, leaf.Errors, calls)
	}
	if zc := leaf.N.UDP.TxZCEntries; zc != calls {
		t.Errorf("%d zero-copy entries posted over %d replies, want one per reply", zc, calls)
	}
	if b := leaf.N.Meter.BytesCopied; b != 0 {
		t.Errorf("%d bytes copied over %d replies, want 0", b, calls)
	}
}

// A warm leaf's send reads no buffer at an address the cache model has
// never seen, so a Cornflakes leaf serves calls without touching DRAM. The
// baselines' bound is the three lines their serializers' own output takes
// at a fresh address per call (a Protobuf marshal, a FlatBuffers or Cap'n
// Proto builder); copying a whole frame from a fresh address exceeds it.
func TestHopSendNoColdCopy(t *testing.T) {
	for _, tc := range []struct {
		sys     driver.System
		maxDRAM float64 // accesses per call
	}{
		{driver.SysCornflakes, 0},
		{driver.SysProtobuf, 3},
		{driver.SysFlatBuffers, 3},
		{driver.SysCapnProto, 3},
	} {
		t.Run(tc.sys.String(), func(t *testing.T) {
			c, leaf := leafChain(tc.sys)
			serveCalls(t, c, 1, 200)
			base := leaf.N.Cache.DRAMAccesses
			const calls = 1000
			serveCalls(t, c, 201, calls)
			if leaf.RepliesSent != 200+calls || leaf.Errors != 0 {
				t.Fatalf("replies %d, errors %d; want %d, 0", leaf.RepliesSent, leaf.Errors, 200+calls)
			}
			per := float64(leaf.N.Cache.DRAMAccesses-base) / calls
			t.Logf("%s: %.2f DRAM accesses per call", tc.sys, per)
			if per > tc.maxDRAM {
				t.Errorf("%.2f DRAM accesses per warm call, want at most %.0f", per, tc.maxDRAM)
			}
		})
	}
}
