package driver

import (
	"testing"

	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
	"cornflakes/internal/workloads"
)

// TestKVServeAllocFree pins a steady-state KV serve on a direct-link
// Testbed: once the pools are warm, one request built by the client, sent,
// parsed and served, and its reply sent and delivered, must not allocate,
// for a copied get, a zero-copy get of a 1,024-byte value and a put.
func TestKVServeAllocFree(t *testing.T) {
	small, big, put := []byte("key-small"), []byte("key-big"), []byte("key-put")
	putVal := make([]byte, 200)
	for _, tc := range []struct {
		name string
		req  workloads.Request
		// zc is whether the reply posts a zero-copy entry.
		zc bool
	}{
		{"copied-get", workloads.Request{Op: workloads.OpGet, Keys: [][]byte{small}}, false},
		{"zero-copy-get", workloads.Request{Op: workloads.OpGet, Keys: [][]byte{big}}, true},
		{"put", workloads.Request{Op: workloads.OpPut, Keys: [][]byte{put}, Vals: [][]byte{putVal}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := NewTestbed(nic.MellanoxCX6())
			srv := NewKVServer(tb.Server, SysCornflakes)
			srv.Preload([]workloads.KV{
				{Key: small, Vals: [][]byte{make([]byte, 64)}},
				{Key: big, Vals: [][]byte{make([]byte, 1024)}},
				{Key: put, Vals: [][]byte{make([]byte, 200)}},
			})
			cl := NewKVClient(tb.Client, SysCornflakes)
			replies := 0
			tb.Client.UDP.SetRecvHandler(func(p *mem.Buf) {
				replies++
				p.DecRef()
			})
			id := uint64(0)
			cycle := func() {
				id++
				p := cl.BuildStep(id, tc.req, 0)
				if err := tb.Client.UDP.SendContiguous(p, 0); err != nil {
					t.Fatal(err)
				}
				tb.Eng.Run()
			}
			for i := 0; i < 8; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Fatalf("KV %s allocated %.2f allocs per request (want 0)", tc.name, allocs)
			}
			if replies != 8+101 || srv.Errors != 0 {
				t.Fatalf("%d replies, %d errors; want %d, 0", replies, srv.Errors, 8+101)
			}
			if zc := tb.Server.UDP.TxZCEntries; (zc == 8+101) != tc.zc || (zc != 0) != tc.zc {
				t.Fatalf("%d zero-copy entries over %d replies (zero-copy reply: %v)", zc, 8+101, tc.zc)
			}
		})
	}
}
