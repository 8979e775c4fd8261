package driver

// Fuzz target for the KV request intake: arbitrary payload bytes delivered
// to a KV server on any of the four systems must never panic it, each
// delivery must be served, counted in Errors, or shed, and once the engine
// drains the server's pinned slots must be back at their baseline, apart
// from what a put stored. The seed corpus in
// testdata/fuzz/FuzzKVServerOnPayload holds one valid request per op and
// system, a truncated request and an unknown op byte. Run long with:
//
//	go test -fuzz FuzzKVServerOnPayload -fuzztime 30s ./internal/driver

import (
	"bytes"
	"testing"

	"cornflakes/internal/msgs"
	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/workloads"
)

// fuzzRecs is the store every fuzzed server starts with: a value below the
// zero-copy threshold, one above it, and a three-segment list.
var fuzzRecs = []workloads.KV{
	{Key: []byte("small"), Vals: [][]byte{[]byte("v")}},
	{Key: []byte("large"), Vals: [][]byte{bytes.Repeat([]byte{'L'}, 2048)}},
	{Key: []byte("list"), Vals: [][]byte{[]byte("a"), bytes.Repeat([]byte{'b'}, 1024), []byte("c")}},
}

func FuzzKVServerOnPayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// The UDP stack delivers 1 to JumboFrame−PacketHeaderLen bytes.
		if len(data) == 0 || len(data) > netstack.JumboFrame-netstack.PacketHeaderLen {
			t.Skip("no frame carries this payload")
		}
		for _, sys := range AllSystems() {
			tb := NewTestbed(nic.MellanoxCX6())
			srv := NewKVServer(tb.Server, sys)
			base := srv.N.Alloc.Stats().SlotsInUse
			srv.Preload(fuzzRecs)
			// The first delivery is served at once, the second waits in the
			// RX ring behind it, and the third finds it there and is shed at
			// admission.
			srv.ShedQueue = 1
			for i := 0; i < 3; i++ {
				p := srv.N.Alloc.Alloc(len(data))
				copy(p.Bytes(), data)
				srv.onPayload(p)
			}
			tb.Eng.Run()
			if srv.Handled != 2 || srv.Shed == 0 {
				t.Fatalf("%s: handled %d, shed %d; want 2 and at least 1", sys, srv.Handled, srv.Shed)
			}
			// Each delivery ends as a posted frame (a reply or a shed reply)
			// or as an error count.
			if out := srv.N.Port.TxFrames + srv.Errors + srv.ShedReplyErrs; out != 3 {
				t.Fatalf("%s: %d frames, %d errors, %d shed-reply errors for 3 deliveries",
					sys, srv.N.Port.TxFrames, srv.Errors, srv.ShedReplyErrs)
			}
			// Empty the store, including a key a put added, and every slot
			// the server took must be free again.
			for _, r := range fuzzRecs {
				srv.Store.Delete(r.Key)
			}
			if data[0] == OpBytePut {
				b := tb.Client.Alloc.Alloc(len(data))
				copy(b.Bytes(), data)
				if req, err := sys.Decode(tb.Client, msgs.PutReqSchema, b, 1); err == nil {
					srv.Store.Delete(req.Bytes(1))
					req.Release()
				}
			}
			if got := srv.N.Alloc.Stats().SlotsInUse; got != base {
				t.Fatalf("%s: %d pinned slots in use after quiesce, want %d", sys, got, base)
			}
		}
	})
}
