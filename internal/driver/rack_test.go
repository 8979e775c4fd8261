package driver

import (
	"testing"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/nic"
)

// TestTestbedIsTwoNodeRack pins the direct-link topology: the client and
// server are the rack's only nodes, the switch stays empty, the two ports
// are the ends of one link, and the frame ledger (which covers switched
// nodes only) reads zero instead of panicking.
func TestTestbedIsTwoNodeRack(t *testing.T) {
	for _, tc := range []struct {
		name string
		tb   *Testbed
	}{
		{"udp", NewTestbed(nic.MellanoxCX6())},
		{"tcp", NewTCPTestbed(nic.MellanoxCX6())},
	} {
		tb := tc.tb
		if len(tb.Nodes) != 2 || tb.Nodes[0] != tb.Client || tb.Nodes[1] != tb.Server {
			t.Errorf("%s: Nodes = %v, want [Client Server]", tc.name, tb.Nodes)
		}
		if len(tb.Addrs) != 0 || len(tb.Switch.Ports()) != 0 {
			t.Errorf("%s: Addrs = %v, switch ports = %v, want both empty",
				tc.name, tb.Addrs, tb.Switch.Ports())
		}
		if tb.Client.Port.Peer() != tb.Server.Port || tb.Server.Port.Peer() != tb.Client.Port {
			t.Errorf("%s: client and server ports are not the two ends of one link", tc.name)
		}
		if l := tb.Ledger(); l != (FrameLedger{}) {
			t.Errorf("%s: Ledger() = %+v, want the zero ledger", tc.name, l)
		}
	}
}

// TestRackCoresShareL3 checks the sibling-core builder: the node itself
// leads, the siblings sit on its port with allocators of their own and
// join Nodes, and their private L1/L2 sit over the node's L3.
func TestRackCoresShareL3(t *testing.T) {
	tb := NewTestbed(nic.MellanoxCX6())
	cores := tb.Cores(tb.Server, 3)
	if len(cores) != 3 || cores[0] != tb.Server {
		t.Fatalf("Cores returned %d nodes led by %p, want 3 led by the server %p",
			len(cores), cores[0], tb.Server)
	}
	if len(tb.Nodes) != 4 || tb.Nodes[2] != cores[1] || tb.Nodes[3] != cores[2] {
		t.Errorf("siblings not appended to Nodes: %v", tb.Nodes)
	}
	if cores[1].Port != tb.Server.Port || cores[2].Port != tb.Server.Port {
		t.Error("siblings are not on the server's port")
	}
	if c0, c1, c2 := cores[0].Alloc, cores[1].Alloc, cores[2].Alloc; c0 == c1 || c0 == c2 || c1 == c2 {
		t.Error("cores share an allocator")
	}

	b := cores[0].Alloc.Alloc(64)
	cores[0].Cache.Access(b.SimAddr())
	if lvl, _ := cores[1].Cache.Access(b.SimAddr()); lvl != cachesim.HitL3 {
		t.Errorf("core 1's first touch of core 0's line hit %v, want L3", lvl)
	}
	if lvl, _ := cores[1].Cache.Access(b.SimAddr()); lvl != cachesim.HitL1 {
		t.Errorf("core 1's second touch hit %v, want L1", lvl)
	}
}
