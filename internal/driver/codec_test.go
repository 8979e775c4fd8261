package driver

import (
	"bytes"
	"testing"

	"cornflakes/internal/core"
	"cornflakes/internal/msgs"
	"cornflakes/internal/nic"
)

// Every system builds, marshals and decodes every request schema through
// Msg: the getters read back what the setters wrote, and Release returns
// the receive buffer the decoded message took over.
func TestMsgRoundTripAllSystems(t *testing.T) {
	keys := [][]byte{[]byte("alpha"), []byte("bravo-key"), bytes.Repeat([]byte{7}, 700)}
	val := bytes.Repeat([]byte{0x5A}, 600)
	cases := []struct {
		name   string
		schema *core.Schema
		build  func(m Msg)
		check  func(t *testing.T, m Msg)
	}{
		{"GetReq", msgs.GetReqSchema,
			func(m Msg) {
				m.SetInt(0, 11)
				m.SetBytes(1, keys[0], 0)
			},
			func(t *testing.T, m Msg) {
				if m.Int(0) != 11 || !bytes.Equal(m.Bytes(1), keys[0]) {
					t.Errorf("id=%d key=%q", m.Int(0), m.Bytes(1))
				}
			}},
		{"GetM", msgs.GetMSchema,
			func(m Msg) {
				m.SetInt(0, 12)
				for _, k := range keys {
					m.AddBytes(1, k, 0)
				}
			},
			func(t *testing.T, m Msg) {
				if m.Int(0) != 12 || m.Len(1) != len(keys) || m.Len(2) != 0 {
					t.Fatalf("id=%d keys=%d vals=%d", m.Int(0), m.Len(1), m.Len(2))
				}
				for j, k := range keys {
					if got, _ := m.Elem(1, j); !bytes.Equal(got, k) {
						t.Errorf("key %d = %q, want %q", j, got, k)
					}
				}
			}},
		{"GetListReq", msgs.GetListReqSchema,
			func(m Msg) {
				m.SetInt(0, 13)
				m.SetBytes(1, keys[1], 0)
				m.SetInt(2, 4)
			},
			func(t *testing.T, m Msg) {
				if m.Int(0) != 13 || !bytes.Equal(m.Bytes(1), keys[1]) || m.Int(2) != 4 {
					t.Errorf("id=%d key=%q index=%d", m.Int(0), m.Bytes(1), m.Int(2))
				}
			}},
		{"PutReq", msgs.PutReqSchema,
			func(m Msg) {
				m.SetInt(0, 14)
				m.SetBytes(1, keys[2], 0)
				m.SetBytes(2, val, 0)
			},
			func(t *testing.T, m Msg) {
				if m.Int(0) != 14 || !bytes.Equal(m.Bytes(1), keys[2]) || !bytes.Equal(m.Bytes(2), val) {
					t.Errorf("id=%d key %d bytes, val %d bytes", m.Int(0), len(m.Bytes(1)), len(m.Bytes(2)))
				}
			}},
	}
	for _, sys := range AllSystems() {
		for _, tc := range cases {
			t.Run(sys.String()+"/"+tc.name, func(t *testing.T) {
				n := NewTestbed(nic.MellanoxCX6()).Server
				m := sys.NewMsg(n, tc.schema)
				tc.build(m)
				out := sys.Marshal(m)
				m.Release()

				// Decode past a leading op byte, as the KV server does.
				inUse := n.Alloc.Stats().SlotsInUse
				buf := n.Alloc.Alloc(1 + len(out))
				buf.Bytes()[0] = OpBytePut
				copy(buf.Bytes()[1:], out)
				got, err := sys.Decode(n, tc.schema, buf, 1)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				tc.check(t, got)
				got.Release()
				if s := n.Alloc.Stats().SlotsInUse; s != inUse {
					t.Errorf("%d pinned slots in use after Release, want %d", s, inUse)
				}
			})
		}
	}
}
