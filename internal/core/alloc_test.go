package core

import "testing"

// TestMessagePoolAllocFree pins the per-request Message recycling added for
// the serialization hot loop: once a schema's pool is warm, build→release
// on the send side and deserialize→release on the receive side must not
// allocate. These are the two Message lifecycles every simulated request
// crosses (request decode on the server, response build on the server).
func TestMessagePoolAllocFree(t *testing.T) {
	c := newTestCtx()
	s := kvSchema()

	t.Run("send", func(t *testing.T) {
		cycle := func() {
			m := NewMessage(s, c)
			m.SetInt(0, 7)
			m.AppendBytes(1, c.NewCFPtrCopy([]byte("key-bytes")))
			m.Release()
		}
		for i := 0; i < 8; i++ {
			cycle()
			c.Arena.Reset()
		}
		allocs := testing.AllocsPerRun(100, func() {
			cycle()
			c.Arena.Reset()
		})
		if allocs != 0 {
			t.Fatalf("send-side message cycle allocated %.2f allocs (want 0)", allocs)
		}
	})

	t.Run("recv", func(t *testing.T) {
		m := NewMessage(s, c)
		m.SetInt(0, 7)
		m.AppendBytes(1, c.NewCFPtrCopy([]byte("key-bytes")))
		data := Marshal(m)
		m.Release()
		buf := c.Alloc.Alloc(len(data))
		copy(buf.Bytes(), data)
		cycle := func() {
			// Deserialize takes over the view it is given; keep ours.
			got, err := c.Deserialize(s, buf.Clone())
			if err != nil {
				t.Fatal(err)
			}
			got.Release()
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		allocs := testing.AllocsPerRun(100, cycle)
		if allocs != 0 {
			t.Fatalf("recv-side message cycle allocated %.2f allocs (want 0)", allocs)
		}
		buf.DecRef()
	})
}
