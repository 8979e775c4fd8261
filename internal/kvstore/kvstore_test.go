package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
)

func newStore() *Store {
	alloc := mem.NewAllocator()
	meter := costmodel.NewMeter(costmodel.DefaultCPU(), cachesim.New(cachesim.DefaultConfig()))
	return New(alloc, meter)
}

func TestPutGet(t *testing.T) {
	s := newStore()
	s.Put([]byte("k1"), []byte("value-one"))
	v := s.Get([]byte("k1"))
	if v == nil || string(v.Bytes()) != "value-one" {
		t.Fatalf("Get = %v", v)
	}
	if s.Get([]byte("nope")) != nil {
		t.Error("missing key returned a value")
	}
	if s.Misses != 1 || s.Gets != 2 || s.Puts != 1 {
		t.Errorf("stats: %+v gets=%d puts=%d misses=%d", s, s.Gets, s.Puts, s.Misses)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestPutList(t *testing.T) {
	s := newStore()
	s.Put([]byte("list"), []byte("a"), []byte("bb"), []byte("ccc"))
	vals := s.GetList([]byte("list"))
	if len(vals) != 3 {
		t.Fatalf("list len %d", len(vals))
	}
	for i, want := range []string{"a", "bb", "ccc"} {
		if string(vals[i].Bytes()) != want {
			t.Errorf("elem %d = %q", i, vals[i].Bytes())
		}
	}
	if v := s.GetIndex([]byte("list"), 2); v == nil || string(v.Bytes()) != "ccc" {
		t.Error("GetIndex wrong")
	}
	if s.GetIndex([]byte("list"), 5) != nil {
		t.Error("out-of-range index returned value")
	}
	if s.GetIndex([]byte("list"), -1) != nil {
		t.Error("negative index returned value")
	}
}

func TestValuesArePinned(t *testing.T) {
	s := newStore()
	s.Put([]byte("k"), bytes.Repeat([]byte{7}, 1024))
	v := s.Get([]byte("k"))
	if !s.Alloc.IsPinned(v.Bytes()) {
		t.Error("stored value is not in DMA-safe memory")
	}
}

func TestPutReplacePointerSwap(t *testing.T) {
	s := newStore()
	s.Put([]byte("k"), []byte("old-value"))
	// Simulate an in-flight send holding a view of its own.
	old := s.Get([]byte("k")).Clone()
	s.Put([]byte("k"), []byte("new-value"))
	// The store dropped its reference, but the in-flight one keeps the old
	// data intact (no in-place update).
	if string(old.Bytes()) != "old-value" {
		t.Error("old value mutated by put (in-place update)")
	}
	if string(s.Get([]byte("k")).Bytes()) != "new-value" {
		t.Error("new value not visible")
	}
	old.DecRef()
	if s.Alloc.Stats().SlotsInUse != 1 {
		t.Errorf("slots in use = %d, want 1 (old slot freed after last ref)", s.Alloc.Stats().SlotsInUse)
	}
}

func TestValueBytesAccounting(t *testing.T) {
	s := newStore()
	s.Put([]byte("a"), make([]byte, 100))
	s.Put([]byte("b"), make([]byte, 50), make([]byte, 25))
	if s.ValueBytes != 175 {
		t.Errorf("ValueBytes = %d", s.ValueBytes)
	}
	s.Put([]byte("a"), make([]byte, 10))
	if s.ValueBytes != 85 {
		t.Errorf("ValueBytes after replace = %d", s.ValueBytes)
	}
	s.Delete([]byte("b"))
	if s.ValueBytes != 10 {
		t.Errorf("ValueBytes after delete = %d", s.ValueBytes)
	}
}

func TestDelete(t *testing.T) {
	s := newStore()
	s.Put([]byte("k"), []byte("v"))
	if !s.Delete([]byte("k")) {
		t.Error("delete failed")
	}
	if s.Delete([]byte("k")) {
		t.Error("double delete succeeded")
	}
	if s.Get([]byte("k")) != nil {
		t.Error("deleted key readable")
	}
	if s.Alloc.Stats().SlotsInUse != 0 {
		t.Error("value buffer leaked after delete")
	}
}

func TestPutBufTransfersOwnership(t *testing.T) {
	s := newStore()
	b := s.Alloc.Alloc(64)
	copy(b.Bytes(), "direct")
	s.PutBuf([]byte("k"), b)
	if b.Refcount() != 1 {
		t.Errorf("refcount = %d, want 1 (store took over the caller's ref)", b.Refcount())
	}
	s.Delete([]byte("k"))
	if s.Alloc.Stats().SlotsInUse != 0 {
		t.Error("buffer leaked")
	}
}

func TestGetChargesLookupCosts(t *testing.T) {
	s := newStore()
	s.Put([]byte("key-with-some-length"), make([]byte, 512))
	s.Meter.Drain()
	s.Get([]byte("key-with-some-length"))
	if s.Meter.Drain() <= 0 {
		t.Error("get charged nothing")
	}
}

// Property: after any interleaving of puts, replaces and deletes, the store
// contents match a reference map and no buffers leak.
func TestStoreMatchesReferenceMap(t *testing.T) {
	f := func(ops []struct {
		Key uint8
		Val []byte
		Del bool
	}) bool {
		s := newStore()
		ref := map[string][]byte{}
		for _, op := range ops {
			key := []byte(fmt.Sprintf("key-%d", op.Key%16))
			if op.Del {
				delete(ref, string(key))
				s.Delete(key)
			} else {
				v := append([]byte(nil), op.Val...)
				ref[string(key)] = v
				if len(v) == 0 {
					v = []byte{0} // store requires non-empty allocations
					ref[string(key)] = v
				}
				s.Put(key, v)
			}
		}
		for k, want := range ref {
			got := s.Get([]byte(k))
			if got == nil || !bytes.Equal(got.Bytes(), want) {
				return false
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		// Every key deleted → no leaks.
		for k := range ref {
			s.Delete([]byte(k))
		}
		return s.Alloc.Stats().SlotsInUse == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAppend(t *testing.T) {
	s := newStore()
	if n := s.Append([]byte("l"), []byte("a")); n != 1 {
		t.Errorf("first append -> %d", n)
	}
	if n := s.Append([]byte("l"), []byte("bb"), []byte("ccc")); n != 3 {
		t.Errorf("second append -> %d", n)
	}
	vals := s.GetList([]byte("l"))
	if len(vals) != 3 || string(vals[2].Bytes()) != "ccc" {
		t.Errorf("list contents wrong: %d elems", len(vals))
	}
	if s.ValueBytes != 6 {
		t.Errorf("ValueBytes = %d, want 6", s.ValueBytes)
	}
	// Empty elements are skipped.
	if n := s.Append([]byte("l"), nil); n != 3 {
		t.Errorf("empty append -> %d, want 3", n)
	}
	// Append interacts correctly with Put (replace).
	s.Put([]byte("l"), []byte("z"))
	if got := s.GetList([]byte("l")); len(got) != 1 || string(got[0].Bytes()) != "z" {
		t.Error("Put after Append did not replace")
	}
}

func TestGetListMiss(t *testing.T) {
	s := newStore()
	if s.GetList([]byte("missing")) != nil {
		t.Error("missing key returned a list")
	}
	if s.Misses != 1 {
		t.Errorf("Misses = %d", s.Misses)
	}
}
