// Package kvstore implements the custom key-value store of §6.1.2: string
// keys mapping to values that are single pinned buffers, linked lists of
// pinned buffers, or vectors of pinned buffers. Values live in DMA-safe
// memory so responses can be sent zero-copy; puts replace values with
// allocate-and-pointer-swap rather than updating in place, which is the
// application pattern Cornflakes' memory safety model requires (§4): an
// old value freed by a put survives until in-flight sends complete, via its
// refcount.
package kvstore

import (
	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
)

// simBucketBase is the simulated address range for hash-bucket metadata;
// each entry's bucket word lives on its own line so lookup cache behaviour
// scales with the key population, as in the real store.
const simBucketBase = 0x0000_9000_0000_0000

// entry is one key's storage.
type entry struct {
	key       []byte
	keySim    uint64
	bucketSim uint64
	vals      []*mem.Buf
}

// Store is the storage engine. Not safe for concurrent use (single-core
// datapath; §6.6 shards stores across cores).
type Store struct {
	Alloc *mem.Allocator
	Meter *costmodel.Meter

	m         map[string]*entry
	simCursor uint64
	// bufs is allocValue's scratch: a new value's buffers wait here until
	// the caller stores them, so a put allocates no list of its own.
	bufs []*mem.Buf

	// Stats.
	Gets, Puts, Misses uint64
	ValueBytes         int64
}

// New creates an empty store over the given pinned allocator.
func New(alloc *mem.Allocator, meter *costmodel.Meter) *Store {
	return &Store{Alloc: alloc, Meter: meter, m: make(map[string]*entry), simCursor: simBucketBase}
}

// Len returns the number of keys.
func (s *Store) Len() int { return len(s.m) }

// lookup charges the hash-table probe: hash arithmetic, the bucket line,
// and the stored key comparison.
func (s *Store) lookup(key []byte) *entry {
	m := s.Meter
	m.Charge(m.CPU.HashProbeCy)
	e := s.m[string(key)]
	if e == nil {
		// A miss still walks the bucket.
		m.AccessWord(s.simCursor) // cold probe of an empty bucket region
		return nil
	}
	m.AccessWord(e.bucketSim)
	m.Access(e.keySim, len(e.key))
	return e
}

// PutBuf stores pinned buffers as the key's value, taking over the caller's
// references. Any previous value is released by pointer swap: if the old
// buffers are in flight on the NIC, their refcounts keep them alive.
func (s *Store) PutBuf(key []byte, vals ...*mem.Buf) {
	s.Puts++
	e := s.lookup(key)
	if e == nil {
		keyCopy := append([]byte(nil), key...)
		e = &entry{
			key:       keyCopy,
			keySim:    mem.UnpinnedSimAddr(keyCopy),
			bucketSim: s.simCursor,
		}
		s.simCursor += 64
		s.m[string(key)] = e
		s.Meter.Charge(s.Meter.CPU.HeapAllocCy)
	} else {
		for _, old := range e.vals {
			s.ValueBytes -= int64(old.Len())
			s.Meter.MetadataAccess(old.RefcountSimAddr())
			old.DecRef()
		}
		e.vals = e.vals[:0]
	}
	for _, v := range vals {
		e.vals = append(e.vals, v)
		s.ValueBytes += int64(v.Len())
	}
}

// Put copies data into freshly allocated pinned buffers and stores them.
// Each element of vals becomes one non-contiguous buffer (the linked-list /
// vector value shapes of §6.1.2). Empty elements are skipped: a pinned
// allocation needs at least one byte of slot identity. Put panics if the
// pinned pool is capped and full; the request path uses TryPut.
func (s *Store) Put(key []byte, vals ...[]byte) {
	if err := s.TryPut(key, vals...); err != nil {
		panic("kvstore: Put: " + err.Error())
	}
}

// TryPut is Put with a failable allocation path: if the pinned pool cannot
// hold the new value, it releases any buffers allocated so far and returns
// mem.ErrNoMem with the store unchanged — the existing value under key (if
// any) is kept, not clobbered by a partial write.
func (s *Store) TryPut(key []byte, vals ...[]byte) error {
	bufs, err := s.allocValue(vals)
	if err != nil {
		return err
	}
	s.PutBuf(key, bufs...)
	return nil
}

// allocValue copies vals into fresh pinned buffers, all-or-nothing. The
// returned list is the store's scratch, valid until the next allocValue.
func (s *Store) allocValue(vals [][]byte) ([]*mem.Buf, error) {
	bufs := s.bufs[:0]
	for _, v := range vals {
		if len(v) == 0 {
			continue
		}
		b, err := s.Alloc.TryAlloc(len(v))
		if err != nil {
			for _, got := range bufs {
				got.DecRef()
			}
			return nil, err
		}
		s.Meter.Charge(s.Meter.CPU.DMABufAllocCy)
		s.Meter.Copy(s.Alloc.SimAddrOf(v), b.SimAddr(), len(v))
		copy(b.Bytes(), v)
		bufs = append(bufs, b)
	}
	s.bufs = bufs
	return bufs, nil
}

// Get returns the first buffer of the key's value, or nil. The returned
// buffer is the store's copy — callers wanting to keep it across a put must
// take their own reference (CFPtr construction does this automatically).
func (s *Store) Get(key []byte) *mem.Buf {
	s.Gets++
	e := s.lookup(key)
	if e == nil || len(e.vals) == 0 {
		s.Misses++
		return nil
	}
	return e.vals[0]
}

// GetList returns all buffers of the key's value in order, or nil.
func (s *Store) GetList(key []byte) []*mem.Buf {
	s.Gets++
	e := s.lookup(key)
	if e == nil {
		s.Misses++
		return nil
	}
	return e.vals
}

// GetIndex returns the idx'th buffer of the key's value, or nil. Walking to
// the index charges one metadata touch per hop (linked-list traversal).
func (s *Store) GetIndex(key []byte, idx int) *mem.Buf {
	s.Gets++
	e := s.lookup(key)
	if e == nil || idx < 0 || idx >= len(e.vals) {
		s.Misses++
		return nil
	}
	for i := 0; i < idx; i++ {
		s.Meter.MetadataAccess(e.vals[i].RefcountSimAddr())
	}
	return e.vals[idx]
}

// Append copies data into fresh pinned buffers and appends them to the
// key's value list (creating the key if needed) — the RPUSH path of the
// Redis integration. It returns the new list length. Append panics if the
// pinned pool is capped and full; the request path uses TryAppend.
func (s *Store) Append(key []byte, vals ...[]byte) int {
	n, err := s.TryAppend(key, vals...)
	if err != nil {
		panic("kvstore: Append: " + err.Error())
	}
	return n
}

// TryAppend is Append with a failable allocation path: on mem.ErrNoMem no
// elements are appended (all-or-nothing) and the existing list — including
// a key entry created by this call — is left as it was.
func (s *Store) TryAppend(key []byte, vals ...[]byte) (int, error) {
	bufs, err := s.allocValue(vals)
	if err != nil {
		return 0, err
	}
	s.Puts++
	e := s.lookup(key)
	if e == nil {
		keyCopy := append([]byte(nil), key...)
		e = &entry{
			key:       keyCopy,
			keySim:    mem.UnpinnedSimAddr(keyCopy),
			bucketSim: s.simCursor,
		}
		s.simCursor += 64
		s.m[string(key)] = e
		s.Meter.Charge(s.Meter.CPU.HeapAllocCy)
	}
	for _, b := range bufs {
		e.vals = append(e.vals, b)
		s.ValueBytes += int64(b.Len())
	}
	return len(e.vals), nil
}

// Delete removes a key, releasing the store's value references.
func (s *Store) Delete(key []byte) bool {
	e := s.lookup(key)
	if e == nil {
		return false
	}
	for _, v := range e.vals {
		s.ValueBytes -= int64(v.Len())
		s.Meter.MetadataAccess(v.RefcountSimAddr())
		v.DecRef()
	}
	delete(s.m, string(e.key))
	return true
}
