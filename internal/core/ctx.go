package core

import (
	"math"

	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
)

// Threshold values for the scatter-gather heuristic (§3.2.1, §5).
const (
	// DefaultThreshold is the empirically measured 512-byte crossover: only
	// bytes/string fields at least this large are sent zero-copy.
	DefaultThreshold = 512
	// ThresholdAllZeroCopy makes every field take the scatter-gather path
	// (the "threshold configured to 0" arm of the §5 study).
	ThresholdAllZeroCopy = 0
	// ThresholdAllCopy makes every field copy (the "threshold configured to
	// infinity" arm).
	ThresholdAllCopy = math.MaxInt
)

// Ctx binds the serialization library to one core's resources: the pinned
// allocator (DMA-safe memory + pointer recovery), the arena for copied
// CFPtr vectors, the cost meter, and the configured zero-copy threshold.
type Ctx struct {
	Alloc     *mem.Allocator
	Arena     *mem.Arena
	Meter     *costmodel.Meter
	Threshold int

	// DisableArena makes the copy path use general-purpose heap
	// allocations instead of the arena — the ablation for the paper's
	// Table 1 footnote ("the Cornflakes implementation uses arena
	// allocation for vectors inside generated data structures, which this
	// Protobuf implementation does not provide").
	DisableArena bool

	// HighWater, when positive, makes the zero-copy decision
	// pressure-aware: once pinned-pool occupancy reaches this fraction,
	// fields that would be sent zero-copy are copied instead. Zero-copy
	// pins the slot until DMA (and, over TCP-lite, ACK) completes, so
	// under pressure copying trades CPU cycles for shorter slot
	// lifetimes and keeps the pool from exhausting. Zero disables the
	// check (and an uncapped allocator always reports zero occupancy).
	HighWater float64

	// Fallbacks counts fields demoted from zero-copy to copy by the
	// HighWater check.
	Fallbacks uint64

	// msgPool recycles Message structs per schema: Release parks a
	// terminally-released message here and NewMessage/Deserialize reuse it,
	// field-value capacity included — the request loop's Messages stop
	// hitting the heap once the pool reaches steady state. A Ctx belongs to
	// one simulated core (single goroutine), so the pool needs no locking.
	msgPool map[*Schema][]*Message
}

// getMsg pops a pooled message for schema, or returns nil.
func (c *Ctx) getMsg(schema *Schema) *Message {
	pool := c.msgPool[schema]
	k := len(pool)
	if k == 0 {
		return nil
	}
	m := pool[k-1]
	pool[k-1] = nil
	c.msgPool[schema] = pool[:k-1]
	return m
}

// putMsg parks a released message for reuse.
func (c *Ctx) putMsg(m *Message) {
	if c.msgPool == nil {
		c.msgPool = make(map[*Schema][]*Message)
	}
	c.msgPool[m.schema] = append(c.msgPool[m.schema], m)
}

// NewCtx builds a context with the default 512-byte threshold.
func NewCtx(alloc *mem.Allocator, arena *mem.Arena, meter *costmodel.Meter) *Ctx {
	return &Ctx{Alloc: alloc, Arena: arena, Meter: meter, Threshold: DefaultThreshold}
}

// CFPtr is the hybrid smart pointer (Listing 3): it holds either a
// zero-copy reference into a pinned allocation (with the allocation's
// refcount incremented) or data copied into an arena-backed vector. The
// constructor is agnostic to where the input bytes live; the decision and
// all bookkeeping happen at construction time (§3.2.1), so each field costs
// either a data cache touch (copy) or a metadata cache touch (refcount) —
// never both.
type CFPtr struct {
	data []byte
	sim  uint64
	zc   *mem.Buf // non-nil for the zero-copy variant; owns one reference
}

// NewCFPtr constructs a CFPtr from arbitrary bytes, applying the size
// threshold and the memory-transparency check:
//
//  1. len(data) < threshold            → copy into the arena
//  2. data inside a live pinned alloc  → zero-copy (refcount incremented)
//  3. otherwise (non-DMA-safe memory)  → copy into the arena
func (c *Ctx) NewCFPtr(data []byte) CFPtr {
	m := c.Meter
	m.Charge(m.CPU.PerFieldCy)
	if len(data) >= c.Threshold {
		if c.HighWater > 0 && c.Alloc.Occupancy() >= c.HighWater {
			// Pinned pool is nearly full: degrade this field to the copy
			// encoding rather than pinning another slot (graceful
			// degradation toward d=0 behavior under overload).
			c.Fallbacks++
			return c.copyPtr(data)
		}
		m.Charge(m.CPU.RegistryLookupCy)
		if buf, ok := c.Alloc.RecoverPtr(data); ok {
			// Refcount increment: the metadata access whose cache misses
			// motivate the hybrid design (§2.3).
			m.MetadataAccess(buf.RefcountSimAddr())
			return CFPtr{data: buf.Bytes(), sim: buf.SimAddr(), zc: buf}
		}
		// Not DMA-safe: fall through to copy (memory transparency).
	}
	return c.copyPtr(data)
}

// NewCFPtrCopy always copies, bypassing the heuristic (used for fields the
// application knows are mutable in place, and by tests).
func (c *Ctx) NewCFPtrCopy(data []byte) CFPtr {
	c.Meter.Charge(c.Meter.CPU.PerFieldCy)
	return c.copyPtr(data)
}

func (c *Ctx) copyPtr(data []byte) CFPtr {
	m := c.Meter
	var v mem.View
	if c.DisableArena {
		// Heap path: a fresh allocation per field, cold destination lines.
		b := make([]byte, len(data))
		v = mem.View{Data: b, Sim: m.AllocSimAddr(len(data))}
		m.Charge(m.CPU.HeapAllocCy)
	} else {
		v = c.Arena.Alloc(len(data))
		m.Charge(m.CPU.ArenaAllocCy)
	}
	if len(data) > 0 {
		// Only a cache model reads the source's address, and an unpinned
		// source's is a hash of its bytes.
		var src uint64
		if m.Cache != nil {
			src = c.Alloc.SimAddrOf(data)
		}
		m.Copy(src, v.Sim, len(data))
		copy(v.Data, data)
	}
	return CFPtr{data: v.Data, sim: v.Sim}
}

// ZeroCopyPtrFromBuf wraps an already-recovered pinned buffer view. The
// CFPtr takes over the caller's reference (no additional increment).
func ZeroCopyPtrFromBuf(buf *mem.Buf) CFPtr {
	return CFPtr{data: buf.Bytes(), sim: buf.SimAddr(), zc: buf}
}

// Len returns the payload length.
func (p CFPtr) Len() int { return len(p.data) }

// Bytes returns the payload view.
func (p CFPtr) Bytes() []byte { return p.data }

// Sim returns the payload's simulated address.
func (p CFPtr) Sim() uint64 { return p.sim }

// IsZeroCopy reports whether the pointer took the scatter-gather path.
func (p CFPtr) IsZeroCopy() bool { return p.zc != nil }

// ZCBuf returns the underlying pinned buffer for zero-copy pointers, or nil.
func (p CFPtr) ZCBuf() *mem.Buf { return p.zc }

// Release drops the zero-copy reference, if any. The meter records the
// refcount update. Releasing a copy-variant pointer is a no-op (arena
// memory is mass-freed by Arena.Reset).
func (p CFPtr) Release(m *costmodel.Meter) {
	if p.zc != nil {
		m.MetadataAccess(p.zc.RefcountSimAddr())
		p.zc.DecRef()
	}
}
