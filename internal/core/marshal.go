package core

import (
	"slices"

	"cornflakes/internal/mem"
	"cornflakes/internal/wire"
)

// AppendMarshal appends the complete serialized object to dst and returns
// the extended slice: header region, then copied data, then zero-copy
// data. The networking stack never calls this — it writes the header and
// copy region into a DMA buffer and lets the NIC gather the zero-copy
// entries (§3.2.3) — but load-generator clients, tests and tools use it,
// and its output is byte-identical to what a receiver sees after NIC
// gather. A client that passes the same scratch back each time marshals
// without allocating once the scratch has grown.
func AppendMarshal(dst []byte, m *Message) []byte {
	l := m.Layout()
	start := len(dst)
	dst = slices.Grow(dst, l.ObjectLen())[:start+l.ObjectLen()]
	out := dst[start:]
	m.WriteHeader(out)
	cur := l.HeaderLen
	m.IterateCopyEntries(func(data []byte, sim uint64) {
		copy(out[cur:], data)
		cur += len(data)
	})
	m.IterateZCEntries(func(buf *mem.Buf) {
		copy(out[cur:], buf.Bytes())
		cur += buf.Len()
	})
	return dst
}

// Marshal is AppendMarshal into a fresh slice.
func Marshal(m *Message) []byte { return AppendMarshal(nil, m) }

// PeekID extracts field 0 of a serialized message when it is a present
// integer field — the request/response id convention every RPC schema in
// this repository follows. Load generators use it to match responses to
// outstanding requests without knowing the response schema.
func PeekID(data []byte) (uint64, bool) {
	if len(data) < 4 {
		return 0, false
	}
	words := int(wire.GetU32(data))
	if words <= 0 || words > 1024 {
		return 0, false
	}
	fixed := 4 + 4*words
	if len(data) < fixed+wire.EntrySize {
		return 0, false
	}
	if wire.GetU32(data[4:])&1 == 0 {
		return 0, false // field 0 absent
	}
	return wire.GetU64(data[fixed:]), true
}
