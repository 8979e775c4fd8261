package cachesim

import (
	"fmt"
	"testing"
)

// BenchmarkAccessRange is the cache model's micro-benchmark: one
// Hierarchy.AccessRange call. "copy" walks 2 KiB ranges back to back
// through a 64 MiB region, the shape of a value copy; "metadata" touches
// one 8-byte word on a pseudo-random line of the same region, the shape
// of a refcount or hash-bucket probe; "resident" walks single lines
// through a 2 KiB window that stays in L1, the shape of the header and
// bookkeeping touches that hit. Each runs over the experiments'
// scaled-down 2 MiB L3 and the default 16 MiB one.
func BenchmarkAccessRange(b *testing.B) {
	const base = uint64(1) << 40
	for _, tc := range []struct {
		name    string
		n       int
		span    uint64
		scatter bool
	}{{"copy", 2048, 64 << 20, false}, {"metadata", 8, 64 << 20, true}, {"resident", 64, 2 << 10, false}} {
		for _, l3 := range []int{2 << 20, 16 << 20} {
			b.Run(fmt.Sprintf("%s/L3=%dMiB", tc.name, l3>>20), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.L3.Size = l3
				h := New(cfg)
				off, x := uint64(0), uint64(1)
				b.ReportAllocs()
				for b.Loop() {
					h.AccessRange(base+off, tc.n)
					if !tc.scatter {
						off = (off + uint64(tc.n)) % tc.span
						continue
					}
					x ^= x << 13 // xorshift64
					x ^= x >> 7
					x ^= x << 17
					off = x % tc.span &^ 63
				}
			})
		}
	}
}

// BenchmarkPointCache is what one sweep point pays for a server's cache
// model: build a default hierarchy and touch a KV shard's working set, the
// shape of a rack-ycsb shard's preload (its 400 records of a 128-byte
// value on three of eight shards: 150 values, packed in one pinned slab).
// B/op is the memory the hierarchy holds once the shard is loaded.
func BenchmarkPointCache(b *testing.B) {
	const base, records, value = uint64(1) << 40, 150, 128
	b.ReportAllocs()
	for b.Loop() {
		h := New(DefaultConfig())
		for i := range uint64(records) {
			h.AccessRange(base+i*value, value)
		}
	}
}
