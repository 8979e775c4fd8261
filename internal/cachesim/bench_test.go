package cachesim

import (
	"fmt"
	"testing"
)

// BenchmarkAccessRange is the cache model's micro-benchmark: one
// Hierarchy.AccessRange call. "copy" walks 2 KiB ranges back to back
// through a 64 MiB region, the shape of a value copy; "metadata" touches
// one 8-byte word on a pseudo-random line of the same region, the shape
// of a refcount or hash-bucket probe. Each runs over the experiments'
// scaled-down 2 MiB L3 and the default 16 MiB one.
func BenchmarkAccessRange(b *testing.B) {
	const base, span = uint64(1) << 40, uint64(64 << 20)
	for _, tc := range []struct {
		name    string
		n       int
		scatter bool
	}{{"copy", 2048, false}, {"metadata", 8, true}} {
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
						off = (off + uint64(tc.n)) % span
						continue
					}
					x ^= x << 13 // xorshift64
					x ^= x >> 7
					x ^= x << 17
					off = x % span &^ 63
				}
			})
		}
	}
}
