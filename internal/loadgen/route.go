package loadgen

import (
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring mapping keys to shard indexes. Each shard
// owns vnodes points on a 64-bit circle; a key belongs to the first point
// at or clockwise of its hash. With enough virtual nodes per shard the key
// space splits near-evenly, and growing the ring from n to n+1 shards moves
// only ≈1/(n+1) of the keys — the property that makes shard counts sweepable
// without reshuffling the whole store.
type Ring struct {
	hashes []uint64 // sorted point positions
	owner  []int    // owner[i] is the shard owning hashes[i]
	shards int
}

// NewRing builds a ring over the given shard count. vnodes ≤ 0 selects the
// default of 256 points per shard (arc-length imbalance shrinks as
// 1/√vnodes; 256 keeps shard key shares within a few percent of even,
// which the cluster scaling checks rely on).
func NewRing(shards, vnodes int) *Ring {
	if shards <= 0 {
		panic(fmt.Sprintf("loadgen: NewRing(%d, %d)", shards, vnodes))
	}
	if vnodes <= 0 {
		vnodes = 256
	}
	type point struct {
		hash  uint64
		shard int
	}
	pts := make([]point, 0, shards*vnodes)
	var label [8]byte
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			label[0], label[1], label[2], label[3] = byte(s), byte(s>>8), byte(s>>16), byte(s>>24)
			label[4], label[5], label[6], label[7] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			// FNV over labels differing in two byte positions yields nearly
			// arithmetic hashes (clustered arcs); the finalizer decorrelates.
			pts = append(pts, point{hash: mix64(fnv64a(label[:])), shard: s})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		// Hash ties (vanishingly rare) break by shard index so the ring is
		// identical no matter the sort's internals.
		return pts[i].shard < pts[j].shard
	})
	r := &Ring{
		hashes: make([]uint64, len(pts)),
		owner:  make([]int, len(pts)),
		shards: shards,
	}
	for i, p := range pts {
		r.hashes[i] = p.hash
		r.owner[i] = p.shard
	}
	return r
}

// Shard returns the shard owning key.
func (r *Ring) Shard(key []byte) int {
	return r.owner[r.slot(keyPoint(key))]
}

// keyPoint maps a key to its position on the circle. FNV alone clusters
// near-identical keys (fixed-prefix, fixed-width numerics) into a narrow
// arc — the high bits barely move — so the finalizer spreads them the same
// way it spreads the vnode labels.
func keyPoint(key []byte) uint64 {
	return mix64(fnv64a(key))
}

// slot returns the index of the first point at or clockwise of h.
func (r *Ring) slot(h uint64) int {
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap: past the last point, the first point owns it
	}
	return i
}

// Replicas appends the R distinct shards holding key — the owner first,
// then successor shards clockwise — to dst and returns it. R is clamped to
// the shard count. Passing a reused dst keeps the per-request routing
// decision allocation-free.
func (r *Ring) Replicas(dst []int, key []byte, R int) []int {
	if R > r.shards {
		R = r.shards
	}
	if R < 1 {
		R = 1
	}
	start := r.slot(keyPoint(key))
	base := len(dst)
	for i := 0; len(dst)-base < R; i++ {
		s := r.owner[(start+i)%len(r.hashes)]
		seen := false
		for _, have := range dst[base:] {
			if have == s {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, s)
		}
	}
	return dst
}

// Rotation returns a per-key deterministic base offset into the key's
// replica set, decorrelated from the ring position (different finalizer
// input). Failover routing picks replica (Rotation+attempt) mod R: every
// attempt of one request agrees on the base, consecutive attempts are
// guaranteed distinct replicas, and no cross-request state is consumed —
// so a retry or hedge always lands somewhere new without perturbing any
// other request's routing.
func (r *Ring) Rotation(key []byte) uint64 {
	return mix64(fnv64a(key) ^ 0xFA170FE2)
}

// fnv64a is the 64-bit FNV-1a hash. Every use passes it through mix64,
// which spreads near-identical inputs across the circle.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// mix64 is the SplitMix64 finalizer: a full-avalanche bijection on uint64.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}
