// Package cachesim models a set-associative, write-allocate CPU cache
// hierarchy with LRU replacement.
//
// Cornflakes' central observation (§2.3–§2.4 of the paper) is that the
// copy-vs-scatter-gather tradeoff is governed by cache misses: each
// zero-copy send touches bookkeeping metadata (refcounts, pinned-region
// ranges) that is usually cold, while each copy touches the data itself.
// Reproducing that mechanism requires an explicit cache model over the
// simulated address space, not just fixed per-operation constants.
//
// Replacement state is stamp-based LRU: each level keeps flat tags[] and
// stamps[] arrays indexed by set×way and a per-level monotone clock. A hit
// is one stamp store; a fill scans the set for the minimum stamp. Because
// every touch assigns a fresh, unique, monotonically increasing stamp, the
// minimum-stamp way is exactly the least-recently-used way, so eviction
// order is identical to a positional (MRU-ordered list) LRU — see
// lru_equivalence_test.go, which differences this implementation against
// the retained positional reference model.
//
// Addresses are simulated "physical" addresses handed out by internal/mem.
// Costs are returned in CPU cycles (float64) and converted to virtual time
// by internal/costmodel.
package cachesim

import "fmt"

// LineSize is the cache line size in bytes. All x86 server parts the paper
// evaluates use 64-byte lines.
const LineSize = 64

// HitLevel identifies where an access was satisfied.
type HitLevel int

const (
	HitL1 HitLevel = iota
	HitL2
	HitL3
	HitDRAM
)

func (h HitLevel) String() string {
	switch h {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitL3:
		return "L3"
	default:
		return "DRAM"
	}
}

// LevelConfig describes one cache level.
type LevelConfig struct {
	Size      int     // total bytes; must be a multiple of Ways*LineSize
	Ways      int     // associativity
	LatencyCy float64 // access latency in cycles when the access hits here
}

// Config describes a hierarchy. Shared is true for levels shared between
// cores (only meaningful to callers that build per-core hierarchies).
type Config struct {
	L1, L2, L3 LevelConfig
	// DRAMLatencyCy is the cost of an access that misses every level.
	// The paper uses 100 ns ≈ 280 cycles at 2.8 GHz.
	DRAMLatencyCy float64
	// StreamFillCy is the charge for a DRAM line fill that the hardware
	// prefetcher has already covered: during a sequential copy only the
	// first line pays full DRAM latency; subsequent lines stream in at
	// roughly memory bandwidth.
	StreamFillCy float64
}

// DefaultConfig mirrors the AMD EPYC 7402P servers in the paper's testbed
// (§6.1.1), scaled to a single-core slice of the shared L3.
func DefaultConfig() Config {
	return Config{
		L1:            LevelConfig{Size: 32 << 10, Ways: 8, LatencyCy: 4},
		L2:            LevelConfig{Size: 512 << 10, Ways: 8, LatencyCy: 14},
		L3:            LevelConfig{Size: 16 << 20, Ways: 16, LatencyCy: 47},
		DRAMLatencyCy: 280, // 100 ns at 2.8 GHz
		// ≈64 B per 12 cycles ≈ 15 GB/s single-stream fill bandwidth.
		StreamFillCy: 12,
	}
}

// level is one set-associative cache level. tags and stamps are flat
// set-major arrays (way w of set s lives at s*ways+w), nil until the first
// access through a hierarchy over the level (Hierarchy.allocate), so a
// level nothing touches costs no memory. A stamp of zero marks an empty
// way: the clock starts at zero and is pre-incremented before every store,
// so live stamps are always ≥ 1. Empty ways are filled front-to-back
// before any eviction, matching the reference model's grow-until-full
// behavior, and never reappear except via flushAll.
type level struct {
	cfg     LevelConfig
	numSets int
	ways    int
	pow2    bool // set index via mask instead of modulo
	tags    []uint64
	stamps  []uint64
	clock   uint64
	// stats
	hits, misses uint64
}

func newLevel(cfg LevelConfig) *level {
	if cfg.Ways <= 0 || cfg.Size <= 0 {
		panic(fmt.Sprintf("cachesim: invalid level config %+v", cfg))
	}
	numSets := cfg.Size / (cfg.Ways * LineSize)
	if numSets <= 0 {
		numSets = 1
	}
	return &level{
		cfg:     cfg,
		numSets: numSets,
		ways:    cfg.Ways,
		pow2:    numSets&(numSets-1) == 0,
	}
}

// allocate gives the level its tag and stamp arrays, all ways empty, unless
// it has them already.
func (l *level) allocate() {
	if l.tags == nil {
		n := l.numSets * l.ways
		l.tags = make([]uint64, n)
		l.stamps = make([]uint64, n)
	}
}

func (l *level) setIndex(line uint64) int {
	if l.pow2 {
		return int((line / LineSize) & uint64(l.numSets-1))
	}
	return int((line / LineSize) % uint64(l.numSets))
}

// lookup probes for line addr (already line-aligned). On hit it restamps
// the way — an O(1) LRU update — and returns true. On miss it returns
// false without filling.
func (l *level) lookup(line uint64) bool {
	base := l.setIndex(line) * l.ways
	tags := l.tags[base : base+l.ways]
	stamps := l.stamps[base : base+l.ways : base+l.ways]
	for i, tag := range tags {
		if tag == line && stamps[i] != 0 {
			l.clock++
			stamps[i] = l.clock
			l.hits++
			return true
		}
	}
	l.misses++
	return false
}

// fill inserts line, evicting the minimum-stamp (LRU) way if the set is
// full. Returns the evicted line and true if an eviction happened. The
// caller guarantees line is not already present (fill only runs after a
// missed lookup at this level).
func (l *level) fill(line uint64) (uint64, bool) {
	base := l.setIndex(line) * l.ways
	stamps := l.stamps[base : base+l.ways : base+l.ways]
	min := 0
	for i, s := range stamps {
		if s == 0 {
			l.clock++
			l.tags[base+i] = line
			stamps[i] = l.clock
			return 0, false
		}
		if s < stamps[min] {
			min = i
		}
	}
	victim := l.tags[base+min]
	l.clock++
	l.tags[base+min] = line
	stamps[min] = l.clock
	return victim, true
}

// contains probes without touching stamps, stats, or the clock. A level
// without arrays holds nothing.
func (l *level) contains(line uint64) bool {
	if l.tags == nil {
		return false
	}
	base := l.setIndex(line) * l.ways
	for i, tag := range l.tags[base : base+l.ways] {
		if tag == line && l.stamps[base+i] != 0 {
			return true
		}
	}
	return false
}

// flushAll drops every line (used by experiments to start cold) by zeroing
// the stamps; tags and the clock are kept, so refills after a flush stay
// allocation-free and later stamps remain globally unique.
func (l *level) flushAll() {
	clear(l.stamps)
}

// Stats for one level.
type LevelStats struct {
	Hits, Misses uint64
}

// Hierarchy is a three-level cache in front of DRAM. L3 may be shared with
// other hierarchies (see NewShared) to model multiple cores. Its levels
// allocate their arrays on its first Access or AccessRange; until then
// Stats reads zero, Contains reports HitDRAM and Flush does nothing, so a
// hierarchy nothing accesses (a load generator's) costs no array memory
// and no time to zero it.
type Hierarchy struct {
	cfg    Config
	l1, l2 *level
	l3     *level
	ownsL3 bool
	// streamNext/streamValid track the sequential DRAM fill stream for
	// prefetch detection: streamNext is the line that would continue the
	// stream, valid only when streamValid is set. (An earlier version kept
	// a lastLine sentinel where zero meant "no stream", conflating a reset
	// with a legitimate fill of line 0.)
	streamNext  uint64
	streamValid bool
	// DRAMAccesses counts accesses that went all the way to memory.
	DRAMAccesses uint64
}

// New builds a hierarchy with a private L3.
func New(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg:    cfg,
		l1:     newLevel(cfg.L1),
		l2:     newLevel(cfg.L2),
		l3:     newLevel(cfg.L3),
		ownsL3: true,
	}
}

// NewShared builds a sibling core's hierarchy: private L1 and L2 of
// base's configuration over base's L3 (both cores hit and fill the same L3
// state). base must have been built by New.
func NewShared(base *Hierarchy) *Hierarchy {
	return &Hierarchy{
		cfg: base.cfg,
		l1:  newLevel(base.cfg.L1),
		l2:  newLevel(base.cfg.L2),
		l3:  base.l3,
	}
}

// Access touches a single address (one line) and returns where it hit plus
// the cycle cost. Write-allocate: writes behave like reads for fill
// purposes (the line is brought in, dirtiness is not modelled because the
// paper's costs are read-latency dominated).
func (h *Hierarchy) Access(addr uint64) (HitLevel, float64) {
	if h.l1.tags == nil {
		h.allocate()
	}
	line := addr &^ uint64(LineSize-1)
	if h.l1.lookup(line) {
		return HitL1, h.cfg.L1.LatencyCy
	}
	return h.missBelowL1(line)
}

// allocate gives every level of h its arrays on h's first access. A shared
// L3 is allocated once, by the first access of any hierarchy over it.
func (h *Hierarchy) allocate() {
	h.l1.allocate()
	h.l2.allocate()
	h.l3.allocate()
}

// Allocated reports whether h's private levels have their arrays, that is,
// whether h has been accessed.
func (h *Hierarchy) Allocated() bool { return h.l1.tags != nil }

// missBelowL1 resolves a line that already missed (and was counted by) L1:
// probe L2 and L3, fill upward, and charge DRAM with stream detection on a
// full miss.
func (h *Hierarchy) missBelowL1(line uint64) (HitLevel, float64) {
	if h.l2.lookup(line) {
		h.l1.fill(line)
		return HitL2, h.cfg.L2.LatencyCy
	}
	if h.l3.lookup(line) {
		h.l2.fill(line)
		h.l1.fill(line)
		return HitL3, h.cfg.L3.LatencyCy
	}
	// DRAM. Fill all levels.
	h.DRAMAccesses++
	h.l3.fill(line)
	h.l2.fill(line)
	h.l1.fill(line)
	cost := h.cfg.DRAMLatencyCy
	if h.streamValid && line == h.streamNext {
		// Sequential miss stream: the prefetcher has this line in flight.
		cost = h.cfg.StreamFillCy
	}
	h.streamNext = line + LineSize
	h.streamValid = true
	return HitDRAM, cost
}

// AccessRange touches every line in [addr, addr+n) and returns the total
// cycle cost plus the number of lines that missed to DRAM.
//
// This is the batched fast path for the copy/scatter-gather loops that
// dominate paper workloads: the L1 probe is inlined and the L1 set index
// advances by increment-and-wrap (consecutive lines map to consecutive
// sets), so a range already resident in L1 costs one restamp per line with
// no division, no per-line call, and nothing touched below L1. Lines that
// miss fall into the same missBelowL1 path Access uses, so costs, stats,
// stream detection, and eviction order are exactly those of a per-line
// Access loop (range_equivalence_test.go pins this).
func (h *Hierarchy) AccessRange(addr uint64, n int) (cycles float64, dramLines int) {
	if n <= 0 {
		return 0, 0
	}
	line := addr &^ uint64(LineSize-1)
	nLines := int((addr+uint64(n)-1)/LineSize-line/LineSize) + 1
	l1 := h.l1
	if l1.tags == nil {
		h.allocate()
	}
	idx := l1.setIndex(line)
	l1Cy := h.cfg.L1.LatencyCy
	for k := 0; k < nLines; k++ {
		base := idx * l1.ways
		tags := l1.tags[base : base+l1.ways]
		stamps := l1.stamps[base : base+l1.ways : base+l1.ways]
		hit := false
		for i, tag := range tags {
			if tag == line && stamps[i] != 0 {
				l1.clock++
				stamps[i] = l1.clock
				hit = true
				break
			}
		}
		if hit {
			l1.hits++
			cycles += l1Cy
		} else {
			l1.misses++
			lvl, c := h.missBelowL1(line)
			cycles += c
			if lvl == HitDRAM {
				dramLines++
			}
		}
		line += LineSize
		idx++
		if idx == l1.numSets {
			idx = 0
		}
	}
	return cycles, dramLines
}

// Contains reports the highest (fastest) level currently holding addr, or
// HitDRAM if no level holds it. It does not disturb stamps, stats, or
// stream state, so interleaving probes with accesses leaves the eviction
// sequence unchanged (contains_neutrality_test.go).
func (h *Hierarchy) Contains(addr uint64) HitLevel {
	line := addr &^ uint64(LineSize-1)
	switch {
	case h.l1.contains(line):
		return HitL1
	case h.l2.contains(line):
		return HitL2
	case h.l3.contains(line):
		return HitL3
	default:
		return HitDRAM
	}
}

// Stats returns per-level hit/miss counters in L1, L2, L3 order.
func (h *Hierarchy) Stats() [3]LevelStats {
	return [3]LevelStats{
		{h.l1.hits, h.l1.misses},
		{h.l2.hits, h.l2.misses},
		{h.l3.hits, h.l3.misses},
	}
}

// Flush empties every private level; the L3 is flushed only if owned (the
// hierarchy that created a shared L3 owns it). Stream-detection state is
// invalidated so the first post-flush DRAM fill always pays full latency.
func (h *Hierarchy) Flush() {
	h.l1.flushAll()
	h.l2.flushAll()
	if h.ownsL3 {
		h.l3.flushAll()
	}
	h.streamValid = false
}

// L3Size returns the configured L3 capacity in bytes, which experiments use
// to size working sets relative to cache (e.g. "5× larger than L3", §2.4).
func (h *Hierarchy) L3Size() int { return h.cfg.L3.Size }
