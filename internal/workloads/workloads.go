package workloads

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
)

// Op enumerates the request types the key-value applications serve.
type Op int

const (
	OpGet      Op = iota // single value
	OpGetM               // multiple keys, multiple values
	OpGetList            // entire list/vector value for one key
	OpGetIndex           // one element of a vector value
	OpPut                // replace a value
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpGetM:
		return "getm"
	case OpGetList:
		return "getlist"
	case OpGetIndex:
		return "getindex"
	case OpPut:
		return "put"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Request is one client operation. A generated request is read-only: its
// Keys may be the generator's prebuilt key slices, shared by every request
// for that key and by the preload records, so a consumer reads them and
// builds a request of its own to change anything.
type Request struct {
	Op    Op
	Keys  [][]byte
	Vals  [][]byte // payloads for OpPut
	Index int      // for OpGetIndex
}

// KV is one preloaded record.
type KV struct {
	Key  []byte
	Vals [][]byte
}

// Generator produces the preload set and a request stream.
type Generator interface {
	Name() string
	// Records returns the data to preload into the store.
	Records() []KV
	// Next draws the next request. The request is read-only (see
	// Request): its keys may be shared with every other draw of the key.
	Next(r *rand.Rand) Request
}

// key formats the canonical fixed-width key used by all workloads: the
// paper's YCSB keys are 30–31 bytes, Google/CDN keys 64 bytes. Formatted by
// hand — one allocation, no fmt machinery — because a generator formats
// every key it serves once, at construction.
func key(prefix string, width, i int) []byte {
	b := make([]byte, width)
	copy(b, prefix)
	v := i
	for j := width - 1; j >= len(prefix); j-- {
		b[j] = byte('0' + v%10)
		v /= 10
	}
	if v > 0 {
		// The id overflows the digit field; defer to fmt's widening rather
		// than silently truncating (no workload reaches this).
		return []byte(fmt.Sprintf("%s%0*d", prefix, width-len(prefix), i))
	}
	return b
}

// keyList holds one prebuilt one-element Keys slice per key: key i's is
// ks[i:i+1:i+1], so a generator hands out requests without allocating, and
// the capacity bound keeps an append by a careless consumer from writing
// into the next key's slot.
type keyList [][]byte

func (ks keyList) of(i int) [][]byte { return ks[i : i+1 : i+1] }

// --- YCSB (read-only, §5 and §6.1.4) ---

// YCSB models the YCSB-C trace: nKeys keys, Zipf(0.99) popularity,
// constant-shape values of nSegments buffers of segmentSize bytes each.
// The §5 measurement study varies nSegments and segmentSize.
type YCSB struct {
	NKeys       int
	SegmentSize int
	NSegments   int
	zipf        *Zipf
	keys        keyList // prebuilt for Next; the records reuse them
	recOnce     sync.Once
	records     []KV
}

// NewYCSB builds the workload. Key width is 30 bytes as in the paper.
func NewYCSB(nKeys, segmentSize, nSegments int) *YCSB {
	return NewYCSBTheta(nKeys, segmentSize, nSegments, 0.99)
}

// NewYCSBTheta is NewYCSB with an explicit Zipf skew. The cluster
// experiment contrasts a near-uniform popularity (low theta) against the
// paper's 0.99 to isolate hot-shard effects from serialization effects.
func NewYCSBTheta(nKeys, segmentSize, nSegments int, theta float64) *YCSB {
	keys := make(keyList, nKeys)
	for i := range keys {
		keys[i] = key("user", 30, i)
	}
	return &YCSB{
		NKeys:       nKeys,
		SegmentSize: segmentSize,
		NSegments:   nSegments,
		zipf:        NewZipf(uint64(nKeys), theta),
		keys:        keys,
	}
}

func (y *YCSB) Name() string {
	return fmt.Sprintf("ycsb-%dx%d", y.SegmentSize, y.NSegments)
}

// Records memoizes the preload set: capacity probes rebuild the testbed —
// and re-preload — once per load point, and the record bytes are a pure
// function of the workload parameters. Consumers copy values into pinned
// store memory, so sharing one generation across probes is safe; sweep
// points run on worker goroutines, hence the Once.
func (y *YCSB) Records() []KV {
	y.recOnce.Do(y.buildRecords)
	return y.records
}

func (y *YCSB) buildRecords() {
	recs := make([]KV, y.NKeys)
	for i := range recs {
		vals := make([][]byte, y.NSegments)
		for j := range vals {
			v := make([]byte, y.SegmentSize)
			for b := range v {
				v[b] = byte(i + j + b)
			}
			vals[j] = v
		}
		recs[i] = KV{Key: y.keys[i], Vals: vals}
	}
	y.records = recs
}

func (y *YCSB) Next(r *rand.Rand) Request {
	return Request{Op: OpGetList, Keys: y.keys.of(int(y.zipf.Next(r)))}
}

// --- Google Protobuf bytes-size distribution (read-only, Table 1/Fig 6) ---

// Google serves linked lists whose element sizes are drawn from the Google
// fleetwide distribution; list lengths are uniform in [1, MaxVals]. Most
// fields are below 512 B, so Cornflakes mostly copies (§6.2.1).
type Google struct {
	NKeys   int
	MaxVals int
	dist    *SizeDist
	zipf    *Zipf
	records []KV
	keys    keyList // records[i].Key, prebuilt for Next
}

// NewGoogle builds the workload with the given list-length range (1, 1–4,
// 1–8, 1–16 in Table 1). Keys are 64 bytes. Objects exceeding the MTU are
// resampled, as in the paper.
func NewGoogle(nKeys, maxVals int, seed uint64) *Google {
	g := &Google{NKeys: nKeys, MaxVals: maxVals, dist: GoogleBytesDist(), zipf: NewZipf(uint64(nKeys), 0.99)}
	r := rand.New(rand.NewPCG(seed, 0x6006))
	const mtuBudget = 8000
	g.records = make([]KV, nKeys)
	g.keys = make(keyList, nKeys)
	for i := range g.records {
		k := key("gkey", 64, i)
		g.keys[i] = k
		for {
			n := 1 + r.IntN(maxVals)
			vals := make([][]byte, n)
			total := 0
			for j := range vals {
				sz := g.dist.Sample(r)
				total += sz
				v := make([]byte, sz)
				for b := 0; b < len(v); b += 97 {
					v[b] = byte(i + j)
				}
				vals[j] = v
			}
			if total <= mtuBudget {
				g.records[i] = KV{Key: k, Vals: vals}
				break
			}
		}
	}
	return g
}

func (g *Google) Name() string { return fmt.Sprintf("google-1to%d", g.MaxVals) }

func (g *Google) Records() []KV { return g.records }

func (g *Google) Next(r *rand.Rand) Request {
	return Request{Op: OpGetList, Keys: g.keys.of(int(g.zipf.Next(r)))}
}

// --- Twitter cache trace (read-write, Fig 7/8/12) ---

// Twitter models cache trace #4: value sizes from a mixed distribution
// (≈32% of requests touch objects ≥512 B), 8% puts, Zipf popularity.
type Twitter struct {
	NKeys   int
	PutFrac float64
	dist    *SizeDist
	zipf    *Zipf
	records []KV
	keys    keyList // records[i].Key, prebuilt for Next
}

// NewTwitter builds the workload with the paper's 8% put fraction.
func NewTwitter(nKeys int, seed uint64) *Twitter {
	t := &Twitter{NKeys: nKeys, PutFrac: 0.08, dist: TwitterValueDist(), zipf: NewZipf(uint64(nKeys), 0.99)}
	r := rand.New(rand.NewPCG(seed, 0x7717))
	t.records = make([]KV, nKeys)
	t.keys = make(keyList, nKeys)
	for i := range t.records {
		sz := t.dist.Sample(r)
		v := make([]byte, sz)
		for b := 0; b < len(v); b += 89 {
			v[b] = byte(i)
		}
		t.keys[i] = key("tw", 30, i)
		t.records[i] = KV{Key: t.keys[i], Vals: [][]byte{v}}
	}
	return t
}

func (t *Twitter) Name() string { return "twitter" }

func (t *Twitter) Records() []KV { return t.records }

// Next draws a get, or a put whose value it allocates; the key is the
// prebuilt one either way.
func (t *Twitter) Next(r *rand.Rand) Request {
	k := t.keys.of(int(t.zipf.Next(r)))
	if r.Float64() < t.PutFrac {
		v := make([]byte, t.dist.Sample(r))
		for b := 0; b < len(v); b += 83 {
			v[b] = 0xD1
		}
		return Request{Op: OpPut, Keys: k, Vals: [][]byte{v}}
	}
	return Request{Op: OpGet, Keys: k}
}

// --- CDN image-object distribution (read-only, Table 2/Fig 11) ---

// CDN models the Tragen "image" trace class: large objects (1 kB up to
// many MB, mean ≈20 kB) stored as vectors of jumbo-frame-sized sub-objects.
// A client request fetches one sub-object; the harness issues all
// sub-objects of an object sequentially and reports whole objects (§6.1.4).
type CDN struct {
	NObjects int
	SegSize  int
	records  []KV
	keys     keyList // records[i].Key, prebuilt for Next
	segCount []int
	zipf     *Zipf
}

// NewCDN builds the workload. maxObject caps the tail (the paper's trace
// reaches 116 MB; the simulated store scales the tail down, preserving the
// "every field ≥ 1 kB, mean ≈ 20 kB" property that drives the result).
func NewCDN(nObjects, segSize, maxObject int, seed uint64) *CDN {
	c := &CDN{NObjects: nObjects, SegSize: segSize, zipf: NewZipf(uint64(nObjects), 0.99)}
	r := rand.New(rand.NewPCG(seed, 0xCD17))
	c.records = make([]KV, nObjects)
	c.keys = make(keyList, nObjects)
	c.segCount = make([]int, nObjects)
	for i := range c.records {
		size := sampleLogNormalSize(r, maxObject)
		nSegs := (size + segSize - 1) / segSize
		vals := make([][]byte, nSegs)
		rem := size
		for j := range vals {
			n := segSize
			if rem < n {
				n = rem
			}
			v := make([]byte, n)
			for b := 0; b < len(v); b += 101 {
				v[b] = byte(i + j)
			}
			vals[j] = v
			rem -= n
		}
		c.keys[i] = key("cdn", 64, i)
		c.records[i] = KV{Key: c.keys[i], Vals: vals}
		c.segCount[i] = nSegs
	}
	return c
}

// sampleLogNormalSize draws an object size with median ≈8 kB and a heavy
// tail, clipped to [1000, maxObject]; the resulting mean is ≈20 kB for
// maxObject ≥ 1 MB, matching the Tragen image class as the paper reports.
func sampleLogNormalSize(r *rand.Rand, maxObject int) int {
	s := int(8900 * expApprox(r.NormFloat64()*1.1))
	if s < 1000 {
		s = 1000
	}
	if s > maxObject {
		s = maxObject
	}
	return s
}

func expApprox(x float64) float64 { return math.Exp(x) }

func (c *CDN) Name() string { return "cdn-image" }

func (c *CDN) Records() []KV { return c.records }

// Next returns a request for one whole object: the harness expands it into
// per-sub-object requests.
func (c *CDN) Next(r *rand.Rand) Request {
	i := int(c.zipf.Next(r))
	return Request{Op: OpGetIndex, Keys: c.keys.of(i), Index: c.segCount[i]}
}

// SegmentsOf returns the number of sub-objects of object i.
func (c *CDN) SegmentsOf(i int) int { return c.segCount[i] }
