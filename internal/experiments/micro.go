package experiments

import (
	"fmt"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/mem"
	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/wire"
	"cornflakes/internal/workloads"
)

// The scatter-gather microbenchmark of §2.4 (Figure 3) and §6.6
// (Figure 13): a server holds a large array of non-contiguous pinned
// buffers, several times larger than L3; requests name a run of buffers
// and the server concatenates them into the response, either by copying or
// by scatter-gather.

// microMode selects the response datapath.
type microMode int

const (
	microCopy   microMode = iota // copy every buffer into the DMA payload
	microSGSafe                  // scatter-gather with safety/transparency bookkeeping
	microSGRaw                   // raw scatter-gather (upper bound, §2.4)
)

func (m microMode) String() string {
	switch m {
	case microCopy:
		return "copy"
	case microSGSafe:
		return "sg+overheads"
	default:
		return "raw sg"
	}
}

// expCacheConfig shrinks the modelled L3 so scaled-down working sets keep
// the paper's working-set-to-cache ratios (their 1M-key stores are many
// times larger than the L3; our stores are many times this 2 MB L3).
func expCacheConfig() cachesim.Config {
	cfg := cachesim.DefaultConfig()
	cfg.L3.Size = 2 << 20
	return cfg
}

// microServer serves the microbenchmark on one or more cores sharing one
// NIC port. The buffer array is sharded across cores; requests address
// (shard, start) and the port handler demultiplexes to the owning core,
// each with private L1/L2 and a shared L3 (§6.6). Each core replies through
// its own UDP stack, which builds, bills and counts the frame.
type microServer struct {
	cores  []*driver.Node
	shards [][]*mem.Buf
	mode   microMode

	// The serve-path scratch: the response's buffers, and for the copy
	// mode their bytes and simulated addresses. The engine is serial, and
	// serve runs to completion inside one drain, so one scratch per server
	// never aliases.
	segs []*mem.Buf
	data [][]byte
	sims []uint64
	// rxqs[i] is core i's queue of requests for shard i.
	rxqs []*sim.Queue[microReq]
}

// microReq is one queued request: the first buffer of the run and the
// request id.
type microReq struct {
	start int
	id    uint64
}

// request layout (UDP payload): u64 id | u32 shard | u32 start.
const microReqLen = 16

// newMicroServer serves one shard per core of tb.Cores(tb.Server, nCores),
// with the server's allocator holding every shard buffer; each core's stack
// allocates its own responses.
func newMicroServer(tb *driver.Testbed, nCores int, mode microMode, segSize, count, workingSet int) *microServer {
	s := &microServer{
		cores: tb.Cores(tb.Server, nCores), mode: mode,
		segs: make([]*mem.Buf, count), data: make([][]byte, count), sims: make([]uint64, count),
	}
	for shard, n := range s.cores {
		var q *sim.Queue[microReq]
		q = sim.NewQueue[microReq](n.Core, driver.RxRingDepth, func() sim.Time {
			r := q.Pop(0)
			s.serve(n, shard, r.start, r.id)
			return n.Meter.DrainTime()
		})
		s.rxqs = append(s.rxqs, q)
	}
	perShard := workingSet / nCores / segSize
	if perShard < count {
		perShard = count
	}
	for i := 0; i < nCores; i++ {
		shard := make([]*mem.Buf, perShard)
		for j := range shard {
			b := tb.Server.Alloc.Alloc(segSize)
			for k := 0; k < segSize; k += 64 {
				b.Bytes()[k] = byte(i + j + k)
			}
			shard[j] = b
		}
		s.shards = append(s.shards, shard)
	}
	// The microbenchmark receives past the cores' steered stacks, as a
	// poll-mode driver does: serve bills RX when the core takes a request,
	// so a frame the full ring refuses costs nothing, where a stack bills
	// every frame on arrival. maxTput probes past the knee, and billing
	// refused frames there flattens Fig 3's raw-SG column.
	tb.Server.Port.SetHandler(s.onFrame)
	return s
}

func (s *microServer) perShard() int { return len(s.shards[0]) }

func (s *microServer) onFrame(f *nic.Frame) {
	if len(f.Data) < netstack.PacketHeaderLen+microReqLen {
		return
	}
	req := f.Data[netstack.PacketHeaderLen:]
	id := wire.GetU64(req)
	shard := int(wire.GetU32(req[8:])) % len(s.shards)
	start := int(wire.GetU32(req[12:])) % len(s.shards[shard])
	s.rxqs[shard].Push(microReq{start: start, id: id})
}

// serve sends the response on the owning core's stack, after charging the
// core the RX cost of taking the request. The response payload is
// [u64 id | buffer data...]: the copy mode copies the buffers behind the id
// (SendSegments), and both scatter-gather modes post each buffer as its
// own entry (SendPinned), with the safety bookkeeping of §2.3 or, for raw
// SG, none of it (§2.4).
func (s *microServer) serve(n *driver.Node, shard, start int, id uint64) {
	n.Meter.Charge(n.Meter.CPU.RxPacketCy)
	bufs := s.shards[shard]
	for i := range s.segs {
		s.segs[i] = bufs[(start+i)%len(bufs)]
	}
	var idb [8]byte
	wire.PutU64(idb[:], id)
	var err error
	if s.mode == microCopy {
		for i, b := range s.segs {
			s.data[i], s.sims[i] = b.Bytes(), b.SimAddr()
		}
		err = n.UDP.SendSegments(s.data, s.sims, idb[:]...)
	} else {
		err = n.UDP.SendPinned(s.segs, s.mode == microSGSafe, idb[:]...)
	}
	if err != nil {
		panic(fmt.Sprintf("microbench: %v", err))
	}
}

// microClient drives the microbenchmark through loadgen. Shard and start
// are derived deterministically from the request id.
type microClient struct {
	shards, perShard int
	// buf is the request scratch: the transport copies the payload into the
	// DMA buffer before SendContiguous returns, so one buffer serves every
	// request.
	buf [microReqLen]byte
}

func (c *microClient) Steps(workloads.Request) int { return 1 }

func (c *microClient) BuildStep(id uint64, _ workloads.Request, _ int) []byte {
	b := c.buf[:]
	wire.PutU64(b, id)
	h := splitmix(id)
	wire.PutU32(b[8:], uint32(h%uint64(c.shards)))
	wire.PutU32(b[12:], uint32((h>>20)%uint64(c.perShard)))
	return b
}

func (c *microClient) ResponseID(p []byte) (uint64, error) {
	if len(p) < 8 {
		return 0, fmt.Errorf("short microbench response")
	}
	return wire.GetU64(p), nil
}

// splitmix is SplitMix64: a deterministic id → pseudo-random mapping.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// microMaxGbps measures the highest achieved response throughput for one
// microbenchmark configuration. Every response has the same length and
// flows are single-step, so the point with the highest achieved rate is
// also the one with the highest Gbps.
func microMaxGbps(mode microMode, nCores, segSize, count, workingSet int, sc Scale, seed uint64) float64 {
	return probe(func(rate float64) (loadgen.Result, float64) {
		tb := driver.NewTestbedCfg(nic.MellanoxCX5Ex(), expCacheConfig())
		srv := newMicroServer(tb, nCores, mode, segSize, count, workingSet)
		res := loadgen.Run(sc.withWindow(loadgen.Config{
			Eng: tb.Eng, EP: tb.Client.UDP,
			Gen:      nopGen{},
			Client:   &microClient{shards: nCores, perShard: srv.perShard()},
			RatePerS: rate,
			Seed:     seed,
		}))
		// maxTput ranks points by achieved rate alone; it never reads
		// the utilization.
		return res, 0
	}).maxTput(150_000 * float64(nCores)).AchievedGbps
}
