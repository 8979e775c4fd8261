package driver

import (
	"cornflakes/internal/mem"
	"cornflakes/internal/msgs"
	"cornflakes/internal/sim"
	"cornflakes/internal/wire"
	"cornflakes/internal/workloads"
)

// EchoMode selects the echo server's datapath, covering the manual
// approaches of Figure 1 and the serialization libraries of Figure 2.
type EchoMode int

const (
	// EchoNoSer echoes the received pinned buffer with no serialization at
	// all — the 77 Gbps upper bound of Figure 2.
	EchoNoSer EchoMode = iota
	// EchoZeroCopy posts the id and each field as separate scatter-gather
	// entries on the zero-copy stack (Figure 1 "Zero-Copy": the NIC
	// coalesces with extra PCIe requests). Like the §2.2 prototype stack it
	// includes use-after-free protection, so each entry pays the refcount
	// bookkeeping.
	EchoZeroCopy
	// EchoOneCopy copies the payload once, directly into pinned memory.
	// Over TCP it is Figure 9's "raw packet echo" floor.
	EchoOneCopy
	// EchoTwoCopy copies into a contiguous staging buffer and then into
	// pinned memory — what a copy-based library's datapath does.
	EchoTwoCopy
	// EchoLib deserializes and reserializes with the configured System.
	EchoLib
)

func (m EchoMode) String() string {
	switch m {
	case EchoNoSer:
		return "No serialization"
	case EchoZeroCopy:
		return "Zero-copy"
	case EchoOneCopy:
		return "One-copy"
	case EchoTwoCopy:
		return "Two-copy"
	default:
		return "library"
	}
}

// EchoServer is the echo application of §2.2 and §6.1.2: almost no
// application processing; the server deserializes and reserializes a list
// of fixed-size fields. It runs over either stack: Figure 9 drives it over
// TCP-lite (§6.2.3, the Demikernel TCP integration) in the modes that
// stack supports — EchoOneCopy, EchoTwoCopy, and EchoLib with Cornflakes
// or FlatBuffers.
type EchoServer struct {
	N         *Node
	Mode      EchoMode
	Sys       System // for EchoLib
	FieldSize int
	NumFields int

	Handled, Errors uint64

	rxq *sim.Queue[*mem.Buf]
}

// NewEchoServer attaches an echo server to the node's stack.
func NewEchoServer(n *Node, mode EchoMode, sys System, fieldSize, numFields int) *EchoServer {
	s := &EchoServer{N: n, Mode: mode, Sys: sys, FieldSize: fieldSize, NumFields: numFields}
	s.rxq = sim.NewQueue[*mem.Buf](n.Core, RxRingDepth, s.drain)
	n.stack.SetRecvHandler(s.onPayload)
	return s
}

func (s *EchoServer) onPayload(p *mem.Buf) {
	if !s.rxq.Push(p) {
		p.DecRef()
	}
}

// drain serves the oldest request in the RX ring.
func (s *EchoServer) drain() sim.Time {
	s.handle(s.rxq.Pop(0))
	s.N.Arena.Reset()
	return s.N.Meter.DrainTime()
}

func (s *EchoServer) handle(p *mem.Buf) {
	s.Handled++
	m := s.N.Meter
	switch s.Mode {
	case EchoNoSer:
		// Bounce the pinned RX buffer straight back.
		if err := s.N.UDP.SendPinned([]*mem.Buf{p}, true); err != nil {
			s.Errors++
		}
		p.DecRef()

	case EchoZeroCopy:
		// Respond with id + each field as its own raw gather entry.
		want := 8 + s.FieldSize*s.NumFields
		if p.Len() < want {
			s.Errors++
			p.DecRef()
			return
		}
		bufs := make([]*mem.Buf, 0, 1+s.NumFields)
		bufs = append(bufs, p.SubView(0, 8))
		for i := 0; i < s.NumFields; i++ {
			bufs = append(bufs, p.SubView(8+i*s.FieldSize, s.FieldSize))
		}
		if err := s.N.UDP.SendPinned(bufs, true); err != nil {
			s.Errors++
		}
		for _, b := range bufs {
			b.DecRef() // our view references; the NIC holds its own
		}
		p.DecRef()

	case EchoOneCopy:
		if err := s.N.stack.SendContiguous(p.Bytes(), p.SimAddr()); err != nil {
			s.Errors++
		}
		p.DecRef()

	case EchoTwoCopy:
		// First copy into a contiguous staging buffer, second copy into
		// DMA memory inside SendContiguous. The second copy reads a cached
		// source (§2.2).
		staging := s.N.Arena.Alloc(p.Len())
		m.Charge(m.CPU.ArenaAllocCy)
		m.Copy(p.SimAddr(), staging.Sim, p.Len())
		copy(staging.Data, p.Bytes())
		if err := s.N.stack.SendContiguous(staging.Data, staging.Sim); err != nil {
			s.Errors++
		}
		p.DecRef()

	case EchoLib:
		s.handleLib(p)
	}
}

// handleLib deserializes the GetM echo message and reserializes it with
// the configured library. A Cornflakes echo sets views into the received
// pinned buffer: fields at or above the threshold recover the RX RcBuf and
// echo zero-copy.
func (s *EchoServer) handleLib(p *mem.Buf) {
	req, err := s.Sys.Decode(s.N, msgs.GetMSchema, p, 0)
	if err != nil {
		s.Errors++
		return
	}
	resp := s.Sys.NewMsg(s.N, msgs.GetMSchema)
	resp.SetInt(0, req.Int(0))
	for j, n := 0, req.Len(2); j < n; j++ {
		b, sim := req.Elem(2, j)
		resp.AddBytes(2, b, sim)
	}
	if err := s.Sys.Send(resp); err != nil {
		s.Errors++
	}
	resp.Release()
	req.Release()
}

// EchoClient builds echo requests and extracts response ids.
type EchoClient struct {
	Mode      EchoMode
	Sys       System
	N         *Node
	FieldSize int
	NumFields int

	// out is the request scratch BuildStep writes into, and field the
	// library echo's field pattern.
	out, field []byte
}

// Steps implements loadgen.Client.
func (c *EchoClient) Steps(workloads.Request) int { return 1 }

// BuildStep implements loadgen.Client. The request lives in the client's
// scratch and is valid until its next BuildStep.
func (c *EchoClient) BuildStep(id uint64, _ workloads.Request, _ int) []byte {
	if c.Mode != EchoLib {
		b := append(c.out[:0], make([]byte, 8+c.FieldSize*c.NumFields)...)
		wire.PutU64(b, id)
		for i := range b[8:] {
			b[8+i] = byte(i)
		}
		c.out = b
		return b
	}
	// Library echo: a GetM with NumFields values of FieldSize bytes.
	if len(c.field) != c.FieldSize {
		c.field = make([]byte, c.FieldSize)
		for i := range c.field {
			c.field[i] = byte(i)
		}
	}
	defer c.N.Arena.Reset()
	m := c.Sys.NewMsg(c.N, msgs.GetMSchema)
	m.SetInt(0, id)
	for i := 0; i < c.NumFields; i++ {
		m.AddBytes(2, c.field, 0)
	}
	c.out = c.Sys.AppendMarshal(c.out[:0], m)
	m.Release()
	return c.out
}

// ResponseID implements loadgen.Client.
func (c *EchoClient) ResponseID(p []byte) (uint64, error) {
	if c.Mode != EchoLib {
		if len(p) < 8 {
			return 0, errShortResponse
		}
		return wire.GetU64(p), nil
	}
	id, ok := c.Sys.PeekID(p)
	if !ok {
		return 0, errShortResponse
	}
	return id, nil
}

type shortResponseError struct{}

func (shortResponseError) Error() string { return "driver: short echo response" }

var errShortResponse = shortResponseError{}
