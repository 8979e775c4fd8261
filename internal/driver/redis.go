package driver

import (
	"fmt"

	"cornflakes/internal/baselines"
	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/kvstore"
	"cornflakes/internal/mem"
	"cornflakes/internal/msgs"
	"cornflakes/internal/redis"
	"cornflakes/internal/sim"
	"cornflakes/internal/wire"
	"cornflakes/internal/workloads"
)

// RedisServer wires the mini-Redis onto a node's UDP stack. In ModeRESP
// requests are [8-byte id | RESP command] and replies [8-byte id | RESP
// reply]; in ModeCornflakes requests and replies are Cornflakes objects
// with a leading command byte, exactly like the KV application.
type RedisServer struct {
	N     *Node
	R     *redis.Server
	Store *kvstore.Store

	Errors uint64

	rxq *sim.Queue[*mem.Buf]
}

// NewRedisServer builds the server in the given mode.
func NewRedisServer(n *Node, mode redis.Mode) *RedisServer {
	store := kvstore.New(n.Alloc, n.Meter)
	s := &RedisServer{N: n, R: redis.New(store, mode), Store: store}
	s.rxq = sim.NewQueue[*mem.Buf](n.Core, RxRingDepth, s.drain)
	n.UDP.SetRecvHandler(s.onPayload)
	return s
}

// Preload loads records and clears metering state, like KVServer.Preload.
func (s *RedisServer) Preload(recs []workloads.KV) { preload(s.N, s.Store, recs) }

func (s *RedisServer) onPayload(p *mem.Buf) {
	if !s.rxq.Push(p) {
		p.DecRef()
	}
}

// drain serves the oldest request in the RX ring.
func (s *RedisServer) drain() sim.Time {
	s.handle(s.rxq.Pop(0))
	s.N.Arena.Reset()
	s.N.Meter.SetCategory(costmodel.CatRx)
	return s.N.Meter.DrainTime()
}

func (s *RedisServer) handle(p *mem.Buf) {
	if s.R.Mode == redis.ModeRESP {
		defer p.DecRef()
		id, cmd, ok := redis.DecodeRESPRequest(p.Bytes())
		if !ok {
			s.Errors++
			return
		}
		reply, sim, ok := s.R.HandleRESP(id, cmd)
		if !ok {
			s.Errors++
			return
		}
		// The reply (already id-framed) goes out on the contiguous-buffer
		// datapath Redis uses (§6.1.3).
		if err := s.N.UDP.SendContiguous(reply, sim); err != nil {
			s.Errors++
		}
		return
	}
	s.handleCF(p)
}

func (s *RedisServer) handleCF(p *mem.Buf) {
	m := s.N.Meter
	var op byte
	if p.Len() >= 2 {
		op = p.Bytes()[0]
	}
	schema := redisReqSchema(op)
	if schema == nil {
		s.Errors++
		p.DecRef()
		return
	}
	m.SetCategory(costmodel.CatDeserialize)
	msg, err := SysCornflakes.Decode(s.N, schema, p, 1)
	if err != nil {
		s.Errors++
		return
	}
	defer msg.Release()
	req := redis.CFRequest{ID: msg.Int(0)}
	switch op {
	case redis.CmdMGet:
		for j, n := 0, msg.Len(1); j < n; j++ {
			key, _ := msg.Elem(1, j)
			req.Keys = append(req.Keys, key)
		}
	case redis.CmdSet:
		req.Key, req.Val = msg.Bytes(1), msg.Bytes(2)
	default:
		req.Key = msg.Bytes(1)
	}

	m.SetCategory(costmodel.CatApp)
	reply := s.R.HandleCF(op, req)
	m.SetCategory(costmodel.CatSerialize)
	var resp Msg
	switch {
	case reply.OK:
		resp = SysCornflakes.NewMsg(s.N, msgs.PutRespSchema)
		resp.SetInt(0, reply.ID)
		resp.SetInt(1, 1)
	case reply.Multi:
		resp = SysCornflakes.NewMsg(s.N, msgs.GetListRespSchema)
		resp.SetInt(0, reply.ID)
		for _, v := range reply.Vals {
			if v != nil {
				resp.AddBytes(1, v.Bytes(), v.SimAddr())
			}
		}
	default:
		resp = SysCornflakes.NewMsg(s.N, msgs.GetRespSchema)
		resp.SetInt(0, reply.ID)
		if len(reply.Vals) == 1 && reply.Vals[0] != nil {
			resp.SetBytes(1, reply.Vals[0].Bytes(), reply.Vals[0].SimAddr())
		}
	}
	if err := SysCornflakes.Send(resp); err != nil {
		s.Errors++
	}
	resp.Release()
	m.SetCategory(costmodel.CatTx)
}

// redisReqSchema maps a Cornflakes-mode command byte to its request schema.
func redisReqSchema(cmd byte) *core.Schema {
	switch cmd {
	case redis.CmdGet, redis.CmdLRange:
		return msgs.GetReqSchema
	case redis.CmdMGet:
		return msgs.GetMSchema
	case redis.CmdSet:
		return msgs.PutReqSchema
	}
	return nil
}

// RedisClient encodes workload requests as Redis commands for either mode.
type RedisClient struct {
	Mode redis.Mode
	N    *Node
}

// NewRedisClient builds the codec.
func NewRedisClient(n *Node, mode redis.Mode) *RedisClient {
	return &RedisClient{Mode: mode, N: n}
}

// Steps implements loadgen.Client.
func (c *RedisClient) Steps(workloads.Request) int { return 1 }

// BuildStep implements loadgen.Client.
func (c *RedisClient) BuildStep(id uint64, req workloads.Request, _ int) []byte {
	m := c.N.Meter
	if c.Mode == redis.ModeRESP {
		switch req.Op {
		case workloads.OpGet:
			return redis.EncodeRESPRequest(m, id, []byte("GET"), req.Keys[0])
		case workloads.OpGetM:
			args := append([][]byte{[]byte("MGET")}, req.Keys...)
			return redis.EncodeRESPRequest(m, id, args...)
		case workloads.OpGetList:
			return redis.EncodeRESPRequest(m, id, []byte("LRANGE"), req.Keys[0], []byte("0"), []byte("-1"))
		default: // put
			return redis.EncodeRESPRequest(m, id, []byte("SET"), req.Keys[0], req.Vals[0])
		}
	}
	defer c.N.Arena.Reset()
	var cmd byte
	switch req.Op {
	case workloads.OpGet:
		cmd = redis.CmdGet
	case workloads.OpGetM:
		cmd = redis.CmdMGet
	case workloads.OpGetList:
		cmd = redis.CmdLRange
	default:
		cmd = redis.CmdSet
	}
	msg := SysCornflakes.NewMsg(c.N, redisReqSchema(cmd))
	msg.SetInt(0, id)
	switch cmd {
	case redis.CmdMGet:
		for _, k := range req.Keys {
			msg.AddBytes(1, k, 0)
		}
	case redis.CmdSet:
		msg.SetBytes(1, req.Keys[0], 0)
		msg.SetBytes(2, req.Vals[0], 0)
	default:
		msg.SetBytes(1, req.Keys[0], 0)
	}
	out := append([]byte{cmd}, SysCornflakes.Marshal(msg)...)
	msg.Release()
	return out
}

// ResponseID implements loadgen.Client.
func (c *RedisClient) ResponseID(p []byte) (uint64, error) {
	if c.Mode == redis.ModeRESP {
		if len(p) < 8 {
			return 0, fmt.Errorf("driver: short redis response")
		}
		return wire.GetU64(p), nil
	}
	id, ok := SysCornflakes.PeekID(p)
	if !ok {
		return 0, fmt.Errorf("driver: bad cornflakes redis response")
	}
	return id, nil
}

// ParseRESPReply decodes a framed RESP reply for validation in tests.
func ParseRESPReply(m *costmodel.Meter, p []byte) (uint64, baselines.RESPValue, error) {
	if len(p) < 9 {
		return 0, baselines.RESPValue{}, fmt.Errorf("short reply")
	}
	id := wire.GetU64(p)
	v, _, err := baselines.RESPParse(p[8:], m)
	return id, v, err
}
