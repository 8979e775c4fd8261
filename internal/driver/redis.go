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
}

// NewRedisServer builds the server in the given mode.
func NewRedisServer(n *Node, mode redis.Mode) *RedisServer {
	store := kvstore.New(n.Alloc, n.Meter)
	s := &RedisServer{N: n, R: redis.New(store, mode), Store: store}
	n.UDP.SetRecvHandler(s.onPayload)
	return s
}

// Preload loads records and clears metering state, like KVServer.Preload.
func (s *RedisServer) Preload(recs []workloads.KV) { preload(s.N, s.Store, recs) }

func (s *RedisServer) onPayload(p *mem.Buf) {
	ok := s.N.Core.Submit(sim.Job{Run: func() sim.Time {
		s.handle(p)
		s.N.Arena.Reset()
		s.N.Meter.SetCategory(costmodel.CatRx)
		return s.N.Meter.DrainTime()
	}})
	if !ok {
		p.DecRef()
	}
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
	ctx := s.N.Ctx
	m := s.N.Meter
	if p.Len() < 2 {
		s.Errors++
		p.DecRef()
		return
	}
	op := p.Bytes()[0]
	body := p.SubView(1, p.Len()-1)
	p.DecRef()

	var req redis.CFRequest
	m.SetCategory(costmodel.CatDeserialize)
	switch op {
	case redis.CmdGet, redis.CmdLRange:
		msg, err := msgs.DeserializeGetReq(ctx, body)
		if err != nil {
			s.Errors++
			body.DecRef()
			return
		}
		req = redis.CFRequest{ID: msg.Id(), Key: msg.Key()}
		defer msg.Release()
	case redis.CmdMGet:
		msg, err := msgs.DeserializeGetM(ctx, body)
		if err != nil {
			s.Errors++
			body.DecRef()
			return
		}
		req = redis.CFRequest{ID: msg.Id()}
		for j := 0; j < msg.KeysLen(); j++ {
			req.Keys = append(req.Keys, msg.Keys(j))
		}
		defer msg.Release()
	case redis.CmdSet:
		msg, err := msgs.DeserializePutReq(ctx, body)
		if err != nil {
			s.Errors++
			body.DecRef()
			return
		}
		req = redis.CFRequest{ID: msg.Id(), Key: msg.Key(), Val: msg.Val()}
		defer msg.Release()
	default:
		s.Errors++
		body.DecRef()
		return
	}

	m.SetCategory(costmodel.CatApp)
	reply := s.R.HandleCF(op, req)
	m.SetCategory(costmodel.CatSerialize)
	switch {
	case reply.OK:
		resp := msgs.NewPutResp(ctx)
		resp.SetId(reply.ID)
		resp.SetOk(1)
		s.send(resp.Obj())
		resp.Release()
	case reply.Multi:
		resp := msgs.NewGetListResp(ctx)
		resp.SetId(reply.ID)
		for _, v := range reply.Vals {
			if v != nil {
				resp.AppendVals(ctx.NewCFPtr(v.Bytes()))
			}
		}
		s.send(resp.Obj())
		resp.Release()
	default:
		resp := msgs.NewGetResp(ctx)
		resp.SetId(reply.ID)
		if len(reply.Vals) == 1 && reply.Vals[0] != nil {
			resp.SetVal(ctx.NewCFPtr(reply.Vals[0].Bytes()))
		}
		s.send(resp.Obj())
		resp.Release()
	}
	m.SetCategory(costmodel.CatTx)
}

func (s *RedisServer) send(obj core.Obj) {
	if err := s.N.UDP.SendObject(obj); err != nil {
		s.Errors++
	}
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
	ctx := c.N.Ctx
	defer c.N.Arena.Reset()
	switch req.Op {
	case workloads.OpGet:
		msg := msgs.NewGetReq(ctx)
		msg.SetId(id)
		msg.SetKey(ctx.NewCFPtr(req.Keys[0]))
		return append([]byte{redis.CmdGet}, core.Marshal(msg.Obj())...)
	case workloads.OpGetM:
		msg := msgs.NewGetM(ctx)
		msg.SetId(id)
		for _, k := range req.Keys {
			msg.AppendKeys(ctx.NewCFPtr(k))
		}
		return append([]byte{redis.CmdMGet}, core.Marshal(msg.Obj())...)
	case workloads.OpGetList:
		msg := msgs.NewGetReq(ctx)
		msg.SetId(id)
		msg.SetKey(ctx.NewCFPtr(req.Keys[0]))
		return append([]byte{redis.CmdLRange}, core.Marshal(msg.Obj())...)
	default:
		msg := msgs.NewPutReq(ctx)
		msg.SetId(id)
		msg.SetKey(ctx.NewCFPtr(req.Keys[0]))
		msg.SetVal(ctx.NewCFPtr(req.Vals[0]))
		return append([]byte{redis.CmdSet}, core.Marshal(msg.Obj())...)
	}
}

// ResponseID implements loadgen.Client.
func (c *RedisClient) ResponseID(p []byte) (uint64, error) {
	if c.Mode == redis.ModeRESP {
		if len(p) < 8 {
			return 0, fmt.Errorf("driver: short redis response")
		}
		return wire.GetU64(p), nil
	}
	id, ok := core.PeekID(p)
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
