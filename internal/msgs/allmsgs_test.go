package msgs

import (
	"bytes"
	"testing"

	"cornflakes/internal/core"
)

// Round-trip every generated message type through the real wire format,
// exercising the full generated accessor surface.

func marshalInto(t *testing.T, ctx *core.Ctx, obj *core.Message, schema *core.Schema) *core.Message {
	t.Helper()
	data := core.Marshal(obj)
	buf := ctx.Alloc.Alloc(len(data))
	copy(buf.Bytes(), data)
	m, err := ctx.Deserialize(schema, buf)
	if err != nil {
		t.Fatalf("deserialize %s: %v", schema.Name, err)
	}
	return m
}

func TestGetReqResp(t *testing.T) {
	ctx := testCtx()
	req := NewGetReq(ctx)
	req.SetId(11)
	req.SetKey(ctx.NewCFPtr([]byte("the-key")))
	got := GetReq{M: marshalInto(t, ctx, req.Obj(), GetReqSchema)}
	if got.Id() != 11 || string(got.Key()) != "the-key" {
		t.Errorf("GetReq round trip: id=%d key=%q", got.Id(), got.Key())
	}

	resp := NewGetResp(ctx)
	resp.SetId(11)
	resp.SetVal(ctx.NewCFPtr(bytes.Repeat([]byte{5}, 640)))
	gotR := GetResp{M: marshalInto(t, ctx, resp.Obj(), GetRespSchema)}
	if gotR.Id() != 11 || len(gotR.Val()) != 640 {
		t.Errorf("GetResp round trip: id=%d len=%d", gotR.Id(), len(gotR.Val()))
	}
	got.Release()
	gotR.Release()
}

func TestPutReqResp(t *testing.T) {
	ctx := testCtx()
	req := NewPutReq(ctx)
	req.SetId(12)
	req.SetKey(ctx.NewCFPtr([]byte("put-key")))
	req.SetVal(ctx.NewCFPtr([]byte("put-val")))
	got := PutReq{M: marshalInto(t, ctx, req.Obj(), PutReqSchema)}
	if got.Id() != 12 || string(got.Key()) != "put-key" || string(got.Val()) != "put-val" {
		t.Error("PutReq round trip wrong")
	}
	resp := NewPutResp(ctx)
	resp.SetId(12)
	resp.SetOk(1)
	gotR := PutResp{M: marshalInto(t, ctx, resp.Obj(), PutRespSchema)}
	if gotR.Id() != 12 || gotR.Ok() != 1 {
		t.Error("PutResp round trip wrong")
	}
}

func TestGetListReqResp(t *testing.T) {
	ctx := testCtx()
	req := NewGetListReq(ctx)
	req.SetId(13)
	req.SetKey(ctx.NewCFPtr([]byte("list-key")))
	req.SetIndex(4)
	got := GetListReq{M: marshalInto(t, ctx, req.Obj(), GetListReqSchema)}
	if got.Id() != 13 || string(got.Key()) != "list-key" || got.Index() != 4 {
		t.Error("GetListReq round trip wrong")
	}
	resp := NewGetListResp(ctx)
	resp.SetId(13)
	for i := 0; i < 5; i++ {
		resp.AppendVals(ctx.NewCFPtr(bytes.Repeat([]byte{byte(i)}, 100+i*200)))
	}
	gotR := GetListResp{M: marshalInto(t, ctx, resp.Obj(), GetListRespSchema)}
	if gotR.ValsLen() != 5 {
		t.Fatalf("vals len %d", gotR.ValsLen())
	}
	for i := 0; i < 5; i++ {
		v := gotR.Vals(i)
		if len(v) != 100+i*200 || v[0] != byte(i) {
			t.Errorf("val %d wrong (%d bytes)", i, len(v))
		}
	}
}

func TestKVEntryStandalone(t *testing.T) {
	ctx := testCtx()
	e := NewKVEntry(ctx)
	e.SetKey(ctx.NewCFPtr([]byte("entry-key")))
	e.SetVal(ctx.NewCFPtr([]byte("entry-val")))
	e.SetVersion(9000)
	got := KVEntry{M: marshalInto(t, ctx, e.Obj(), KVEntrySchema)}
	if string(got.Key()) != "entry-key" || string(got.Val()) != "entry-val" || got.Version() != 9000 {
		t.Error("KVEntry round trip wrong")
	}
}

func TestGetMFull(t *testing.T) {
	ctx := testCtx()
	m := NewGetM(ctx)
	m.SetId(77)
	for i := 0; i < 4; i++ {
		m.AppendKeys(ctx.NewCFPtr([]byte{byte('a' + i)}))
		m.AppendVals(ctx.NewCFPtr(bytes.Repeat([]byte{byte(i)}, 256<<i)))
	}
	got := GetM{M: marshalInto(t, ctx, m.Obj(), GetMSchema)}
	if got.Id() != 77 || got.KeysLen() != 4 || got.ValsLen() != 4 {
		t.Fatal("GetM structure wrong")
	}
	for i := 0; i < 4; i++ {
		if got.Keys(i)[0] != byte('a'+i) {
			t.Errorf("key %d wrong", i)
		}
		if len(got.Vals(i)) != 256<<i {
			t.Errorf("val %d len %d", i, len(got.Vals(i)))
		}
	}
}

func TestAllSchemasValid(t *testing.T) {
	for _, s := range []*core.Schema{
		GetReqSchema, GetRespSchema, GetMSchema, PutReqSchema, PutRespSchema,
		GetListReqSchema, GetListRespSchema, KVEntrySchema, BatchSchema,
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("schema %s invalid: %v", s.Name, err)
		}
	}
}
