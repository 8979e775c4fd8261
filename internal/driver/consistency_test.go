package driver

import (
	"bytes"
	"fmt"
	"testing"

	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/mem"
	"cornflakes/internal/msgs"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// Cross-system consistency: the same store queried through every
// serialization system must return byte-identical values. This pins the
// whole functional layer — request encoding, server dispatch, response
// serialization, client decode — across all four wire formats.
func TestAllSystemsReturnIdenticalData(t *testing.T) {
	// Fixed records with distinctive contents.
	var recs []workloads.KV
	for i := 0; i < 8; i++ {
		recs = append(recs, workloads.KV{
			Key: []byte(fmt.Sprintf("ckey-%02d", i)),
			Vals: [][]byte{
				bytes.Repeat([]byte{byte(i + 1)}, 300+i*137),
				bytes.Repeat([]byte{byte(0xA0 + i)}, 900+i*53),
			},
		})
	}

	// fetch sends one request through sys and returns a copy of each
	// element of the reply's repeated field.
	fetch := func(sys System, req workloads.Request, schema *core.Schema, field int) [][]byte {
		tb := NewTestbed(nic.MellanoxCX6())
		srv := NewKVServer(tb.Server, sys)
		srv.Preload(recs)
		client := NewKVClient(tb.Client, sys)
		var vals [][]byte
		tb.Client.UDP.SetRecvHandler(func(p *mem.Buf) {
			m, err := sys.Decode(tb.Client, schema, p, 0)
			if err != nil {
				t.Errorf("%s: decode: %v", sys, err)
				return
			}
			for j := 0; j < m.Len(field); j++ {
				b, _ := m.Elem(field, j)
				vals = append(vals, append([]byte(nil), b...))
			}
			m.Release()
		})
		payload := client.BuildStep(1, req, 0)
		tb.Client.UDP.SendContiguous(payload, mem.UnpinnedSimAddr(payload))
		tb.Eng.Run()
		return vals
	}

	// Inputs: a list get per record (every segment of its value), and one
	// multi-get over three keys (the first segment of each value).
	type input struct {
		name   string
		req    workloads.Request
		schema *core.Schema
		field  int
		want   [][]byte
	}
	var inputs []input
	for _, rec := range recs {
		inputs = append(inputs, input{"GetList " + string(rec.Key),
			workloads.Request{Op: workloads.OpGetList, Keys: [][]byte{rec.Key}},
			msgs.GetListRespSchema, 1, rec.Vals})
	}
	multi := input{name: "GetM", schema: msgs.GetMSchema, field: 2}
	multi.req.Op = workloads.OpGetM
	for _, i := range []int{5, 0, 3} {
		multi.req.Keys = append(multi.req.Keys, recs[i].Key)
		multi.want = append(multi.want, recs[i].Vals[0])
	}
	inputs = append(inputs, multi)

	for _, in := range inputs {
		for _, sys := range AllSystems() {
			got := fetch(sys, in.req, in.schema, in.field)
			if len(got) != len(in.want) {
				t.Fatalf("%s: %s returned %d values, want %d", in.name, sys, len(got), len(in.want))
			}
			for j := range in.want {
				if !bytes.Equal(got[j], in.want[j]) {
					t.Fatalf("%s: %s value %d differs from stored data", in.name, sys, j)
				}
			}
		}
	}
}

// The Figure 11 receipt plumbing: per-request receipts must cover all the
// work (sum over receipts ≈ core busy time).
func TestReceiptsAccountForBusyTime(t *testing.T) {
	gen := workloads.NewYCSB(200, 1024, 2)
	tb := NewTestbed(nic.MellanoxCX6())
	srv := NewKVServer(tb.Server, SysCornflakes)
	var totalCy float64
	srv.OnReceipt = func(r costmodel.Receipt) { totalCy += r.Total() }
	srv.Preload(gen.Records())
	loadgen.Run(loadgen.Config{
		Eng: tb.Eng, EP: tb.Client.UDP,
		Gen: gen, Client: NewKVClient(tb.Client, SysCornflakes),
		RatePerS: 50_000, Warmup: sim.Millisecond, Measure: 5 * sim.Millisecond, Seed: 8,
	})
	busyCy := tb.Server.Core.BusyTime.Nanoseconds() * tb.Server.Meter.CPU.FreqGHz
	if totalCy == 0 || busyCy == 0 {
		t.Fatal("no work recorded")
	}
	ratio := totalCy / busyCy
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("receipts cover %.2fx of core busy time, want ~1.0", ratio)
	}
}

// Adaptive + segmented + COW combined smoke: the extensions compose.
func TestExtensionsCompose(t *testing.T) {
	tb := NewTestbed(nic.MellanoxCX6())
	ctx := tb.Server.Ctx
	cow := ctx.NewCOWPtr(bytes.Repeat([]byte{1}, 2048))
	m := core.NewMessage(msgs.GetRespSchema, ctx)
	m.SetInt(0, 1)
	m.SetBytes(1, cow.Ptr())
	cow.Update(bytes.Repeat([]byte{2}, 2048))
	if err := tb.Server.UDP.SendObject(m); err != nil {
		t.Fatal(err)
	}
	var got []byte
	tb.Client.UDP.SetRecvHandler(func(p *mem.Buf) {
		msg, err := tb.Client.Ctx.DeserializeBytes(msgs.GetRespSchema, p.Bytes())
		if err == nil {
			got = append([]byte(nil), msg.GetBytes(1)...)
		}
		p.DecRef()
	})
	tb.Eng.Run()
	if len(got) != 2048 || got[0] != 1 {
		t.Error("COW snapshot not preserved through send")
	}
	m.Release()
	cow.Release()
}
