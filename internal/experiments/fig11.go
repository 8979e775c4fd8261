package experiments

import (
	"cornflakes/internal/costmodel"
	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/workloads"
)

// Fig11 reproduces Figure 11: average CPU cycles per request on the CDN
// trace, broken down into receive, deserialize, get, and serialize+send,
// at a fixed moderate load. Paper: Cornflakes' deserialization slice is
// shorter (deferred UTF-8 validation) and its serialize+send slice shrinks
// because zero-copy avoids touching value bytes.
func Fig11(sc Scale) *Report {
	r := &Report{
		ID:     "fig11",
		Title:  "CDN trace: avg cycles per request by phase",
		Header: []string{"system", "rx", "deserialize", "get", "serialize+tx", "total"},
	}
	measure := func(sys driver.System) costmodel.Receipt {
		tb := driver.NewTestbedCfg(nic.MellanoxCX6(), expCacheConfig())
		srv := driver.NewKVServer(tb.Server, sys)
		var sum costmodel.Receipt
		var n float64
		srv.OnReceipt = func(rec costmodel.Receipt) {
			sum.Add(rec)
			n++
		}
		gen := workloads.NewCDN(sc.StoreKeys, 8000, 256<<10, 120)
		srv.Preload(gen.Records())
		loadgen.Run(sc.withWindow(loadgen.Config{
			Eng: tb.Eng, EP: tb.Client.UDP,
			Gen: gen, Client: driver.NewKVClient(tb.Client, sys),
			RatePerS: 20_000,
			Seed:     121,
		}))
		sum.Scale(n)
		return sum
	}
	systems := []driver.System{driver.SysCornflakes, driver.SysFlatBuffers, driver.SysProtobuf}
	perSys := make([]costmodel.Receipt, len(systems))
	forEach(sc.workers(), len(systems), func(i int) {
		perSys[i] = measure(systems[i])
	})
	recs := map[driver.System]costmodel.Receipt{}
	for i, sys := range systems {
		rec := perSys[i]
		recs[sys] = rec
		ser := rec.Cycles[costmodel.CatSerialize] + rec.Cycles[costmodel.CatTx]
		r.Rows = append(r.Rows, []string{
			sys.String(),
			f1(rec.Cycles[costmodel.CatRx]),
			f1(rec.Cycles[costmodel.CatDeserialize]),
			f1(rec.Cycles[costmodel.CatApp]),
			f1(ser),
			f1(rec.Total()),
		})
	}
	cf, fb, pb := recs[driver.SysCornflakes], recs[driver.SysFlatBuffers], recs[driver.SysProtobuf]
	serOf := func(rec costmodel.Receipt) float64 {
		return rec.Cycles[costmodel.CatSerialize] + rec.Cycles[costmodel.CatTx]
	}
	r.AddCheck("Cornflakes serializes in far fewer cycles (zero-copy)",
		serOf(cf) < 0.7*serOf(fb) && serOf(cf) < 0.7*serOf(pb),
		"CF %.0f vs FB %.0f vs PB %.0f cycles", serOf(cf), serOf(fb), serOf(pb))
	r.AddCheck("Cornflakes total per-request cycles lowest",
		cf.Total() < fb.Total() && cf.Total() < pb.Total(),
		"CF %.0f vs FB %.0f vs PB %.0f", cf.Total(), fb.Total(), pb.Total())
	r.AddCheck("Cornflakes deserialization not slower (deferred UTF-8)",
		cf.Cycles[costmodel.CatDeserialize] <= fb.Cycles[costmodel.CatDeserialize]*1.1,
		"CF %.0f vs FB %.0f", cf.Cycles[costmodel.CatDeserialize], fb.Cycles[costmodel.CatDeserialize])
	r.Notes = append(r.Notes,
		"minimum object size 1 kB, so Cornflakes always uses zero-copy here (§6.4)")
	return r
}
