// Library micro-benchmarks: the wall-clock cost of the serialization
// library, the baseline codecs and the pinned allocator themselves (the
// virtual-time substrate measures the modelled system; these measure the
// code). Run them with:
//
//	go test -run '^$' -bench . -benchmem .
//
// End-to-end host cost per simulated request is measured by the benchmark
// in bench/ (see bench/README.md); every experiment's shape checks run in
// go test ./internal/experiments.
package cornflakes_test

import (
	"testing"

	"cornflakes/internal/baselines"
	"cornflakes/internal/cachesim"
	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
	"cornflakes/internal/msgs"
)

func benchCtx() *core.Ctx {
	alloc := mem.NewAllocator()
	arena := mem.NewArena(256 << 10)
	meter := costmodel.NewMeter(costmodel.DefaultCPU(), cachesim.New(cachesim.DefaultConfig()))
	return core.NewCtx(alloc, arena, meter)
}

func BenchmarkCFPtrCopyPath(b *testing.B) {
	ctx := benchCtx()
	data := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.NewCFPtr(data)
		if i%1024 == 0 {
			ctx.Arena.Reset()
		}
	}
}

func BenchmarkCFPtrZeroCopyPath(b *testing.B) {
	ctx := benchCtx()
	buf := ctx.Alloc.Alloc(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ctx.NewCFPtr(buf.Bytes())
		p.Release(ctx.Meter)
	}
}

func buildGetM(ctx *core.Ctx, val []byte) msgs.GetM {
	m := msgs.NewGetM(ctx)
	m.SetId(7)
	m.AppendKeys(ctx.NewCFPtr([]byte("benchmark-key-000000000000000")))
	m.AppendVals(ctx.NewCFPtr(val))
	return m
}

func BenchmarkCornflakesMarshal(b *testing.B) {
	ctx := benchCtx()
	val := ctx.Alloc.Alloc(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := buildGetM(ctx, val.Bytes())
		out := core.Marshal(m.Obj())
		m.Release()
		ctx.Arena.Reset()
		_ = out
	}
}

func BenchmarkCornflakesDeserialize(b *testing.B) {
	ctx := benchCtx()
	val := ctx.Alloc.Alloc(2048)
	m := buildGetM(ctx, val.Bytes())
	data := core.Marshal(m.Obj())
	buf := ctx.Alloc.Alloc(len(data))
	copy(buf.Bytes(), data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ctx.DeserializeBytes(msgs.GetMSchema, buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		_ = got.GetBytesElem(2, 0)
	}
}

func benchDoc() *baselines.Doc {
	d := baselines.NewDoc(msgs.GetMSchema)
	d.SetInt(0, 7)
	d.AddBytes(1, []byte("benchmark-key-000000000000000"), 0)
	d.AddBytes(2, make([]byte, 2048), 0)
	return d
}

func BenchmarkProtoliteMarshal(b *testing.B) {
	m := costmodel.NewMeter(costmodel.DefaultCPU(), cachesim.New(cachesim.DefaultConfig()))
	d := benchDoc()
	buf := make([]byte, baselines.ProtoSize(d, m))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.ProtoMarshal(d, buf, 0, m)
	}
}

func BenchmarkFBLiteBuild(b *testing.B) {
	m := costmodel.NewMeter(costmodel.DefaultCPU(), cachesim.New(cachesim.DefaultConfig()))
	d := benchDoc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.FBBuild(d, m)
	}
}

func BenchmarkCapnpLiteBuild(b *testing.B) {
	m := costmodel.NewMeter(costmodel.DefaultCPU(), cachesim.New(cachesim.DefaultConfig()))
	d := benchDoc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.CapnpBuild(d, m)
	}
}

func BenchmarkPinnedAllocFree(b *testing.B) {
	alloc := mem.NewAllocator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := alloc.Alloc(2048)
		buf.DecRef()
	}
}

func BenchmarkRecoverPtr(b *testing.B) {
	alloc := mem.NewAllocator()
	buf := alloc.Alloc(4096)
	view := buf.Bytes()[512:1536]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, ok := alloc.RecoverPtr(view)
		if !ok {
			b.Fatal("recover failed")
		}
		r.DecRef()
	}
}
