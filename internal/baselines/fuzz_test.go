package baselines

import (
	"testing"

	"cornflakes/internal/core"
)

// Native fuzz targets for every decoder: the seeds run under plain
// `go test`; fuzz further with e.g.
//
//	go test -fuzz FuzzProtoUnmarshal -fuzztime 30s ./internal/baselines
//
// The invariant in every case: arbitrary input may be rejected but must
// never panic or read out of bounds.

func fuzzSchema() *core.Schema {
	inner := &core.Schema{Name: "I", Fields: []core.Field{
		{Name: "x", Kind: core.KindInt},
		{Name: "b", Kind: core.KindBytes},
	}}
	return &core.Schema{Name: "F", Fields: []core.Field{
		{Name: "id", Kind: core.KindInt},
		{Name: "s", Kind: core.KindString},
		{Name: "blobs", Kind: core.KindBytesList},
		{Name: "nums", Kind: core.KindIntList},
		{Name: "sub", Kind: core.KindNested, Nested: inner},
		{Name: "subs", Kind: core.KindNestedList, Nested: inner},
	}}
}

func fuzzSeed() []byte {
	m := testMeter()
	d := NewDoc(fuzzSchema())
	d.SetInt(0, 42)
	d.SetBytes(1, []byte("seed-string"), 0)
	d.AddBytes(2, []byte("blob"), 0)
	d.AddInt(3, 7)
	sub := NewDoc(fuzzSchema().Fields[4].Nested)
	sub.SetInt(0, 1)
	d.SetNested(4, sub)
	buf := make([]byte, ProtoSize(d, m))
	ProtoMarshal(d, buf, 0, m)
	return buf
}

func FuzzProtoUnmarshal(f *testing.F) {
	f.Add(fuzzSeed())
	f.Add([]byte{})
	f.Add([]byte{0x08, 0x96, 0x01})
	schema := fuzzSchema()
	f.Fuzz(func(t *testing.T, data []byte) {
		m := testMeter()
		doc, err := ProtoUnmarshal(schema, data, 0, m)
		if err == nil && doc == nil {
			t.Fatal("nil doc without error")
		}
	})
}

func FuzzFBDecode(f *testing.F) {
	m := testMeter()
	d := NewDoc(fuzzSchema())
	d.SetInt(0, 1)
	d.AddBytes(2, []byte("x"), 0)
	f.Add(FBBuild(d, m))
	f.Add([]byte{0, 0, 0, 0})
	schema := fuzzSchema()
	f.Fuzz(func(t *testing.T, data []byte) {
		mm := testMeter()
		doc, err := FBDecode(schema, data, 0, mm)
		if err == nil && doc == nil {
			t.Fatal("nil doc without error")
		}
	})
}

func FuzzCapnpDecode(f *testing.F) {
	m := testMeter()
	d := NewDoc(fuzzSchema())
	d.SetInt(0, 1)
	d.AddBytes(2, []byte("y"), 0)
	cm := CapnpBuild(d, m)
	var fr CapnpFrame
	CapnpFlatten(&fr, cm)
	var wire []byte
	for _, s := range fr.Segs {
		wire = append(wire, s...)
	}
	f.Add(wire)
	f.Add([]byte{1, 0, 0, 0, 8, 0, 0, 0})
	schema := fuzzSchema()
	f.Fuzz(func(t *testing.T, data []byte) {
		mm := testMeter()
		doc, err := CapnpDecode(schema, data, 0, mm)
		if err == nil && doc == nil {
			t.Fatal("nil doc without error")
		}
	})
}

func FuzzRESPParse(f *testing.F) {
	m := testMeter()
	f.Add(RESPEncodeCommand(m, []byte("GET"), []byte("key")))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"))
	f.Add([]byte("+OK\r\n"))
	f.Add([]byte("$-1\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		mm := testMeter()
		RESPParse(data, mm) // must not panic
	})
}
