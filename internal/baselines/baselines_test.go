package baselines

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
)

func testMeter() *costmodel.Meter {
	return costmodel.NewMeter(costmodel.DefaultCPU(), cachesim.New(cachesim.DefaultConfig()))
}

func nestedSchema() (*core.Schema, *core.Schema) {
	inner := &core.Schema{Name: "Inner", Fields: []core.Field{
		{Name: "x", Kind: core.KindInt},
		{Name: "blob", Kind: core.KindBytes},
	}}
	outer := &core.Schema{Name: "Outer", Fields: []core.Field{
		{Name: "id", Kind: core.KindInt},
		{Name: "name", Kind: core.KindString},
		{Name: "keys", Kind: core.KindBytesList},
		{Name: "tags", Kind: core.KindStringList},
		{Name: "nums", Kind: core.KindIntList},
		{Name: "one", Kind: core.KindNested, Nested: inner},
		{Name: "many", Kind: core.KindNestedList, Nested: inner},
	}}
	return outer, inner
}

func sampleDoc() *Doc {
	outer, inner := nestedSchema()
	d := NewDoc(outer)
	d.SetInt(0, 1234567890123)
	d.SetBytes(1, []byte("hello-name"), 0)
	d.AddBytes(2, []byte("key-a"), 0)
	d.AddBytes(2, bytes.Repeat([]byte{0xAB}, 300), 0)
	d.AddBytes(3, []byte("tag-one"), 0)
	d.AddInt(4, 7)
	d.AddInt(4, 1<<40)
	sub := NewDoc(inner)
	sub.SetInt(0, 99)
	sub.SetBytes(1, []byte("inner-blob"), 0)
	d.SetNested(5, sub)
	for i := 0; i < 3; i++ {
		e := NewDoc(inner)
		e.SetInt(0, uint64(i))
		e.SetBytes(1, bytes.Repeat([]byte{byte(i)}, 20+i*13), 0)
		d.AddNested(6, e)
	}
	return d
}

func randomDoc(r *rand.Rand) *Doc {
	outer, inner := nestedSchema()
	d := NewDoc(outer)
	if r.IntN(2) == 0 {
		d.SetInt(0, r.Uint64())
	}
	if r.IntN(2) == 0 {
		d.SetBytes(1, []byte("name"), 0)
	}
	for i := 0; i < r.IntN(4); i++ {
		b := make([]byte, r.IntN(600))
		for j := range b {
			b[j] = byte(r.Uint32())
		}
		d.AddBytes(2, b, 0)
	}
	for i := 0; i < r.IntN(3); i++ {
		d.AddInt(4, r.Uint64())
	}
	if r.IntN(2) == 0 {
		sub := NewDoc(inner)
		sub.SetInt(0, r.Uint64())
		d.SetNested(5, sub)
	}
	for i := 0; i < r.IntN(3); i++ {
		e := NewDoc(inner)
		e.SetBytes(1, []byte{byte(i), 2, 3}, 0)
		d.AddNested(6, e)
	}
	return d
}

// --- varint ---

func TestVarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 14, 1<<64 - 1}
	buf := make([]byte, 10)
	for _, v := range cases {
		n := putVarint(buf, v)
		if n != varintLen(v) {
			t.Errorf("varintLen(%d) = %d but wrote %d", v, varintLen(v), n)
		}
		got, gn := getVarint(buf[:n])
		if got != v || gn != n {
			t.Errorf("varint %d -> %d (%d bytes)", v, got, gn)
		}
	}
}

func TestVarintTruncated(t *testing.T) {
	buf := make([]byte, 10)
	n := putVarint(buf, 1<<40)
	if _, gn := getVarint(buf[:n-1]); gn != 0 {
		t.Error("truncated varint accepted")
	}
}

func TestVarintProperty(t *testing.T) {
	buf := make([]byte, 10)
	f := func(v uint64) bool {
		n := putVarint(buf, v)
		got, gn := getVarint(buf[:n])
		return got == v && gn == n && n == varintLen(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- protolite ---

func TestProtoRoundTrip(t *testing.T) {
	m := testMeter()
	d := sampleDoc()
	size := ProtoSize(d, m)
	buf := make([]byte, size)
	n := ProtoMarshal(d, buf, mem.UnpinnedSimAddr(buf), m)
	if n != size {
		t.Fatalf("wrote %d bytes, size pass said %d", n, size)
	}
	got, err := ProtoUnmarshal(d.Schema, buf, mem.UnpinnedSimAddr(buf), m)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(got) {
		t.Errorf("round trip mismatch:\n in: %v\nout: %v", d, got)
	}
}

func TestProtoEmptyDoc(t *testing.T) {
	m := testMeter()
	outer, _ := nestedSchema()
	d := NewDoc(outer)
	size := ProtoSize(d, m)
	if size != 0 {
		t.Errorf("empty doc size %d", size)
	}
	got, err := ProtoUnmarshal(outer, nil, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(got) {
		t.Error("empty doc mismatch")
	}
}

func TestProtoRejectsCorrupt(t *testing.T) {
	m := testMeter()
	d := sampleDoc()
	buf := make([]byte, ProtoSize(d, m))
	ProtoMarshal(d, buf, 0, m)
	for i := 0; i < len(buf); i += 7 {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0xFF
		// Must never panic; error or lossy parse both acceptable.
		ProtoUnmarshal(d.Schema, bad, 0, m)
	}
	// Truncations.
	for n := 0; n < len(buf); n += 11 {
		ProtoUnmarshal(d.Schema, buf[:n], 0, m)
	}
}

func TestProtoRandomRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	m := testMeter()
	for i := 0; i < 50; i++ {
		d := randomDoc(r)
		buf := make([]byte, ProtoSize(d, m))
		n := ProtoMarshal(d, buf, 0, m)
		got, err := ProtoUnmarshal(d.Schema, buf[:n], 0, m)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if !d.Equal(got) {
			t.Fatalf("doc %d mismatch", i)
		}
	}
}

func TestProtoChargesVarintWork(t *testing.T) {
	m := testMeter()
	d := sampleDoc()
	buf := make([]byte, ProtoSize(d, m))
	m.Drain()
	ProtoMarshal(d, buf, 0, m)
	if m.Drain() <= 0 {
		t.Error("marshal charged nothing")
	}
}

// --- fblite ---

func TestFBRoundTrip(t *testing.T) {
	m := testMeter()
	d := sampleDoc()
	buf := FBBuild(d, m)
	got, err := FBDecode(d.Schema, buf, mem.UnpinnedSimAddr(buf), m)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(got) {
		t.Errorf("round trip mismatch:\n in: %v\nout: %v", d, got)
	}
}

func TestFBRandomRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	m := testMeter()
	for i := 0; i < 50; i++ {
		d := randomDoc(r)
		buf := FBBuild(d, m)
		got, err := FBDecode(d.Schema, buf, 0, m)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if !d.Equal(got) {
			t.Fatalf("doc %d mismatch", i)
		}
	}
}

func TestFBRejectsCorrupt(t *testing.T) {
	m := testMeter()
	d := sampleDoc()
	buf := FBBuild(d, m)
	for i := 0; i < len(buf); i += 5 {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0xFF
		FBDecode(d.Schema, bad, 0, m) // must not panic
	}
	for n := 0; n < len(buf); n += 13 {
		FBDecode(d.Schema, buf[:n], 0, m)
	}
}

func TestFBBuilderGrowth(t *testing.T) {
	m := testMeter()
	outer, _ := nestedSchema()
	d := NewDoc(outer)
	// Force multiple builder reallocations with a large payload.
	d.AddBytes(2, bytes.Repeat([]byte{1}, 5000), 0)
	buf := FBBuild(d, m)
	got, err := FBDecode(outer, buf, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(got) {
		t.Error("mismatch after builder growth")
	}
}

// --- capnplite ---

func capnpWire(t *testing.T, d *Doc, m *costmodel.Meter) []byte {
	t.Helper()
	cm := CapnpBuild(d, m)
	var f CapnpFrame
	CapnpFlatten(&f, cm)
	var out []byte
	for _, s := range f.Segs {
		out = append(out, s...)
	}
	return out
}

func TestCapnpRoundTrip(t *testing.T) {
	m := testMeter()
	d := sampleDoc()
	data := capnpWire(t, d, m)
	got, err := CapnpDecode(d.Schema, data, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(got) {
		t.Errorf("round trip mismatch:\n in: %v\nout: %v", d, got)
	}
}

func TestCapnpMultiSegment(t *testing.T) {
	m := testMeter()
	outer, _ := nestedSchema()
	d := NewDoc(outer)
	// Payloads larger than one segment force multiple segments.
	for i := 0; i < 4; i++ {
		d.AddBytes(2, bytes.Repeat([]byte{byte(i)}, 3000), 0)
	}
	cm := CapnpBuild(d, m)
	if len(cm.Segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(cm.Segs))
	}
	data := capnpWire(t, d, m)
	got, err := CapnpDecode(outer, data, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(got) {
		t.Error("multi-segment mismatch")
	}
}

func TestCapnpRandomRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	m := testMeter()
	for i := 0; i < 50; i++ {
		d := randomDoc(r)
		data := capnpWire(t, d, m)
		got, err := CapnpDecode(d.Schema, data, 0, m)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if !d.Equal(got) {
			t.Fatalf("doc %d mismatch", i)
		}
	}
}

func TestCapnpRejectsCorrupt(t *testing.T) {
	m := testMeter()
	d := sampleDoc()
	data := capnpWire(t, d, m)
	for i := 0; i < len(data); i += 9 {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0xFF
		CapnpDecode(d.Schema, bad, 0, m) // must not panic
	}
	for n := 0; n < len(data); n += 17 {
		CapnpDecode(d.Schema, data[:n], 0, m)
	}
}

func TestCapnpWordAlignmentOverhead(t *testing.T) {
	m := testMeter()
	outer, _ := nestedSchema()
	d := NewDoc(outer)
	d.AddBytes(2, []byte("x"), 0) // 1 byte pads to a word
	cm := CapnpBuild(d, m)
	if cm.TotalLen()%8 != 0 {
		t.Errorf("total length %d not word aligned", cm.TotalLen())
	}
}

// --- doc ---

func TestDocEqual(t *testing.T) {
	a, b := sampleDoc(), sampleDoc()
	if !a.Equal(b) {
		t.Error("identical docs not equal")
	}
	b.SetInt(0, 999)
	if a.Equal(b) {
		t.Error("different docs equal")
	}
	if a.Equal(nil) {
		t.Error("nil comparison wrong")
	}
	if a.String() == "" {
		t.Error("empty String()")
	}
}

// --- RESP ---

func TestRESPRoundTrip(t *testing.T) {
	m := testMeter()
	w := NewRESPWriter(m)
	w.WriteArrayHeader(4)
	w.WriteSimple("OK")
	w.WriteInteger(-42)
	w.WriteBulk([]byte("hello\r\nworld"), 0)
	w.WriteNull()

	v, n, err := RESPParse(w.Buf, m)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(w.Buf) {
		t.Errorf("consumed %d of %d", n, len(w.Buf))
	}
	if v.Type != RESPArray || len(v.Array) != 4 {
		t.Fatalf("parsed %+v", v)
	}
	if string(v.Array[0].Str) != "OK" {
		t.Error("simple string wrong")
	}
	if v.Array[1].Int != -42 {
		t.Error("integer wrong")
	}
	if string(v.Array[2].Str) != "hello\r\nworld" {
		t.Error("bulk with CRLF wrong")
	}
	if v.Array[3].Type != RESPNull {
		t.Error("null wrong")
	}
}

func TestRESPCommand(t *testing.T) {
	m := testMeter()
	cmd := RESPEncodeCommand(m, []byte("GET"), []byte("key1"))
	v, _, err := RESPParse(cmd, m)
	if err != nil {
		t.Fatal(err)
	}
	if v.Type != RESPArray || len(v.Array) != 2 ||
		string(v.Array[0].Str) != "GET" || string(v.Array[1].Str) != "key1" {
		t.Errorf("command parsed as %+v", v)
	}
}

func TestRESPError(t *testing.T) {
	m := testMeter()
	w := NewRESPWriter(m)
	w.WriteError("ERR no such key")
	v, _, err := RESPParse(w.Buf, m)
	if err != nil {
		t.Fatal(err)
	}
	if v.Type != RESPError || string(v.Str) != "ERR no such key" {
		t.Errorf("error parsed as %+v", v)
	}
}

func TestRESPRejectsCorrupt(t *testing.T) {
	m := testMeter()
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte("$5\r\nab\r\n"),    // short bulk
		[]byte("$abc\r\n"),        // bad length
		[]byte(":not-an-int\r\n"), // bad integer
		[]byte("*2\r\n+a\r\n"),    // short array
		[]byte("+no-terminator"),
	}
	for i, c := range cases {
		if _, _, err := RESPParse(c, m); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

// Property: any sequence of bulk strings round-trips through a command
// encoding.
func TestRESPCommandProperty(t *testing.T) {
	m := testMeter()
	f := func(args [][]byte) bool {
		if len(args) == 0 {
			return true
		}
		cmd := RESPEncodeCommand(m, args...)
		v, n, err := RESPParse(cmd, m)
		if err != nil || n != len(cmd) || v.Type != RESPArray || len(v.Array) != len(args) {
			return false
		}
		for i := range args {
			if !bytes.Equal(v.Array[i].Str, args[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Cross-library property: all three general-purpose baselines preserve the
// same documents.
func TestAllBaselinesAgree(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	m := testMeter()
	for i := 0; i < 25; i++ {
		d := randomDoc(r)
		pbuf := make([]byte, ProtoSize(d, m))
		ProtoMarshal(d, pbuf, 0, m)
		pd, err := ProtoUnmarshal(d.Schema, pbuf, 0, m)
		if err != nil {
			t.Fatal(err)
		}
		fbuf := FBBuild(d, m)
		fd, err := FBDecode(d.Schema, fbuf, 0, m)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := CapnpDecode(d.Schema, capnpWire(t, d, m), 0, m)
		if err != nil {
			t.Fatal(err)
		}
		if !pd.Equal(fd) || !fd.Equal(cd) || !cd.Equal(d) {
			t.Fatalf("doc %d: libraries disagree", i)
		}
	}
}
