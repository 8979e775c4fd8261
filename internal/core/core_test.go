package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
)

func newTestCtx() *Ctx {
	alloc := mem.NewAllocator()
	arena := mem.NewArena(64 << 10)
	meter := costmodel.NewMeter(costmodel.DefaultCPU(), cachesim.New(cachesim.DefaultConfig()))
	return NewCtx(alloc, arena, meter)
}

// roundTrip marshals a send-mode message and deserializes it into a
// recv-mode view, as the receiver of a NIC-gathered frame would.
func roundTrip(t *testing.T, c *Ctx, m *Message) *Message {
	t.Helper()
	data := Marshal(m)
	buf := c.Alloc.Alloc(len(data))
	copy(buf.Bytes(), data)
	got, err := c.Deserialize(m.Schema(), buf)
	if err != nil {
		t.Fatalf("Deserialize: %v", err)
	}
	return got
}

func TestSchemaValidate(t *testing.T) {
	nested := &Schema{Name: "Inner", Fields: []Field{{Name: "x", Kind: KindInt}}}
	good := &Schema{Name: "M", Fields: []Field{
		{Name: "a", Kind: KindInt},
		{Name: "b", Kind: KindBytes},
		{Name: "c", Kind: KindNested, Nested: nested},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
	bad := []*Schema{
		nil,
		{Name: "", Fields: []Field{{Name: "a", Kind: KindInt}}},
		{Name: "E", Fields: nil},
		{Name: "D", Fields: []Field{{Name: "a", Kind: KindInt}, {Name: "a", Kind: KindInt}}},
		{Name: "N", Fields: []Field{{Name: "n", Kind: KindNested}}},                    // missing nested schema
		{Name: "X", Fields: []Field{{Name: "x", Kind: KindInt, Nested: nested}}},       // spurious nested schema
		{Name: "K", Fields: []Field{{Name: "k", Kind: FieldKind(99)}}},                 // unknown kind
		{Name: "B", Fields: []Field{{Name: "b", Kind: KindNested, Nested: &Schema{}}}}, // invalid nested
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestSchemaRecursive(t *testing.T) {
	s := &Schema{Name: "Tree"}
	s.Fields = []Field{
		{Name: "v", Kind: KindInt},
		{Name: "kids", Kind: KindNestedList, Nested: s},
	}
	if err := s.Validate(); err != nil {
		t.Errorf("recursive schema rejected: %v", err)
	}
}

func TestFieldIndex(t *testing.T) {
	s := &Schema{Name: "M", Fields: []Field{{Name: "a", Kind: KindInt}, {Name: "b", Kind: KindBytes}}}
	if s.FieldIndex("b") != 1 || s.FieldIndex("zz") != -1 {
		t.Error("FieldIndex wrong")
	}
	if s.NumFields() != 2 {
		t.Error("NumFields wrong")
	}
}

func TestCFPtrSmallCopies(t *testing.T) {
	c := newTestCtx()
	pinned := c.Alloc.Alloc(4096)
	small := pinned.Bytes()[:100] // pinned but below threshold
	p := c.NewCFPtr(small)
	if p.IsZeroCopy() {
		t.Error("100B field took zero-copy path (threshold 512)")
	}
	if pinned.Refcount() != 1 {
		t.Error("copy path touched the refcount")
	}
	if !bytes.Equal(p.Bytes(), small) {
		t.Error("copied data differs")
	}
}

func TestCFPtrLargePinnedZeroCopies(t *testing.T) {
	c := newTestCtx()
	pinned := c.Alloc.Alloc(4096)
	p := c.NewCFPtr(pinned.Bytes()[:1024])
	if !p.IsZeroCopy() {
		t.Fatal("1024B pinned field did not take zero-copy path")
	}
	if pinned.Refcount() != 2 {
		t.Errorf("refcount = %d, want 2 after recovery", pinned.Refcount())
	}
	p.Release(c.Meter)
	if pinned.Refcount() != 1 {
		t.Errorf("refcount = %d after release, want 1", pinned.Refcount())
	}
}

func TestCFPtrLargeUnpinnedCopies(t *testing.T) {
	c := newTestCtx()
	heap := make([]byte, 2048) // large but NOT DMA-safe
	p := c.NewCFPtr(heap)
	if p.IsZeroCopy() {
		t.Error("unpinned memory took zero-copy path (memory transparency violated)")
	}
}

func TestCFPtrThresholdBoundary(t *testing.T) {
	c := newTestCtx()
	pinned := c.Alloc.Alloc(4096)
	at := c.NewCFPtr(pinned.Bytes()[:512])
	below := c.NewCFPtr(pinned.Bytes()[:511])
	if !at.IsZeroCopy() {
		t.Error("field of exactly threshold size should zero-copy")
	}
	if below.IsZeroCopy() {
		t.Error("field below threshold should copy")
	}
	at.Release(c.Meter)
}

func TestCFPtrAllCopyThreshold(t *testing.T) {
	c := newTestCtx()
	c.Threshold = ThresholdAllCopy
	pinned := c.Alloc.Alloc(8192)
	if c.NewCFPtr(pinned.Bytes()).IsZeroCopy() {
		t.Error("threshold=∞ still zero-copied")
	}
}

func TestCFPtrAllZeroCopyThreshold(t *testing.T) {
	c := newTestCtx()
	c.Threshold = ThresholdAllZeroCopy
	pinned := c.Alloc.Alloc(64)
	p := c.NewCFPtr(pinned.Bytes()[:16])
	if !p.IsZeroCopy() {
		t.Error("threshold=0 did not zero-copy a small pinned field")
	}
	p.Release(c.Meter)
}

func TestCFPtrEmpty(t *testing.T) {
	c := newTestCtx()
	p := c.NewCFPtr(nil)
	if p.Len() != 0 || p.IsZeroCopy() {
		t.Error("empty CFPtr wrong")
	}
	p.Release(c.Meter) // must not panic
}

func TestCFPtrCopyCheaperThanZCMeterAccounting(t *testing.T) {
	c := newTestCtx()
	pinned := c.Alloc.Alloc(4096)
	c.Meter.Drain()
	c.NewCFPtr(pinned.Bytes()[:1024])
	if c.Meter.MetadataTouch == 0 {
		t.Error("zero-copy construction did not touch metadata")
	}
	if c.Meter.Drain() <= 0 {
		t.Error("zero-copy construction charged nothing")
	}
}

// --- Message round trips ---

func kvSchema() *Schema {
	return &Schema{Name: "GetM", Fields: []Field{
		{Name: "id", Kind: KindInt},
		{Name: "keys", Kind: KindBytesList},
		{Name: "vals", Kind: KindBytesList},
	}}
}

func TestRoundTripScalars(t *testing.T) {
	c := newTestCtx()
	s := &Schema{Name: "M", Fields: []Field{
		{Name: "a", Kind: KindInt},
		{Name: "b", Kind: KindBytes},
		{Name: "s", Kind: KindString},
	}}
	m := NewMessage(s, c)
	m.SetInt(0, 42)
	m.SetBytes(1, c.NewCFPtr([]byte("payload-bytes")))
	m.SetString(2, c.NewCFPtr([]byte("héllo wörld")))

	got := roundTrip(t, c, m)
	if !got.Has(0) || !got.Has(1) || !got.Has(2) {
		t.Fatal("fields missing")
	}
	if got.GetInt(0) != 42 {
		t.Errorf("int = %d", got.GetInt(0))
	}
	if !bytes.Equal(got.GetBytes(1), []byte("payload-bytes")) {
		t.Errorf("bytes = %q", got.GetBytes(1))
	}
	str, err := got.GetString(2)
	if err != nil || str != "héllo wörld" {
		t.Errorf("string = %q, %v", str, err)
	}
}

func TestRoundTripAbsentFields(t *testing.T) {
	c := newTestCtx()
	s := kvSchema()
	m := NewMessage(s, c)
	m.SetInt(0, 7)
	got := roundTrip(t, c, m)
	if !got.Has(0) || got.Has(1) || got.Has(2) {
		t.Error("presence wrong")
	}
}

func TestRoundTripLists(t *testing.T) {
	c := newTestCtx()
	s := &Schema{Name: "L", Fields: []Field{
		{Name: "nums", Kind: KindIntList},
		{Name: "blobs", Kind: KindBytesList},
		{Name: "tags", Kind: KindStringList},
	}}
	m := NewMessage(s, c)
	for i := 0; i < 5; i++ {
		m.AppendInt(0, uint64(i*i))
		m.AppendBytes(1, c.NewCFPtr([]byte(fmt.Sprintf("blob-%d", i))))
		m.AppendString(2, c.NewCFPtr([]byte(fmt.Sprintf("tag-%d", i))))
	}
	got := roundTrip(t, c, m)
	if got.ListLen(0) != 5 || got.ListLen(1) != 5 || got.ListLen(2) != 5 {
		t.Fatalf("list lens %d %d %d", got.ListLen(0), got.ListLen(1), got.ListLen(2))
	}
	for i := 0; i < 5; i++ {
		if got.GetIntElem(0, i) != uint64(i*i) {
			t.Errorf("nums[%d] = %d", i, got.GetIntElem(0, i))
		}
		if want := fmt.Sprintf("blob-%d", i); string(got.GetBytesElem(1, i)) != want {
			t.Errorf("blobs[%d] = %q", i, got.GetBytesElem(1, i))
		}
		if s, err := got.GetStringElem(2, i); err != nil || s != fmt.Sprintf("tag-%d", i) {
			t.Errorf("tags[%d] = %q, %v", i, s, err)
		}
	}
}

func TestRoundTripNested(t *testing.T) {
	c := newTestCtx()
	inner := &Schema{Name: "Inner", Fields: []Field{
		{Name: "x", Kind: KindInt},
		{Name: "data", Kind: KindBytes},
	}}
	outer := &Schema{Name: "Outer", Fields: []Field{
		{Name: "name", Kind: KindBytes},
		{Name: "one", Kind: KindNested, Nested: inner},
		{Name: "many", Kind: KindNestedList, Nested: inner},
	}}
	m := NewMessage(outer, c)
	m.SetBytes(0, c.NewCFPtr([]byte("outer-name")))
	sub := NewMessage(inner, c)
	sub.SetInt(0, 99)
	sub.SetBytes(1, c.NewCFPtr([]byte("inner-data")))
	m.SetNested(1, sub)
	for i := 0; i < 3; i++ {
		e := NewMessage(inner, c)
		e.SetInt(0, uint64(1000+i))
		e.SetBytes(1, c.NewCFPtr([]byte(fmt.Sprintf("elem-%d", i))))
		m.AppendNested(2, e)
	}

	got := roundTrip(t, c, m)
	if string(got.GetBytes(0)) != "outer-name" {
		t.Errorf("name = %q", got.GetBytes(0))
	}
	gsub := got.GetNested(1)
	if gsub.GetInt(0) != 99 || string(gsub.GetBytes(1)) != "inner-data" {
		t.Errorf("nested = %d %q", gsub.GetInt(0), gsub.GetBytes(1))
	}
	if got.ListLen(2) != 3 {
		t.Fatalf("nested list len %d", got.ListLen(2))
	}
	for i := 0; i < 3; i++ {
		e := got.GetNestedElem(2, i)
		if e.GetInt(0) != uint64(1000+i) || string(e.GetBytes(1)) != fmt.Sprintf("elem-%d", i) {
			t.Errorf("elem %d = %d %q", i, e.GetInt(0), e.GetBytes(1))
		}
	}
}

func TestRoundTripMixedCopyAndZeroCopy(t *testing.T) {
	c := newTestCtx()
	s := kvSchema()
	// Two large pinned values (zero-copy) interleaved with small keys
	// (copied).
	v1 := c.Alloc.Alloc(1024)
	v2 := c.Alloc.Alloc(2048)
	for i := range v1.Bytes() {
		v1.Bytes()[i] = 0x11
	}
	for i := range v2.Bytes() {
		v2.Bytes()[i] = 0x22
	}
	m := NewMessage(s, c)
	m.SetInt(0, 5)
	m.AppendBytes(1, c.NewCFPtr([]byte("key-one")))
	m.AppendBytes(1, c.NewCFPtr([]byte("key-two")))
	m.AppendBytes(2, c.NewCFPtr(v1.Bytes()))
	m.AppendBytes(2, c.NewCFPtr(v2.Bytes()))

	l := m.Layout()
	if l.NumZC != 2 {
		t.Errorf("NumZC = %d, want 2", l.NumZC)
	}
	if l.NumCopy != 2 {
		t.Errorf("NumCopy = %d, want 2", l.NumCopy)
	}
	if l.ZCLen != 3072 {
		t.Errorf("ZCLen = %d, want 3072", l.ZCLen)
	}

	got := roundTrip(t, c, m)
	if string(got.GetBytesElem(1, 0)) != "key-one" || string(got.GetBytesElem(1, 1)) != "key-two" {
		t.Error("keys wrong")
	}
	if !bytes.Equal(got.GetBytesElem(2, 0), v1.Bytes()) {
		t.Error("val1 wrong")
	}
	if !bytes.Equal(got.GetBytesElem(2, 1), v2.Bytes()) {
		t.Error("val2 wrong")
	}
	m.Release()
	if v1.Refcount() != 1 || v2.Refcount() != 1 {
		t.Errorf("refcounts after release: %d %d", v1.Refcount(), v2.Refcount())
	}
}

func TestObjectLenMatchesMarshal(t *testing.T) {
	c := newTestCtx()
	s := kvSchema()
	m := NewMessage(s, c)
	m.SetInt(0, 1)
	m.AppendBytes(1, c.NewCFPtr(bytes.Repeat([]byte("k"), 40)))
	v := c.Alloc.Alloc(700)
	m.AppendBytes(2, c.NewCFPtr(v.Bytes()))
	if got := len(Marshal(m)); got != m.Layout().ObjectLen() {
		t.Errorf("Marshal len %d != ObjectLen %d", got, m.Layout().ObjectLen())
	}
}

func TestEmptyBytesField(t *testing.T) {
	c := newTestCtx()
	s := &Schema{Name: "E", Fields: []Field{{Name: "b", Kind: KindBytes}}}
	m := NewMessage(s, c)
	m.SetBytes(0, c.NewCFPtr(nil))
	got := roundTrip(t, c, m)
	if !got.Has(0) || len(got.GetBytes(0)) != 0 {
		t.Error("empty bytes field broken")
	}
}

func TestDeserializeRejectsCorruptHeader(t *testing.T) {
	c := newTestCtx()
	s := kvSchema()
	m := NewMessage(s, c)
	m.SetInt(0, 1)
	m.AppendBytes(1, c.NewCFPtr([]byte("key")))
	data := Marshal(m)

	// Corrupt the list table offset to point outside the object.
	for mut := 0; mut < len(data); mut++ {
		bad := append([]byte(nil), data...)
		bad[mut] ^= 0xFF
		buf := c.Alloc.Alloc(len(bad))
		copy(buf.Bytes(), bad)
		msg, err := c.Deserialize(s, buf)
		// Either rejected, or accepted with in-bounds (possibly garbage)
		// fields — never a panic / out-of-bounds read.
		if err == nil {
			for i := range s.Fields {
				if !msg.Has(i) {
					continue
				}
				switch s.Fields[i].Kind {
				case KindInt:
					_ = msg.GetInt(i)
				case KindBytesList:
					for j := 0; j < msg.ListLen(i); j++ {
						_ = msg.GetBytesElem(i, j)
					}
				}
			}
			msg.Release()
		} else {
			buf.DecRef()
		}
	}
}

func TestDeserializeTruncated(t *testing.T) {
	c := newTestCtx()
	s := kvSchema()
	m := NewMessage(s, c)
	m.SetInt(0, 1)
	m.AppendBytes(1, c.NewCFPtr([]byte("some-key-data")))
	data := Marshal(m)
	for n := 0; n < len(data); n++ {
		if n == 0 {
			continue
		}
		buf := c.Alloc.Alloc(n)
		copy(buf.Bytes(), data[:n])
		if msg, err := c.Deserialize(s, buf); err == nil {
			// Acceptable only if every referenced range still fits.
			msg.Release()
		} else {
			buf.DecRef()
		}
	}
}

func TestRecvMessageIsImmutable(t *testing.T) {
	c := newTestCtx()
	m := NewMessage(kvSchema(), c)
	m.SetInt(0, 1)
	got := roundTrip(t, c, m)
	defer func() {
		if recover() == nil {
			t.Error("mutating a recv message did not panic")
		}
	}()
	got.SetInt(0, 2)
}

func TestSendMessageGetterPanics(t *testing.T) {
	c := newTestCtx()
	m := NewMessage(kvSchema(), c)
	defer func() {
		if recover() == nil {
			t.Error("getter on send message did not panic")
		}
	}()
	m.GetInt(0)
}

func TestUTF8ValidationDeferred(t *testing.T) {
	c := newTestCtx()
	s := &Schema{Name: "S", Fields: []Field{{Name: "s", Kind: KindString}}}
	m := NewMessage(s, c)
	m.SetString(0, c.NewCFPtr([]byte{0xFF, 0xFE, 0x41}))
	// Deserialization succeeds — validation is deferred.
	got := roundTrip(t, c, m)
	if _, err := got.GetString(0); err == nil {
		t.Error("invalid UTF-8 accepted on access")
	}
}

func TestReleaseRecvBufFreesWhenLastRef(t *testing.T) {
	c := newTestCtx()
	m := NewMessage(kvSchema(), c)
	m.SetInt(0, 9)
	data := Marshal(m)
	buf := c.Alloc.Alloc(len(data))
	copy(buf.Bytes(), data)
	got, err := c.Deserialize(kvSchema(), buf)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Alloc.Stats().SlotsInUse
	got.Release()
	if c.Alloc.Stats().SlotsInUse != before-1 {
		t.Error("recv buffer not freed by Release")
	}
}

// Echo pattern: zero-copy fields built from views into the received buffer
// keep the buffer alive after the receive view is released.
func TestEchoKeepsRecvBufferAliveViaCFPtr(t *testing.T) {
	c := newTestCtx()
	s := kvSchema()
	m := NewMessage(s, c)
	payload := bytes.Repeat([]byte{0xAB}, 2048)
	m.AppendBytes(2, c.NewCFPtr(payload))
	data := Marshal(m)
	buf := c.Alloc.Alloc(len(data))
	copy(buf.Bytes(), data)
	got, err := c.Deserialize(s, buf)
	if err != nil {
		t.Fatal(err)
	}
	// Build an echo response zero-copying out of the received buffer.
	view := got.GetBytesElem(2, 0)
	p := c.NewCFPtr(view)
	if !p.IsZeroCopy() {
		t.Fatal("view into received pinned buffer did not recover")
	}
	got.Release() // drop the receive reference; it ends buf's view too
	if p.ZCBuf().Refcount() != 1 {
		t.Fatalf("refcount = %d, want 1 (CFPtr keeps it alive)", buf.Refcount())
	}
	if !bytes.Equal(p.Bytes(), payload) {
		t.Error("payload corrupted")
	}
	p.Release(c.Meter)
	if c.Alloc.Stats().SlotsInUse != 0 {
		t.Error("buffer leaked after final release")
	}
}

// Property: random messages over the KV schema round-trip exactly, at every
// threshold setting.
func TestRoundTripProperty(t *testing.T) {
	thresholds := []int{ThresholdAllZeroCopy, DefaultThreshold, ThresholdAllCopy}
	f := func(id uint64, keys [][]byte, valSizes []uint16) bool {
		for _, th := range thresholds {
			c := newTestCtx()
			c.Threshold = th
			s := kvSchema()
			m := NewMessage(s, c)
			m.SetInt(0, id)
			for _, k := range keys {
				m.AppendBytes(1, c.NewCFPtr(k))
			}
			var wantVals [][]byte
			for _, vs := range valSizes {
				n := int(vs%4096) + 1
				v := c.Alloc.Alloc(n)
				for i := range v.Bytes() {
					v.Bytes()[i] = byte(n + i)
				}
				wantVals = append(wantVals, append([]byte(nil), v.Bytes()...))
				m.AppendBytes(2, c.NewCFPtr(v.Bytes()))
			}
			data := Marshal(m)
			buf := c.Alloc.Alloc(len(data) + 1)
			buf.Resize(len(data))
			copy(buf.Bytes(), data)
			got, err := c.Deserialize(s, buf)
			if err != nil {
				return false
			}
			if got.GetInt(0) != id {
				return false
			}
			if got.ListLen(1) != len(keys) || got.ListLen(2) != len(wantVals) {
				return false
			}
			for i, k := range keys {
				if !bytes.Equal(got.GetBytesElem(1, i), k) {
					return false
				}
			}
			for i, v := range wantVals {
				if !bytes.Equal(got.GetBytesElem(2, i), v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the hybrid partition invariant — every pinned field ≥ threshold
// is zero-copy, everything else is copied.
func TestHybridPartitionProperty(t *testing.T) {
	f := func(sizes []uint16, threshold uint16) bool {
		c := newTestCtx()
		c.Threshold = int(threshold)
		for _, sz := range sizes {
			n := int(sz%8192) + 1
			v := c.Alloc.Alloc(n)
			p := c.NewCFPtr(v.Bytes())
			if want := n >= int(threshold); p.IsZeroCopy() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	build := func() []byte {
		c := newTestCtx()
		m := NewMessage(kvSchema(), c)
		m.SetInt(0, 3)
		m.AppendBytes(1, c.NewCFPtr([]byte("alpha")))
		v := c.Alloc.Alloc(600)
		for i := range v.Bytes() {
			v.Bytes()[i] = byte(i)
		}
		m.AppendBytes(2, c.NewCFPtr(v.Bytes()))
		return Marshal(m)
	}
	if !bytes.Equal(build(), build()) {
		t.Error("marshal not deterministic")
	}
}

func TestFieldKindStrings(t *testing.T) {
	kinds := []FieldKind{KindInt, KindBytes, KindString, KindNested, KindIntList, KindBytesList, KindStringList, KindNestedList}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
	if FieldKind(42).String() != "FieldKind(42)" {
		t.Error("unknown kind string wrong")
	}
	if !KindBytesList.IsList() || KindBytes.IsList() {
		t.Error("IsList wrong")
	}
	if !KindString.IsPtrKind() || KindInt.IsPtrKind() {
		t.Error("IsPtrKind wrong")
	}
}

func TestWrongKindPanics(t *testing.T) {
	c := newTestCtx()
	m := NewMessage(kvSchema(), c)
	defer func() {
		if recover() == nil {
			t.Error("SetBytes on int field did not panic")
		}
	}()
	m.SetBytes(0, c.NewCFPtr([]byte("x")))
}

func TestNestedSchemaMismatchPanics(t *testing.T) {
	c := newTestCtx()
	inner := &Schema{Name: "I", Fields: []Field{{Name: "x", Kind: KindInt}}}
	other := &Schema{Name: "O", Fields: []Field{{Name: "x", Kind: KindInt}}}
	outer := &Schema{Name: "M", Fields: []Field{{Name: "n", Kind: KindNested, Nested: inner}}}
	m := NewMessage(outer, c)
	sub := NewMessage(other, c)
	defer func() {
		if recover() == nil {
			t.Error("schema mismatch did not panic")
		}
	}()
	m.SetNested(0, sub)
}
