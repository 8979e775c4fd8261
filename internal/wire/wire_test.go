package wire

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestBitmapWords(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 32: 1, 33: 2, 64: 2, 65: 3}
	for n, want := range cases {
		if got := BitmapWords(n); got != want {
			t.Errorf("BitmapWords(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestHeaderLen(t *testing.T) {
	// 3 fields, 2 present: 4 (word count) + 4 (1 word) + 2*8.
	if got := HeaderLen(3, 2); got != 24 {
		t.Errorf("HeaderLen(3,2) = %d, want 24", got)
	}
	if got := HeaderLen(40, 0); got != 4+8 {
		t.Errorf("HeaderLen(40,0) = %d, want 12", got)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	const nFields = 5
	obj := make([]byte, 256)
	w := NewWriter(obj, 0, nFields)
	w.SetPresent(0)
	w.SetPresent(2)
	w.SetPresent(4)
	w.PutInt(0, 0xDEADBEEFCAFE)
	w.PutPtr(2, 100, 50)
	w.PutPtr(4, 150, 7)

	r, err := Parse(obj, 0, nFields)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Present(0) || r.Present(1) || !r.Present(2) || r.Present(3) || !r.Present(4) {
		t.Error("presence bits wrong")
	}
	if r.NumPresent() != 3 {
		t.Errorf("NumPresent = %d, want 3", r.NumPresent())
	}
	if got := r.Int(0); got != 0xDEADBEEFCAFE {
		t.Errorf("Int(0) = %x", got)
	}
	if off, n := r.Ptr(2); off != 100 || n != 50 {
		t.Errorf("Ptr(2) = (%d, %d)", off, n)
	}
	if off, n := r.Ptr(4); off != 150 || n != 7 {
		t.Errorf("Ptr(4) = (%d, %d)", off, n)
	}
	if r.Len() != HeaderLen(nFields, 3) {
		t.Errorf("Len = %d, want %d", r.Len(), HeaderLen(nFields, 3))
	}
}

func TestEntryOffsetsAreRankBased(t *testing.T) {
	obj := make([]byte, 256)
	w := NewWriter(obj, 0, 8)
	w.SetPresent(3)
	w.SetPresent(6)
	if w.EntryOffset(3) != FixedLen(8) {
		t.Errorf("first present field entry at %d, want %d", w.EntryOffset(3), FixedLen(8))
	}
	if w.EntryOffset(6) != FixedLen(8)+EntrySize {
		t.Errorf("second present field entry at %d", w.EntryOffset(6))
	}
}

func TestEntryOffsetAbsentPanics(t *testing.T) {
	obj := make([]byte, 64)
	w := NewWriter(obj, 0, 4)
	defer func() {
		if recover() == nil {
			t.Error("EntryOffset on absent field did not panic")
		}
	}()
	w.EntryOffset(1)
}

func TestFieldRangePanics(t *testing.T) {
	obj := make([]byte, 64)
	w := NewWriter(obj, 0, 4)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range field did not panic")
		}
	}()
	w.SetPresent(4)
}

// TestPanicTexts pins what the header accessors' panics print: the small
// error type that keeps Present and SetPresent inlinable formats exactly the
// text the accessors panicked with when they built it themselves.
func TestPanicTexts(t *testing.T) {
	w := NewWriter(make([]byte, 64), 0, 4)
	for _, tc := range []struct {
		call func()
		want string
	}{
		{func() { w.EntryOffset(1) }, "wire: EntryOffset of absent field 1"},
		{func() { w.SetPresent(4) }, "wire: field 4 out of range (4 fields)"},
		{func() { w.Present(-1) }, "wire: field -1 out of range (4 fields)"},
	} {
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); got != tc.want {
					t.Errorf("panic printed %q, want %q", got, tc.want)
				}
			}()
			tc.call()
		}()
	}
}

func TestNonZeroBase(t *testing.T) {
	obj := make([]byte, 256)
	const base = 64
	w := NewWriter(obj, base, 2)
	w.SetPresent(1)
	w.PutPtr(1, 200, 10)
	r, err := Parse(obj, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if off, n := r.Ptr(1); off != 200 || n != 10 {
		t.Errorf("Ptr = (%d,%d)", off, n)
	}
	if r.Base() != base {
		t.Errorf("Base = %d", r.Base())
	}
}

func TestParseValidation(t *testing.T) {
	obj := make([]byte, 64)
	NewWriter(obj, 0, 4)
	// Wrong field count: bitmap word mismatch only triggers past 32 fields;
	// corrupt the word count instead.
	PutU32(obj, 9)
	if _, err := Parse(obj, 0, 4); err == nil {
		t.Error("corrupt bitmap word count accepted")
	}
	// Header base beyond the object.
	if _, err := Parse(obj, 100, 4); err == nil {
		t.Error("out-of-range base accepted")
	}
	// Truncated entries: 4 fields all present needs 4+4+32 bytes.
	small := make([]byte, 10)
	w := NewWriter(small[:8], 0, 4)
	_ = w
	tiny := make([]byte, 8)
	NewWriter(tiny, 0, 4)
	// Mark all 4 present directly in the bitmap word.
	PutU32(tiny[4:], 0xF)
	if _, err := Parse(tiny, 0, 4); err == nil {
		t.Error("truncated entry region accepted")
	}
	if _, err := Parse(obj, 0, -1); err == nil {
		t.Error("negative field count accepted")
	}
	if _, err := Parse(obj, 0, MaxFields+1); err == nil {
		t.Error("huge field count accepted")
	}
}

func TestCheckRange(t *testing.T) {
	obj := make([]byte, 100)
	w := NewWriter(obj, 0, 1)
	if err := w.CheckRange(90, 10); err != nil {
		t.Errorf("valid range rejected: %v", err)
	}
	if err := w.CheckRange(90, 11); err == nil {
		t.Error("overflowing range accepted")
	}
	if err := w.CheckRange(^uint32(0), ^uint32(0)); err == nil {
		t.Error("wrapping range accepted")
	}
}

func TestManyFieldsBitmap(t *testing.T) {
	const nFields = 100 // 4 bitmap words
	obj := make([]byte, 4+16+nFields*EntrySize)
	w := NewWriter(obj, 0, nFields)
	for i := 0; i < nFields; i += 7 {
		w.SetPresent(i)
	}
	r, err := Parse(obj, 0, nFields)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nFields; i++ {
		want := i%7 == 0
		if r.Present(i) != want {
			t.Errorf("Present(%d) = %v, want %v", i, r.Present(i), want)
		}
	}
	if r.NumPresent() != 15 {
		t.Errorf("NumPresent = %d, want 15", r.NumPresent())
	}
}

func TestListTable(t *testing.T) {
	obj := make([]byte, 200)
	tb, err := NewListTable(obj, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	tb.PutElemPtr(0, 100, 10)
	tb.PutElemPtr(1, 110, 20)
	tb.PutElemInt(2, 777)
	if off, n := tb.ElemPtr(0); off != 100 || n != 10 {
		t.Errorf("elem 0 = (%d,%d)", off, n)
	}
	if off, n := tb.ElemPtr(1); off != 110 || n != 20 {
		t.Errorf("elem 1 = (%d,%d)", off, n)
	}
	if v := tb.ElemInt(2); v != 777 {
		t.Errorf("elem 2 = %d", v)
	}
	if tb.Count() != 3 {
		t.Errorf("Count = %d", tb.Count())
	}
}

func TestListTableBounds(t *testing.T) {
	obj := make([]byte, 32)
	if _, err := NewListTable(obj, 16, 3); err == nil {
		t.Error("overflowing table accepted")
	}
	if _, err := NewListTable(obj, -1, 1); err == nil {
		t.Error("negative offset accepted")
	}
	tb, _ := NewListTable(obj, 0, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range element did not panic")
		}
	}()
	tb.ElemPtr(2)
}

// Property: for any presence pattern and values, writing then parsing
// recovers exactly the same fields.
func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(present uint16, vals [16]uint64) bool {
		const nFields = 16
		obj := make([]byte, HeaderLen(nFields, nFields))
		w := NewWriter(obj, 0, nFields)
		for i := 0; i < nFields; i++ {
			if present&(1<<i) != 0 {
				w.SetPresent(i)
			}
		}
		for i := 0; i < nFields; i++ {
			if present&(1<<i) != 0 {
				w.PutInt(i, vals[i])
			}
		}
		r, err := Parse(obj, 0, nFields)
		if err != nil {
			return false
		}
		for i := 0; i < nFields; i++ {
			if r.Present(i) != (present&(1<<i) != 0) {
				return false
			}
			if r.Present(i) && r.Int(i) != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrimitives(t *testing.T) {
	b := make([]byte, 8)
	PutU32(b, 0x01020304)
	if b[0] != 4 || GetU32(b) != 0x01020304 {
		t.Error("u32 not little-endian round trip")
	}
	PutU64(b, 0x0102030405060708)
	if b[0] != 8 || GetU64(b) != 0x0102030405060708 {
		t.Error("u64 not little-endian round trip")
	}
}
