package baselines

import (
	"testing"

	"cornflakes/internal/core"
)

func idSchema() *core.Schema {
	return &core.Schema{Name: "R", Fields: []core.Field{
		{Name: "id", Kind: core.KindInt},
		{Name: "val", Kind: core.KindBytes},
	}}
}

func TestProtoPeekID(t *testing.T) {
	m := testMeter()
	d := NewDoc(idSchema())
	d.SetInt(0, 0xDEADBEEF12345)
	d.SetBytes(1, []byte("some value payload"), 0)
	buf := make([]byte, ProtoSize(d, m))
	ProtoMarshal(d, buf, 0, m)
	id, ok := ProtoPeekID(buf)
	if !ok || id != 0xDEADBEEF12345 {
		t.Errorf("ProtoPeekID = (%x, %v)", id, ok)
	}
	if _, ok := ProtoPeekID(nil); ok {
		t.Error("empty input accepted")
	}
	if _, ok := ProtoPeekID([]byte{0x12}); ok { // field 2, wrong leading field
		t.Error("wrong leading field accepted")
	}
}

func TestFBPeekID(t *testing.T) {
	m := testMeter()
	d := NewDoc(idSchema())
	d.SetInt(0, 777)
	d.SetBytes(1, []byte("v"), 0)
	buf := FBBuild(d, m)
	id, ok := FBPeekID(buf)
	if !ok || id != 777 {
		t.Errorf("FBPeekID = (%d, %v)", id, ok)
	}
	if _, ok := FBPeekID([]byte{1, 2}); ok {
		t.Error("short input accepted")
	}
	// Field 0 absent.
	d2 := NewDoc(idSchema())
	d2.SetBytes(1, []byte("v"), 0)
	if _, ok := FBPeekID(FBBuild(d2, m)); ok {
		t.Error("absent id accepted")
	}
}

func TestCapnpPeekID(t *testing.T) {
	m := testMeter()
	d := NewDoc(idSchema())
	d.SetInt(0, 31337)
	cm := CapnpBuild(d, m)
	var f CapnpFrame
	CapnpFlatten(&f, cm)
	var wire []byte
	for _, s := range f.Segs {
		wire = append(wire, s...)
	}
	id, ok := CapnpPeekID(wire)
	if !ok || id != 31337 {
		t.Errorf("CapnpPeekID = (%d, %v)", id, ok)
	}
	if _, ok := CapnpPeekID([]byte{0, 0}); ok {
		t.Error("short input accepted")
	}
	// Field 0 absent.
	d2 := NewDoc(idSchema())
	d2.SetBytes(1, []byte("x"), 0)
	cm2 := CapnpBuild(d2, m)
	CapnpFlatten(&f, cm2)
	var wire2 []byte
	for _, s := range f.Segs {
		wire2 = append(wire2, s...)
	}
	if _, ok := CapnpPeekID(wire2); ok {
		t.Error("absent id accepted")
	}
}
