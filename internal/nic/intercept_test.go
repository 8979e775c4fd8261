package nic

import (
	"bytes"
	"errors"
	"testing"

	"cornflakes/internal/sim"
)

func TestInterceptorDropCountsAsWireLoss(t *testing.T) {
	eng := sim.NewEngine()
	a, b := newPair(eng)
	got := 0
	b.SetHandler(func(*Frame) { got++ })
	a.Interceptor = func([]byte) []Delivery { return nil }
	if err := a.Send([]SGEntry{{Data: []byte("gone")}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 0 {
		t.Errorf("dropped frame delivered %d times", got)
	}
	if a.DroppedFrames != 1 {
		t.Errorf("DroppedFrames = %d, want 1", a.DroppedFrames)
	}
	// The gather still happened: TX stats count the attempt.
	if a.TxFrames != 1 {
		t.Errorf("TxFrames = %d, want 1", a.TxFrames)
	}
}

func TestInterceptorDuplicationAndDelayOrdering(t *testing.T) {
	eng := sim.NewEngine()
	a, b := newPair(eng)
	var got [][]byte
	b.SetHandler(func(f *Frame) { got = append(got, append([]byte(nil), f.Data...)) })
	// First frame delayed past the second; second duplicated. Expected
	// arrival order: second, second (copy), first.
	n := 0
	a.Interceptor = func(data []byte) []Delivery {
		n++
		if n == 1 {
			return []Delivery{{Data: data, Delay: 50 * sim.Microsecond}}
		}
		return []Delivery{{Data: data}, {Data: data}}
	}
	if err := a.Send([]SGEntry{{Data: []byte("first")}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]SGEntry{{Data: []byte("second")}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 3 {
		t.Fatalf("delivered %d frames, want 3", len(got))
	}
	want := [][]byte{[]byte("second"), []byte("second"), []byte("first")}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("arrival %d = %q, want %q", i, got[i], want[i])
		}
	}
	if b.RxFrames != 3 {
		t.Errorf("RxFrames = %d, want 3", b.RxFrames)
	}
}

func TestCorruptedFrameDroppedByFCS(t *testing.T) {
	eng := sim.NewEngine()
	a, b := newPair(eng)
	got := 0
	b.SetHandler(func(*Frame) { got++ })
	a.Interceptor = func(data []byte) []Delivery {
		c := append([]byte(nil), data...)
		c[len(c)/2] ^= 0x40
		return []Delivery{{Data: c}}
	}
	if err := a.Send([]SGEntry{{Data: make([]byte, 128)}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 0 {
		t.Errorf("corrupted frame delivered %d times", got)
	}
	if b.RxFCSErrors != 1 {
		t.Errorf("RxFCSErrors = %d, want 1", b.RxFCSErrors)
	}
	if b.RxFrames != 0 {
		t.Errorf("RxFrames = %d, want 0", b.RxFrames)
	}
}

func TestInjectSendErrRefusesBeforeReferences(t *testing.T) {
	eng := sim.NewEngine()
	a, b := newPair(eng)
	got := 0
	b.SetHandler(func(*Frame) { got++ })
	refuse := errors.New("tx ring full")
	calls := 0
	a.InjectSendErr = func() error {
		calls++
		if calls == 1 {
			return refuse
		}
		return nil
	}
	released := 0
	ent := []SGEntry{{Data: []byte("payload"), Rel: relFunc(func() { released++ })}}
	if err := a.Send(ent); !errors.Is(err, refuse) {
		t.Fatalf("err = %v, want refusal", err)
	}
	// A refused post must not run completion hooks or count as a TX frame.
	if released != 0 {
		t.Errorf("completion hook ran %d times on refused post", released)
	}
	if a.TxFrames != 0 {
		t.Errorf("TxFrames = %d, want 0", a.TxFrames)
	}
	if a.RefusedSends != 1 {
		t.Errorf("RefusedSends = %d, want 1", a.RefusedSends)
	}
	if err := a.Send(ent); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if released != 1 || got != 1 {
		t.Errorf("after retry: released=%d delivered=%d, want 1/1", released, got)
	}
}
