package faults

import (
	"fmt"
	"testing"

	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

// linkPair builds a port pair and returns them with the engine.
func linkPair() (*sim.Engine, *nic.Port, *nic.Port) {
	eng := sim.NewEngine()
	a, b := nic.Link(eng, nic.MellanoxCX6(), nic.MellanoxCX6(), sim.FromNanos(1000))
	return eng, a, b
}

// blast sends n small frames A→B and returns how many arrived at B.
func blast(eng *sim.Engine, a, b *nic.Port, n int) int {
	got := 0
	b.SetHandler(func(*nic.Frame) { got++ })
	for i := 0; i < n; i++ {
		frame := []byte(fmt.Sprintf("frame-%04d-padding-padding", i))
		if err := a.Send([]nic.SGEntry{{Data: frame}}); err != nil {
			panic(err)
		}
	}
	eng.Run()
	return got
}

func TestApplySameSeedSameSchedule(t *testing.T) {
	plan := Plan{Seed: 31, AtoB: Dir{
		Loss: 0.2, BurstLoss: 0.05, BurstLen: 3, Reorder: 0.2,
		ReorderDelay: 20 * sim.Microsecond, Duplicate: 0.1,
		Jitter: 2 * sim.Microsecond, Corrupt: 0.1,
	}}
	run := func() (Stats, int) {
		eng, a, b := linkPair()
		ab, _ := Apply(plan, a, b)
		got := blast(eng, a, b, 500)
		return ab.Stats, got
	}
	s1, g1 := run()
	s2, g2 := run()
	if s1 != s2 || g1 != g2 {
		t.Errorf("same seed diverged:\n  %v (got %d)\n  %v (got %d)", s1, g1, s2, g2)
	}
	// The adversarial plan actually did something in every category.
	if s1.Dropped == 0 || s1.BurstDropped == 0 || s1.Reordered == 0 ||
		s1.Duplicated == 0 || s1.Corrupted == 0 {
		t.Errorf("plan left a fault mode idle: %v", s1)
	}
	if s3, _ := func() (Stats, int) {
		eng, a, b := linkPair()
		p2 := plan
		p2.Seed = 32
		ab, _ := Apply(p2, a, b)
		return ab.Stats, blast(eng, a, b, 500)
	}(); s3 == s1 {
		t.Error("different seeds produced identical stats")
	}
}

func TestLossRate(t *testing.T) {
	eng, a, b := linkPair()
	ab, _ := Apply(Plan{Seed: 1, AtoB: Dir{Loss: 0.3}}, a, b)
	got := blast(eng, a, b, 2000)
	if ab.Stats.Frames != 2000 {
		t.Fatalf("injector saw %d frames", ab.Stats.Frames)
	}
	// 30% ± generous tolerance.
	if ab.Stats.Dropped < 450 || ab.Stats.Dropped > 750 {
		t.Errorf("dropped %d of 2000 at p=0.3", ab.Stats.Dropped)
	}
	if got != 2000-int(ab.Stats.Dropped) {
		t.Errorf("delivered %d, stats say %d dropped", got, ab.Stats.Dropped)
	}
}

func TestBurstLossRunsBackToBack(t *testing.T) {
	eng, a, b := linkPair()
	ab, _ := Apply(Plan{Seed: 5, AtoB: Dir{BurstLoss: 0.02, BurstLen: 4}}, a, b)
	blast(eng, a, b, 3000)
	if ab.Stats.BurstDropped == 0 {
		t.Fatal("no burst losses at p=0.02 over 3000 frames")
	}
	// Mean burst length 4 ⇒ burst drops should far outnumber burst starts.
	// With ~60 expected bursts, expect roughly 240 dropped frames.
	if ab.Stats.BurstDropped < 100 {
		t.Errorf("burst dropped only %d frames — bursts not extending", ab.Stats.BurstDropped)
	}
	if ab.Stats.Dropped != 0 {
		t.Errorf("independent drops %d, want 0 (Loss unset)", ab.Stats.Dropped)
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	eng, a, b := linkPair()
	ab, _ := Apply(Plan{Seed: 9, AtoB: Dir{Duplicate: 1.0}}, a, b)
	got := blast(eng, a, b, 100)
	if ab.Stats.Duplicated != 100 {
		t.Fatalf("duplicated %d of 100 at p=1", ab.Stats.Duplicated)
	}
	if got != 200 {
		t.Errorf("delivered %d frames, want 200", got)
	}
}

func TestCorruptionDroppedByNIC(t *testing.T) {
	eng, a, b := linkPair()
	ab, _ := Apply(Plan{Seed: 13, AtoB: Dir{Corrupt: 1.0}}, a, b)
	got := blast(eng, a, b, 100)
	if ab.Stats.Corrupted != 100 {
		t.Fatalf("corrupted %d of 100 at p=1", ab.Stats.Corrupted)
	}
	if got != 0 {
		t.Errorf("%d corrupted frames slipped past the FCS", got)
	}
	if b.RxFCSErrors != 100 {
		t.Errorf("RxFCSErrors = %d, want 100", b.RxFCSErrors)
	}
}

func TestDirectionsIndependent(t *testing.T) {
	eng, a, b := linkPair()
	ab, ba := Apply(Plan{Seed: 21, AtoB: Dir{Loss: 1.0}}, a, b)
	gotA := 0
	a.SetHandler(func(*nic.Frame) { gotA++ })
	gotB := 0
	b.SetHandler(func(*nic.Frame) { gotB++ })
	for i := 0; i < 20; i++ {
		a.Send([]nic.SGEntry{{Data: []byte("a-to-b-frame")}})
		b.Send([]nic.SGEntry{{Data: []byte("b-to-a-frame")}})
	}
	eng.Run()
	if gotB != 0 {
		t.Errorf("A→B delivered %d at Loss=1", gotB)
	}
	if gotA != 20 {
		t.Errorf("B→A (clean Dir) delivered %d of 20", gotA)
	}
	if ab.Stats.Dropped != 20 || ba.Stats.Dropped != 0 {
		t.Errorf("stats crossed directions: ab=%v ba=%v", ab.Stats, ba.Stats)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Frames: 1, Dropped: 2, BurstDropped: 3, Reordered: 4, Duplicated: 5, Corrupted: 6}
	want := "frames=1 drop=2 burst=3 reorder=4 dup=5 corrupt=6"
	if s.String() != want {
		t.Errorf("String() = %q, want %q", s.String(), want)
	}
}
