// Package faults is a seeded, deterministic link-fault model for the
// simulated NIC: per-direction random loss, bursty (Gilbert-style) loss,
// reordering, duplication, delay jitter, and payload corruption, all
// driven by a sim.Rand so a scenario is replayable from its seed alone.
//
// The model attaches to the wire path via nic.Port's Interceptor hook, the
// port's one wire-fault hook, and never interferes with buffer release: by
// the time the interceptor sees a frame the DMA engine has read and
// released the transmit buffers, which is exactly the window in which
// Cornflakes' use-after-free guarantee must hold the application's data
// alive for retransmission (§3).
//
// Corrupted copies are detected and dropped by the receiving NIC's frame
// check sequence (see nic.Port.RxFCSErrors), so from the transport's point
// of view corruption is one more loss mode — which is how real Ethernet
// behaves.
package faults

import (
	"fmt"

	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

// Dir configures the faults applied to one direction of a link. The zero
// value is a clean wire.
type Dir struct {
	// Loss is the independent per-frame drop probability.
	Loss float64
	// BurstLoss is the per-frame probability of entering a loss burst; once
	// in a burst, frames are dropped back to back until the burst length —
	// geometric with mean BurstLen (≥ 1) — is exhausted. This is the
	// classic two-state Gilbert channel, the pattern that exposes
	// retransmission-backoff bugs single-frame loss cannot.
	BurstLoss float64
	BurstLen  float64
	// Reorder is the probability a frame is held back by ReorderDelay,
	// letting frames sent after it arrive first.
	Reorder      float64
	ReorderDelay sim.Time
	// Duplicate is the probability a frame is delivered twice.
	Duplicate float64
	// Jitter adds a uniform [0, Jitter) delay to every delivery.
	Jitter sim.Time
	// Corrupt is the probability one payload byte of a delivered copy is
	// flipped on the wire.
	Corrupt float64
}

// Plan is a whole-link fault scenario: one seed, one Dir per direction.
// A→B is the direction from the first port passed to Apply.
type Plan struct {
	Seed uint64
	AtoB Dir
	BtoA Dir
}

// Stats counts what one direction's injector did to the traffic.
type Stats struct {
	Frames       uint64 // frames offered to the injector
	Dropped      uint64 // independent random losses
	BurstDropped uint64 // losses inside a burst
	Reordered    uint64
	Duplicated   uint64
	Corrupted    uint64
}

func (s Stats) String() string {
	return fmt.Sprintf("frames=%d drop=%d burst=%d reorder=%d dup=%d corrupt=%d",
		s.Frames, s.Dropped, s.BurstDropped, s.Reordered, s.Duplicated, s.Corrupted)
}

// Injector applies one direction's Dir to every frame crossing it.
type Injector struct {
	dir       Dir
	rng       *sim.Rand
	burstLeft int

	Stats Stats
}

// Apply installs the plan on a port pair (as returned by nic.Link) and
// returns the two per-direction injectors for stats inspection. It
// replaces any Interceptor already set on either port.
func Apply(plan Plan, a, b *nic.Port) (ab, ba *Injector) {
	root := sim.NewRand(plan.Seed)
	ab = &Injector{dir: plan.AtoB, rng: root.Fork(0)}
	ba = &Injector{dir: plan.BtoA, rng: root.Fork(1)}
	a.Interceptor = ab.intercept
	b.Interceptor = ba.intercept
	return ab, ba
}

// intercept implements nic.Interceptor. Draw order is fixed — burst, loss,
// reorder, corrupt, duplicate, then per-copy jitter — so a scenario's
// schedule depends only on the seed and the frame sequence.
func (in *Injector) intercept(data []byte) []nic.Delivery {
	in.Stats.Frames++
	if in.burstLeft > 0 {
		in.burstLeft--
		in.Stats.BurstDropped++
		return nil
	}
	if in.dir.BurstLoss > 0 && in.rng.Float64() < in.dir.BurstLoss {
		// This frame opens the burst; the geometric tail eats successors.
		in.burstLeft = in.geometricLen() - 1
		in.Stats.BurstDropped++
		return nil
	}
	if in.dir.Loss > 0 && in.rng.Float64() < in.dir.Loss {
		in.Stats.Dropped++
		return nil
	}

	var extra sim.Time
	if in.dir.Reorder > 0 && in.rng.Float64() < in.dir.Reorder {
		in.Stats.Reordered++
		extra = in.dir.ReorderDelay
	}
	first := nic.Delivery{Data: data, Delay: extra + in.jitter()}
	if in.dir.Corrupt > 0 && in.rng.Float64() < in.dir.Corrupt {
		in.Stats.Corrupted++
		first.Data = in.corrupt(data)
	}
	out := []nic.Delivery{first}
	if in.dir.Duplicate > 0 && in.rng.Float64() < in.dir.Duplicate {
		in.Stats.Duplicated++
		// The copy always carries the pristine bytes: duplication models a
		// switch re-forwarding the frame, not a second corruption event.
		out = append(out, nic.Delivery{Data: data, Delay: extra + in.jitter()})
	}
	return out
}

// geometricLen draws a geometric burst length with mean max(BurstLen, 1).
func (in *Injector) geometricLen() int {
	mean := in.dir.BurstLen
	if mean < 1 {
		mean = 1
	}
	// P(continue) = 1 - 1/mean gives a geometric with the requested mean.
	n := 1
	for in.rng.Float64() < 1-1/mean && n < 64 {
		n++
	}
	return n
}

// jitter draws one delivery's delay jitter.
func (in *Injector) jitter() sim.Time {
	if in.dir.Jitter <= 0 {
		return 0
	}
	return in.rng.Duration(in.dir.Jitter)
}

// corrupt returns a copy of frame with one byte flipped (never to its
// original value, so the receiving NIC's FCS always detects it).
func (in *Injector) corrupt(frame []byte) []byte {
	c := append([]byte(nil), frame...)
	if len(c) == 0 {
		return c
	}
	i := in.rng.Intn(len(c))
	c[i] ^= byte(1 + in.rng.Intn(255))
	return c
}
