package trace

import "cornflakes/internal/sim"

// Gauge is one named metric read on demand.
type Gauge struct {
	Name string
	Fn   func() float64
}

// Sample is one cadence tick: every gauge's value at one virtual instant,
// in registration order.
type Sample struct {
	At     sim.Time
	Values []float64
}

// Registry snapshots a fixed set of gauges at a fixed virtual-time cadence,
// giving a traced run its counter tracks (memory occupancy, shed counts,
// copy fallbacks, core utilization, drops) alongside the request timelines.
type Registry struct {
	gauges  []Gauge
	samples []Sample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a gauge. Registration order is the export order, so callers
// register deterministically (no map iteration).
func (r *Registry) Register(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.gauges = append(r.gauges, Gauge{Name: name, Fn: fn})
}

// SampleNow takes one snapshot at the current virtual time.
func (r *Registry) SampleNow(now sim.Time) {
	if r == nil {
		return
	}
	s := Sample{At: now, Values: make([]float64, len(r.gauges))}
	for i, g := range r.gauges {
		s.Values[i] = g.Fn()
	}
	r.samples = append(r.samples, s)
}

// SampleUntil schedules snapshots every `every` from now through `until`
// inclusive. The tick chain is bounded — each tick schedules the next only
// while it is due at or before `until` — so an engine Run() that drains all
// events still terminates.
func (r *Registry) SampleUntil(eng *sim.Engine, every, until sim.Time) {
	if r == nil || every <= 0 {
		return
	}
	var tick func()
	tick = func() {
		now := eng.Now()
		r.SampleNow(now)
		if now+every <= until {
			eng.After(every, tick)
		}
	}
	eng.After(0, tick)
}

// Samples returns the collected snapshots in time order.
func (r *Registry) Samples() []Sample {
	if r == nil {
		return nil
	}
	return r.samples
}
