// Package clock models imperfect per-node clocks. The paper's tracing
// algorithm is explicitly independent of clock synchronisation quality
// (§4.1: "our tracing algorithm does not depend on highly precise clock
// synchronization across distributed nodes"), and §5.2 validates accuracy
// with skews from 1 ms to 500 ms. This package produces node-local
// timestamps from the simulator's global virtual time: an offset (skew), a
// linear drift rate, and optional timestamp quantisation. Local timestamps
// are guaranteed monotonic per node, matching a real kernel's trace log.
package clock

import "time"

// Clock converts global virtual time into one node's local timestamps.
type Clock struct {
	offset   time.Duration
	driftPPM float64
	quantum  time.Duration
	last     time.Duration
	primed   bool
}

// Option configures a Clock.
type Option func(*Clock)

// WithOffset sets a constant skew added to every local reading. Both signs
// are valid; the paper sweeps 1 ms – 500 ms.
func WithOffset(off time.Duration) Option {
	return func(c *Clock) { c.offset = off }
}

// WithDriftPPM sets a linear drift in parts per million: after one global
// second the local clock has gained (or lost) drift µs.
func WithDriftPPM(ppm float64) Option {
	return func(c *Clock) { c.driftPPM = ppm }
}

// WithQuantum rounds local readings down to a multiple of q, modelling a
// clock source with limited resolution (the paper logs microseconds).
func WithQuantum(q time.Duration) Option {
	return func(c *Clock) { c.quantum = q }
}

// New returns a clock with the given imperfections.
func New(opts ...Option) *Clock {
	c := &Clock{}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Local converts a global virtual time into this node's local timestamp.
// Successive calls with non-decreasing global times yield non-decreasing
// local times (a kernel log is totally ordered in its own clock).
func (c *Clock) Local(global time.Duration) time.Duration {
	local := global + c.offset + time.Duration(c.driftPPM*float64(global)/1e6)
	if c.quantum > 0 {
		local -= local % c.quantum
	}
	if c.primed && local < c.last {
		local = c.last
	}
	c.last = local
	c.primed = true
	return local
}

// SkewScenario assigns per-node clocks for an experiment. The paper's §5.2
// sweeps the maximum pairwise skew; Spread distributes offsets in
// [-max/2, +max/2] across node indices deterministically.
type SkewScenario struct {
	MaxSkew  time.Duration
	DriftPPM float64
	Quantum  time.Duration
}

// ClockFor returns the clock for node i of n under this scenario. Offsets
// alternate sign and grow with index so that the largest pairwise skew
// equals MaxSkew.
func (s SkewScenario) ClockFor(i, n int) *Clock {
	if n <= 1 {
		return New(WithDriftPPM(s.DriftPPM), WithQuantum(s.Quantum))
	}
	// Spread offsets evenly across [-MaxSkew/2, +MaxSkew/2].
	span := int64(s.MaxSkew)
	step := span / int64(n-1)
	off := time.Duration(-span/2 + step*int64(i))
	drift := s.DriftPPM
	if i%2 == 1 {
		drift = -drift
	}
	return New(WithOffset(off), WithDriftPPM(drift), WithQuantum(s.Quantum))
}
