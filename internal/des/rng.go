package des

import (
	"math/rand"
	"time"
)

// RNG wraps a seeded source with the distributions the workload and network
// models need. Every stochastic component of the testbed owns its own RNG so
// that changing one component's draw count does not perturb the others.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Exp draws from an exponential distribution with the given mean.
func (g *RNG) Exp(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(g.r.ExpFloat64() * float64(mean))
}

// Normal draws from a normal distribution clamped at zero.
func (g *RNG) Normal(mean, stddev time.Duration) time.Duration {
	v := float64(mean) + g.r.NormFloat64()*float64(stddev)
	if v < 0 {
		v = 0
	}
	return time.Duration(v)
}

// Pick returns an index drawn according to the given non-negative weights.
// If the weights sum to zero it returns 0.
func (g *RNG) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
