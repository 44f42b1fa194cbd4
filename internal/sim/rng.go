package sim

import (
	"math"
	"math/rand"
	"sync"
)

// RNG wraps a seeded pseudo-random source with the distributions the
// workload generators need. Every experiment threads an explicit RNG so runs
// are reproducible and schedulers can be compared on identical arrival
// traces.
type RNG struct {
	r *rand.Rand
}

// sources holds the generators Release handed back. A math/rand source is
// ~4.9 kB of state, and re-seeding one rewrites all of it, so NewRNG draws
// the same values from a recycled generator as from a new one.
var sources sync.Pool

// NewRNG returns a deterministic generator for the given seed, re-seeding
// one that Release handed back when there is one.
func NewRNG(seed int64) *RNG {
	if r, ok := sources.Get().(*rand.Rand); ok {
		r.Seed(seed)
		return &RNG{r: r}
	}
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Release hands the generator's source back for a later NewRNG to re-seed.
// The caller must be the generator's only holder and must not use it
// again: a later NewRNG draws from the same source.
func (g *RNG) Release() {
	sources.Put(g.r)
	g.r = nil
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Exp returns an exponentially distributed duration with the given mean.
// It is the inter-arrival time of a Poisson process with rate 1/mean, which
// is how the paper generates job arrivals ("we randomly generate specific
// job arrival times based on an exponential distribution", §5.3).
func (g *RNG) Exp(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	d := Time(math.Round(g.r.ExpFloat64() * float64(mean)))
	if d < 0 { // guard against pathological float rounding
		d = 0
	}
	return d
}

// Geometric returns a value in {1, 2, ...} from a geometric distribution
// with the given mean (mean must be > 1). Used for RNN sequence lengths: the
// WMT'15 trace used by the paper has a mean sequence length of 16 with a
// long right tail, which a geometric distribution captures to first order.
func (g *RNG) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1.0 / mean
	// Inverse-CDF sampling: k = ceil(ln(1-u)/ln(1-p)).
	u := g.r.Float64()
	k := int(math.Ceil(math.Log(1-u) / math.Log(1-p)))
	if k < 1 {
		k = 1
	}
	return k
}

// BoundedGeometric draws Geometric(mean) truncated to [min, max] by
// resampling (with a deterministic clamp fallback after a fixed number of
// attempts, so the generator never loops unboundedly).
func (g *RNG) BoundedGeometric(mean float64, min, max int) int {
	for attempt := 0; attempt < 64; attempt++ {
		k := g.Geometric(mean)
		if k >= min && k <= max {
			return k
		}
	}
	k := g.Geometric(mean)
	if k < min {
		k = min
	}
	if k > max {
		k = max
	}
	return k
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (g *RNG) Normal(mean, sd float64) float64 {
	return g.r.NormFloat64()*sd + mean
}

// ParetoFloat returns a Pareto(xm, alpha) sample: a heavy-tailed value in
// [xm, ∞) with P(X > x) = (xm/x)^alpha. For alpha > 1 the mean is
// xm·alpha/(alpha−1); for alpha ≤ 1 the mean diverges. Inverse-CDF sampling
// keeps the draw deterministic (one uniform per sample).
func (g *RNG) ParetoFloat(xm, alpha float64) float64 {
	// 1-Float64() is in (0, 1], so the power never divides by zero.
	return xm / math.Pow(1-g.r.Float64(), 1/alpha)
}

// Pareto returns a Pareto-distributed duration with the given mean and tail
// index alpha (> 1): the scale xm is solved from mean = xm·alpha/(alpha−1),
// so swapping an exponential inter-arrival law for a Pareto one preserves
// the offered rate while fattening the tail.
func (g *RNG) Pareto(mean Time, alpha float64) Time {
	if mean <= 0 {
		return 0
	}
	if alpha <= 1 {
		alpha = 1.000001 // degenerate tail index: clamp so the mean exists
	}
	xm := float64(mean) * (alpha - 1) / alpha
	d := Time(math.Round(g.ParetoFloat(xm, alpha)))
	if d < 0 { // float overflow on an extreme tail draw
		d = Forever / 4
	}
	return d
}

// LognormalFloat returns exp(Normal(mu, sigma)): a right-skewed value whose
// log is Gaussian. The mean is exp(mu + sigma²/2).
func (g *RNG) LognormalFloat(mu, sigma float64) float64 {
	return math.Exp(g.r.NormFloat64()*sigma + mu)
}

// Lognormal returns a lognormally distributed duration with the given mean
// and log-space standard deviation sigma: mu is solved from
// mean = exp(mu + sigma²/2), so like Pareto the offered rate is preserved
// while sigma controls how heavy the tail is (sigma → 0 degenerates to the
// constant mean).
func (g *RNG) Lognormal(mean Time, sigma float64) Time {
	if mean <= 0 {
		return 0
	}
	mu := math.Log(float64(mean)) - sigma*sigma/2
	d := Time(math.Round(g.LognormalFloat(mu, sigma)))
	if d < 0 { // float overflow on an extreme tail draw
		d = Forever / 4
	}
	return d
}

// BoundedNormal draws round(Normal(mean, sd)) clamped to [min, max]. Used
// for RNN sequence lengths: WMT'15 sentence lengths cluster around the mean
// with a roughly symmetric spread, unlike a geometric distribution whose
// mass piles up at 1.
func (g *RNG) BoundedNormal(mean, sd float64, min, max int) int {
	k := int(math.Round(g.Normal(mean, sd)))
	if k < min {
		k = min
	}
	if k > max {
		k = max
	}
	return k
}

// Shuffle permutes the n-element collection using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
