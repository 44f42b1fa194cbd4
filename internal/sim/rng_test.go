package sim

import (
	"math/rand"
	"testing"
)

// TestPooledRNGMatchesFresh holds a recycled generator to a new one: after
// Release, NewRNG re-seeds the released source, and its Float64, Exp,
// Geometric and Normal draws must equal those of rand.New(rand.NewSource(s))
// for 10 000 rounds. The seeds cover zero, ±1, a large one and the stream
// seed scenario.cohortSeed gives three-tenant's "batch" cohort at seed 1.
func TestPooledRNGMatchesFresh(t *testing.T) {
	cohort := int64(1)
	for _, ch := range "batch" {
		cohort = cohort*31 + int64(ch)
	}
	cohort = cohort*31 + 2 + 1
	for _, seed := range []int64{0, 1, -1, 1 << 62, cohort} {
		got := pooledRNG(t, seed)
		want := &RNG{r: rand.New(rand.NewSource(seed))}
		for i := range 10_000 {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 %v, fresh %v", seed, i, g, w)
			}
			if g, w := got.Exp(Millisecond), want.Exp(Millisecond); g != w {
				t.Fatalf("seed %d draw %d: Exp %v, fresh %v", seed, i, g, w)
			}
			if g, w := got.Geometric(16), want.Geometric(16); g != w {
				t.Fatalf("seed %d draw %d: Geometric %v, fresh %v", seed, i, g, w)
			}
			if g, w := got.Normal(16, 4), want.Normal(16, 4); g != w {
				t.Fatalf("seed %d draw %d: Normal %v, fresh %v", seed, i, g, w)
			}
		}
		got.Release()
	}
}

// pooledRNG returns NewRNG(seed) built on a source that an earlier
// generator drew from and released. A sync.Pool may drop a Put (the race
// detector drops a random quarter), so it retries until NewRNG hands the
// released source back.
func pooledRNG(t *testing.T, seed int64) *RNG {
	t.Helper()
	for range 32 {
		old := NewRNG(seed + 7)
		for range 100 {
			old.Float64()
			old.Normal(0, 1)
		}
		src := old.r
		old.Release()
		if g := NewRNG(seed); g.r == src {
			return g
		}
	}
	t.Fatal("NewRNG never reused a released source")
	return nil
}
