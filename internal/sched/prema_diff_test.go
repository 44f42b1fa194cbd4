package sched

import (
	"math/rand"
	"sort"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

// premaVerdict is what one PREMA epoch decides.
type premaVerdict struct {
	ranked     []*cp.JobRun
	prio       map[*cp.JobRun]int64
	paused     map[*cp.JobRun]bool
	stallUntil sim.Time
}

// premaReferenceEpoch is the epoch as it was written before tokens were
// stored: the token is recomputed inside the comparator, from the by-value
// gpu API, over a sort.SliceStable of a copy of Active(), with a granted
// map. It applies nothing — it returns the decisions the epoch would make.
func premaReferenceEpoch(sys *cp.System) premaVerdict {
	cfg := sys.Device().Config()
	token := func(j *cp.JobRun) float64 {
		var ideal sim.Time
		for _, k := range j.Job.Kernels {
			ideal += gpu.IsolatedKernelTime(cfg, k)
		}
		if ideal <= 0 {
			ideal = 1
		}
		elapsed := sys.Now() - j.SubmitTime
		if elapsed < 0 {
			elapsed = 0
		}
		return float64(elapsed) / float64(ideal)
	}
	active := sys.Active()
	ranked := make([]*cp.JobRun, len(active))
	copy(ranked, active)
	sort.SliceStable(ranked, func(a, b int) bool {
		ta, tb := token(ranked[a]), token(ranked[b])
		if ta != tb {
			return ta > tb
		}
		return ranked[a].SubmitTime < ranked[b].SubmitTime
	})
	granted := make(map[*cp.JobRun]bool, len(ranked))
	demand := 0
	for _, j := range ranked {
		if demand >= cfg.TotalThreads() {
			break
		}
		granted[j] = true
		if k := j.Current(); k != nil {
			demand += k.Desc.TotalThreads()
		}
	}
	v := premaVerdict{ranked: ranked, prio: map[*cp.JobRun]int64{}, paused: map[*cp.JobRun]bool{},
		stallUntil: sys.Device().StallEndsAt()}
	preemptBytes := 0
	for rank, j := range ranked {
		v.paused[j] = !granted[j] && j.Current() != nil
		v.prio[j] = int64(rank)
		if granted[j] {
			continue
		}
		v.prio[j] = int64(len(ranked) + 1)
		if k := j.Current(); !j.Paused() && k != nil && k.OutstandingWGs() > 0 {
			preemptBytes += k.Desc.ContextBytes()
		}
	}
	if stall := sim.Time(preemptBytes / premaSaveRestoreBytesPerNs); stall > 0 {
		v.stallUntil = max(v.stallUntil, sys.Now()+stall)
	}
	return v
}

// premaChecked runs every epoch past the reference first and compares.
type premaChecked struct {
	*PREMA
	t *testing.T

	epochs, tokenTies, fullTies, zeroIdeal int
}

func (c *premaChecked) Reprioritize() {
	want := premaReferenceEpoch(c.sys)
	c.PREMA.Reprioritize()
	if len(want.ranked) == 0 {
		return
	}
	c.epochs++
	for i, r := range c.ranked {
		j := r.j
		if j != want.ranked[i] {
			c.t.Fatalf("t=%v rank %d: job %d, reference ranks job %d there", c.sys.Now(), i, j.Job.ID, want.ranked[i].Job.ID)
		}
		if j.Priority != want.prio[j] || j.Paused() != want.paused[j] {
			c.t.Fatalf("t=%v job %d: priority %d paused %v, reference %d %v",
				c.sys.Now(), j.Job.ID, j.Priority, j.Paused(), want.prio[j], want.paused[j])
		}
		if c.state(j).ideal == 1 {
			c.zeroIdeal++
		}
		if i > 0 && r.token == c.ranked[i-1].token {
			if j.SubmitTime == c.ranked[i-1].j.SubmitTime {
				c.fullTies++
			} else {
				c.tokenTies++
			}
		}
	}
	if got := c.sys.Device().StallEndsAt(); got != want.stallUntil {
		c.t.Fatalf("t=%v stall ends at %v, reference %v", c.sys.Now(), got, want.stallUntil)
	}
}

// TestPREMARankingMatchesRecomputedComparator is the ranking differential:
// over seeded random workloads every epoch's order, grants, priorities,
// pause/resume state and preemption stall equal the reference's, including
// epochs with equal tokens at different SubmitTimes (a 2x-longer job
// submitted 2x earlier), same-instant arrivals of one shape (equal on both
// keys: Active() order decides) and jobs whose predicted time is zero.
func TestPREMARankingMatchesRecomputedComparator(t *testing.T) {
	unit := kdesc("unit", 16, 2560, 40*sim.Microsecond, 0.3)
	shapes := [][]*gpu.KernelDesc{
		{unit},
		{unit, unit}, // exactly twice unit's predicted time
		{kdesc("mem", 64, 1024, 25*sim.Microsecond, 0.9), unit},
		{kdesc("small", 4, 256, 90*sim.Microsecond, 0)},
		{kdesc("instant", 8, 64, 0, 0)}, // predicted time 0: the ideal <= 0 clamp
	}
	// Arrival instants: few and shared, so SubmitTimes collide; 0 vs 125 µs
	// makes the {unit,unit}/{unit} pair tie on token at the 250 µs epoch;
	// 249 µs lands "instant" jobs in the active set (still parsing) at it.
	instants := []sim.Time{0, 125 * sim.Microsecond, 249 * sim.Microsecond, 300 * sim.Microsecond, 499 * sim.Microsecond}
	rng := rand.New(rand.NewSource(7))
	var total premaChecked
	for trial := 0; trial < 60; trial++ {
		var specs []jobSpec
		for _, at := range instants {
			for n := rng.Intn(14); n > 0; n-- {
				specs = append(specs, jobSpec{at, 50 * sim.Millisecond, shapes[rng.Intn(len(shapes))]})
			}
		}
		if len(specs) == 0 {
			continue
		}
		c := &premaChecked{PREMA: NewPREMA(), t: t}
		runPolicy(t, c, buildSet(specs))
		total.epochs += c.epochs
		total.tokenTies += c.tokenTies
		total.fullTies += c.fullTies
		total.zeroIdeal += c.zeroIdeal
	}
	if total.epochs < 500 || total.tokenTies == 0 || total.fullTies == 0 || total.zeroIdeal == 0 {
		t.Fatalf("coverage too thin: %d epochs, %d token-only ties, %d (token, SubmitTime) ties, %d zero-ideal rankings",
			total.epochs, total.tokenTies, total.fullTies, total.zeroIdeal)
	}
	t.Logf("%d epochs, %d token-only ties, %d full ties, %d zero-ideal rankings",
		total.epochs, total.tokenTies, total.fullTies, total.zeroIdeal)
}
