package cp

import (
	"cmp"
	"fmt"
	"slices"
)

// Hooks for the external tests in dispatch_diff_test.go, which need the
// schedulers of internal/sched (an importer of this package) and reach the
// dispatch round's unexported bookkeeping through here.

// StartTrace starts a batch run as RunContext does and returns its jobs in
// the order RunContext submits them. Arrive submits one through the step
// RunContext calls; the caller runs the engine up to each arrival first, as
// RunContext does.
func (s *System) StartTrace() []*JobRun {
	s.start("StartTrace")
	return s.arrivalOrder()
}

func (s *System) Arrive(jr *JobRun) { s.submit(jr) }

// AlwaysWalk turns s into the always-walk reference: every round reaches the
// policy's order with the ready counts stale again, so no round returns or
// stops early — each walks every active job in order, the dispatch loop as it
// was before the counts existed.
func (s *System) AlwaysWalk() { s.orderer = alwaysWalk{s, s.orderer} }

type alwaysWalk struct {
	s     *System
	inner Orderer
}

func (a alwaysWalk) Order(active []*JobRun) []*JobRun {
	a.s.readyStale = true
	if a.inner != nil {
		return a.inner.Order(active)
	}
	return a.s.priorityOrder()
}

// TapServed calls fn for every offer that placed a WG, before the policy's
// own ServeObserver (if any) sees it.
func (s *System) TapServed(fn func(*JobRun)) { s.observer = servedTap{fn, s.observer} }

type servedTap struct {
	fn    func(*JobRun)
	inner ServeObserver
}

func (t servedTap) Served(jr *JobRun) {
	t.fn(jr)
	if t.inner != nil {
		t.inner.Served(jr)
	}
}

// CheckReady recounts ready from scratch and reports the first class whose
// count differs. Stale counts promise nothing and pass.
func (s *System) CheckReady() error {
	if s.readyStale {
		return nil
	}
	want := make([]int, len(s.ready))
	for _, jr := range s.active {
		if inst := jr.Current(); inst != nil && inst.Dispatchable() {
			c := s.dev.FootprintClass(inst)
			for len(want) <= c {
				want = append(want, 0)
			}
			want[c]++
		}
	}
	for c, n := range want {
		if c >= len(s.ready) || s.ready[c] != n {
			return fmt.Errorf("t=%v: ready = %v, a recount of the %d active jobs gives %v", s.eng.Now(), s.ready, len(s.active), want)
		}
	}
	return nil
}

// LoseReady is the broken variant "one markReady forgot its increment": it
// takes one off the first positive count, and reports whether there was one
// to take (fresh counts only — a recount would repair the damage).
func (s *System) LoseReady() bool {
	if s.readyStale {
		return false
	}
	for c, n := range s.ready {
		if n > 0 {
			s.ready[c]--
			return true
		}
	}
	return false
}

// CheckOrder holds the dispatch order of a policy without an Orderer
// against its definition. The cache must be a permutation of Active() at all
// times, its stamps aligned with it; and whenever it is trusted — the next
// priorityOrder call would return it as it stands — it must equal a fresh
// stable sort of Active() by (priority, quantized when PriorityLevels is
// set; SubmitTime; ID). A cache awaiting a compare or a repair promises no
// order and passes that part.
func (s *System) CheckOrder() error {
	sorted := func(js []*JobRun) []int {
		out := jobIDs(js)
		slices.Sort(out)
		return out
	}
	if !slices.Equal(sorted(s.orderCache), sorted(s.active)) || len(s.orderPrios) != len(s.orderCache) {
		return fmt.Errorf("t=%v: dispatch order %v (%d stamps) is not a permutation of the active jobs %v", s.eng.Now(), jobIDs(s.orderCache), len(s.orderPrios), jobIDs(s.active))
	}
	if s.orderer != nil || !s.orderTrusted() {
		return nil
	}
	if want := s.sortedActive(); !slices.Equal(s.orderCache, want) {
		return fmt.Errorf("t=%v: cached dispatch order %v, a stable sort of the %d active jobs gives %v", s.eng.Now(), jobIDs(s.orderCache), len(s.active), jobIDs(want))
	}
	return nil
}

// sortedActive is the dispatch order's definition: a fresh stable sort of
// the active jobs.
func (s *System) sortedActive() []*JobRun {
	prio := func(j *JobRun) int64 { return j.Priority }
	if s.cfg.PriorityLevels > 0 {
		prio = s.quantizedPriority()
	}
	want := slices.Clone(s.active)
	slices.SortStableFunc(want, func(ja, jb *JobRun) int {
		return cmp.Or(cmp.Compare(prio(ja), prio(jb)), cmp.Compare(ja.SubmitTime, jb.SubmitTime), cmp.Compare(ja.Job.ID, jb.Job.ID))
	})
	return want
}

func jobIDs(js []*JobRun) []int {
	out := make([]int, len(js))
	for i, j := range js {
		out[i] = j.Job.ID
	}
	return out
}

// CheckOrderAtUse checks the order every dispatch round of a policy without
// an Orderer uses, at the moment it uses it — also inside a Reprioritize
// pass, which the after-each-event CheckOrder never sees — against a fresh
// stable sort, reporting each mismatch to fail.
func (s *System) CheckOrderAtUse(fail func(error)) {
	if s.orderer == nil {
		s.orderer = checkedOrder{s, fail}
	}
}

type checkedOrder struct {
	s    *System
	fail func(error)
}

func (c checkedOrder) Order([]*JobRun) []*JobRun {
	got := c.s.priorityOrder()
	if want := c.s.sortedActive(); !slices.Equal(got, want) {
		c.fail(fmt.Errorf("t=%v (in a pass: %v): dispatch uses order %v, a stable sort of the %d active jobs gives %v", c.s.eng.Now(), c.s.inPass, jobIDs(got), len(c.s.active), jobIDs(want)))
	}
	return got
}

// orderTrusted reports whether priorityOrder would return the cache as it
// stands: no compare pending, or one that would find every stamp current,
// and no repair pending.
func (s *System) orderTrusted() bool {
	if s.orderDirty {
		return false
	}
	if s.prioMoved || s.inPass {
		for i, jr := range s.orderCache {
			if jr.Priority != s.orderPrios[i] {
				return false
			}
		}
	}
	return true
}

// SwapOrder is the broken variant "the repair left two jobs out of order": it
// swaps the first two cached entries, stamps and all, so the cache stays
// trusted. The sort key is a total order, so any swap of two jobs breaks the
// sort. It reports whether the trusted cache held two jobs to swap.
func (s *System) SwapOrder() bool {
	if s.orderer != nil || !s.orderTrusted() || len(s.orderCache) < 2 {
		return false
	}
	c, p := s.orderCache, s.orderPrios
	c[0], c[1] = c[1], c[0]
	p[0], p[1] = p[1], p[0]
	return true
}
