package cp

import "fmt"

// Hooks for the external tests in dispatch_diff_test.go, which need the
// schedulers of internal/sched (an importer of this package) and reach the
// dispatch round's unexported bookkeeping through here.

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
