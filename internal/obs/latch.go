package obs

// ErrorLatch records the first error a best-effort consumer hits and counts
// everything it subsequently refuses to process. Both the trace writer
// (JSONL) and the verification checker share the pattern: after the
// first failure they stop acting but keep accounting, so a truncated or
// partially-checked run is detectable — the stream is complete iff Err()
// is nil, and Dropped() says how much was lost either way.
//
// A nil *ErrorLatch is inert: every method is safe to call and reports the
// zero state, so embedding call sites need no guards.
type ErrorLatch struct {
	err     error
	dropped int
}

// Latch records err as the latched error if none is latched yet. A nil err
// is ignored. It reports whether the latch now holds an error (so callers
// can write `if l.Latch(err) { return }`).
func (l *ErrorLatch) Latch(err error) bool {
	if l == nil {
		return false
	}
	if l.err == nil && err != nil {
		l.err = err
	}
	return l.err != nil
}

// Failed reports whether an error has been latched.
func (l *ErrorLatch) Failed() bool {
	return l != nil && l.err != nil
}

// Err returns the first latched error, if any.
func (l *ErrorLatch) Err() error {
	if l == nil {
		return nil
	}
	return l.err
}

// CountDropped records one unit of work skipped because the latch already
// holds an error. Call it on the paths that bail out after Failed().
func (l *ErrorLatch) CountDropped() {
	if l != nil {
		l.dropped++
	}
}

// Dropped returns how many units of work were skipped after the first
// latched error.
func (l *ErrorLatch) Dropped() int {
	if l == nil {
		return 0
	}
	return l.dropped
}
