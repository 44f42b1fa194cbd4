package obs

import (
	"errors"
	"testing"
)

func TestErrorLatchHoldsFirstError(t *testing.T) {
	var l ErrorLatch
	if l.Err() != nil || l.Dropped() != 0 {
		t.Fatalf("zero latch not clean: %v %d", l.Err(), l.Dropped())
	}
	if l.Latch(nil) {
		t.Fatal("Latch(nil) reported failure")
	}
	first := errors.New("first")
	if !l.Latch(first) {
		t.Fatal("Latch(first) did not report failure")
	}
	if !l.Latch(errors.New("second")) {
		t.Fatal("latched latch must keep reporting failure")
	}
	if l.Err() != first {
		t.Fatalf("Err() = %v, want first", l.Err())
	}
	l.CountDropped()
	l.CountDropped()
	if l.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2", l.Dropped())
	}
}

func TestErrorLatchNilSafe(t *testing.T) {
	var l *ErrorLatch
	if l.Latch(errors.New("x")) || l.Err() != nil {
		t.Fatal("nil latch must be inert")
	}
	l.CountDropped()
	if l.Dropped() != 0 {
		t.Fatal("nil latch counted a drop")
	}
}
