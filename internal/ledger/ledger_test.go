package ledger

import (
	"math"
	"testing"
)

// TestWideRoundTrip puts values on both sides of every edge of a narrow
// field into one row each, and reads them back through what the row would
// store: a value fits exactly or spills, never truncates.
func TestWideRoundTrip(t *testing.T) {
	var w Wide
	values := []int64{0, 1, Spilled - 1, Spilled, Spilled + 1, -1, math.MaxInt64, math.MinInt64}
	stored := make([][4]uint32, len(values))
	for id, v := range values {
		for f := 0; f < 4; f++ {
			stored[id][f] = w.Put(int64(id), f, v+int64(f)*int64(id%2))
		}
	}
	for id, v := range values {
		for f := 0; f < 4; f++ {
			want := v + int64(f)*int64(id%2)
			if got := w.Get(int64(id), f, stored[id][f]); got != want {
				t.Errorf("row %d field %d: put %d, got %d", id, f, want, got)
			}
			if fits := want >= 0 && want < Spilled; fits != (stored[id][f] != Spilled) {
				t.Errorf("row %d field %d: %d stored as %d", id, f, want, stored[id][f])
			}
		}
	}
	if w.Len() != 5 {
		t.Errorf("%d rows hold wide values, want the 5 with a value outside [0, 2³²−1)", w.Len())
	}
	for id := range values {
		w.Drop(int64(id))
	}
	if w.Len() != 0 {
		t.Errorf("%d rows hold wide values after every row was dropped", w.Len())
	}
}

func TestFlags(t *testing.T) {
	const a, b, c Flags = 1, 2, 4
	var f Flags
	f.Set(a|c, true)
	f.Set(c, false)
	f.Set(b, false)
	if !f.Has(a) || f.Has(b) || f.Has(c) || f.Has(a|c) {
		t.Errorf("flags %03b after setting a and c, then clearing c and b; want only a", f)
	}
}
