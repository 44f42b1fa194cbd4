// Package ledger holds the row encoding the fleet's two bounded ledgers
// share: the gateway's journal and laxd's job-record table. A row is
// pointer-free and small, so a page of rows is one object the collector
// never scans. Numbers are kept in uint32 fields where they fit exactly; the
// rare value that does not waits in a side map keyed by row ID, which
// eviction prunes with the row. Booleans share one flags byte.
package ledger

import "math"

// Spilled is what a narrow field holds when its value lives in Wide.
const Spilled = math.MaxUint32

// Wide keeps the values a row's narrow fields cannot hold, by row ID and
// field index (0 to 3). The zero value is ready to use.
type Wide struct {
	m map[int64][4]int64
}

// Put returns what a row's narrow field stores for v: v itself when
// 0 <= v < Spilled, else Spilled, with v kept for Get. A row whose field
// fits again leaves a stale value behind, which nothing reads and Drop
// removes.
func (w *Wide) Put(id int64, field int, v int64) uint32 {
	if v >= 0 && v < Spilled {
		return uint32(v)
	}
	if w.m == nil {
		w.m = map[int64][4]int64{}
	}
	vs := w.m[id]
	vs[field] = v
	w.m[id] = vs
	return Spilled
}

// Get returns the value the narrow field u of row id stands for.
func (w *Wide) Get(id int64, field int, u uint32) int64 {
	if u != Spilled {
		return int64(u)
	}
	return w.m[id][field]
}

// Drop forgets row id's wide values: call it when the row is evicted.
func (w *Wide) Drop(id int64) { delete(w.m, id) }

// Len reports the rows holding a wide value.
func (w *Wide) Len() int { return len(w.m) }

// Flags packs a row's booleans into one byte.
type Flags uint8

// Has reports whether every flag in b is set.
func (f Flags) Has(b Flags) bool { return f&b == b }

// Set sets the flags in b when on, and clears them otherwise.
func (f *Flags) Set(b Flags, on bool) {
	if on {
		*f |= b
	} else {
		*f &^= b
	}
}
