package obs_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"laxgpu/internal/harness"
	"laxgpu/internal/obs"
	"laxgpu/internal/workload"
)

// TestJSONLMatchesTracerGoldens pins the wire format: the goldens are the
// JSONL the retired cp.Tracer wrote for these cells (`laxsim -run CELL -jobs
// N -trace`, captured at the last commit that had it), and the probe must
// reproduce them byte for byte — same events, same order, same encoding.
func TestJSONLMatchesTracerGoldens(t *testing.T) {
	for _, tc := range []struct {
		sched, bench string
		jobs         int
		golden       string
	}{
		{"RR", "STEM", 16, "rr_stem_high_16.jsonl"},
		{"LAX", "LSTM", 24, "lax_lstm_high_24.jsonl"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		r := harness.NewRunner()
		r.JobCount = tc.jobs
		var got bytes.Buffer
		tr := obs.NewJSONL(&got)
		if _, _, err := r.RunSystem(context.Background(), tc.sched, tc.bench, workload.HighRate, tr); err != nil {
			t.Fatal(err)
		}
		if tr.Err() != nil || tr.Dropped() != 0 {
			t.Fatalf("%s: err %v, dropped %d", tc.golden, tr.Err(), tr.Dropped())
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: trace differs from the golden (%d events, %d bytes; want %d bytes)",
				tc.golden, tr.Events(), got.Len(), len(want))
		}
	}
}
