package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// A golden is a workload's exact outcome at one seed, as a flat map of
// fingerprint lines. Simulated outcomes never change under a speed-up, so a
// mismatch is a correctness failure, not noise. The goldens hold seed 1;
// other seeds skip them and keep every self-consistency check.

func goldenFile(workload string, seed int64) string {
	return fmt.Sprintf("%s.seed%d.json", workload, seed)
}

// secondsKey is the fingerprint line of a workload whose size follows
// -seconds: its golden applies only at the size it was taken at.
const secondsKey = "_seconds"

// loadGolden returns the committed seed-1 fingerprint of a workload, or nil
// when there is none or it was taken at another size.
func loadGolden(workload string, seconds float64) map[string]string {
	raw, err := files.ReadFile("golden/" + goldenFile(workload, 1))
	if err != nil {
		return nil
	}
	var g map[string]string
	if err := json.Unmarshal(raw, &g); err != nil || len(g) == 0 {
		return nil
	}
	if s, sized := g[secondsKey]; sized && s != formatSeconds(seconds) {
		return nil
	}
	return g
}

func formatSeconds(s float64) string { return strconv.FormatFloat(s, 'g', -1, 64) }

// compareGolden counts one operation per fingerprint line and fails each
// that differs from the golden, is missing from it, or is missing from the
// run.
func compareGolden(t *tally, golden map[string]string) {
	keys := make(map[string]bool, len(golden))
	for k := range golden {
		keys[k] = true
	}
	for k := range t.fingerprint {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		got, want := t.fingerprint[k], golden[k]
		t.op(got == want, "golden mismatch at %s: got %q, want %q", k, got, want)
	}
}
