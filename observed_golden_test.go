package laxgpu

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"laxgpu/examples/scenarios"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from this tree's output")

// observedCell is one cell of the observed-run golden: a committed scenario
// under one scheduler.
type observedCell struct{ scenario, sched string }

// observedCells are the five committed scenarios under LAX, EDF and PREMA.
func observedCells() []observedCell {
	var cells []observedCell
	for _, sc := range []string{"steady", "diurnal", "burst-storm", "heavy-tail", "three-tenant"} {
		for _, sched := range []string{"LAX", "EDF", "PREMA"} {
			cells = append(cells, observedCell{sc, sched})
		}
	}
	return cells
}

// runObservedCell runs the cell through s with Verify, Probe, Metrics and
// Perfetto on and returns the Result and both documents.
func runObservedCell(s *Session, c observedCell) (observedDocs, error) {
	raw, err := scenarios.FS.ReadFile(c.scenario + ".json")
	if err != nil {
		return observedDocs{}, err
	}
	var metrics, perfetto bytes.Buffer
	res, err := s.Run(context.Background(), Options{Scheduler: c.sched, Scenario: bytes.NewReader(raw), Seed: 1,
		Verify: true, Probe: true, Metrics: &metrics, Perfetto: &perfetto})
	return observedDocs{res, metrics.String(), perfetto.String()}, err
}

// TestObservedRunGolden pins the observed run path byte for byte: each of
// the five committed scenarios under LAX, EDF and PREMA, with Verify,
// Probe, Metrics and Perfetto on, has the sha256 of its Result, of its
// metrics exposition and of its Perfetto document in
// testdata/observed_run.golden.sha256. It then runs all 15 cells three
// more times on one Session, in a shuffled order and from two goroutines
// at once, and every run must give the first pass's bytes: whatever a run
// recycles must come back with nothing of the run before it, and must
// never be something a concurrent run still holds.
func TestObservedRunGolden(t *testing.T) {
	cells := observedCells()
	want := make([]observedDocs, len(cells))
	var golden bytes.Buffer
	first := NewSession(SessionOptions{Parallel: 1})
	for i, c := range cells {
		d, err := runObservedCell(first, c)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.scenario, c.sched, err)
		}
		want[i] = d
		fmt.Fprintf(&golden, "%s/%s result %x metrics %d bytes %x perfetto %d bytes %x\n", c.scenario, c.sched,
			sha256.Sum256([]byte(fmt.Sprintf("%+v", d.res))),
			len(d.metrics), sha256.Sum256([]byte(d.metrics)),
			len(d.perfetto), sha256.Sum256([]byte(d.perfetto)))
	}
	compareObservedGolden(t, "observed_run.golden.sha256", golden.Bytes())

	const repeats, goroutines = 3, 2
	order := make([]int, 0, repeats*len(cells))
	for range repeats {
		for i := range cells {
			order = append(order, i)
		}
	}
	rand.New(rand.NewSource(52)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	s := NewSession(SessionOptions{Parallel: goroutines})
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := g; k < len(order); k += goroutines {
				c := cells[order[k]]
				got, err := runObservedCell(s, c)
				if err == nil && got != want[order[k]] {
					err = fmt.Errorf("%s/%s: run %d of the shuffled order differs from the first pass", c.scenario, c.sched, k)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// compareObservedGolden compares got with testdata/name, or rewrites the
// file under -update, naming the first cell that drifted.
func compareObservedGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Errorf("%s drifted; first differing cell:\n got  %s\n want %s", name, gl[i], wl[i])
				return
			}
		}
		t.Errorf("%s drifted: %d cells now, golden has %d", name, len(gl), len(wl))
	}
}
