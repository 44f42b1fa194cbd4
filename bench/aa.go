package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA measures the same tree twice: two sets of n runs per workload, each
// run a fresh process with its own seed (1..n), as the driver does. Per
// end-to-end metric × workload it prints both medians, the range, the spread
// (interquartile distance over the median) against the bound, and fails when
// a spread exceeds its bound or the second median is worse than the first by
// more than the bound. setup_s is held to the drift rule only.
func runAA(dir string, workloads []string, n int, seconds float64) error {
	raw, err := os.ReadFile(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// sets[set][workload][metric] = one value per run
	var sets [2]map[string]map[string][]float64
	for set := range sets {
		sets[set] = map[string]map[string][]float64{}
		for _, w := range workloads {
			sets[set][w] = map[string][]float64{}
			for seed := 1; seed <= n; seed++ {
				fmt.Fprintf(os.Stderr, "aa: set %d, %s, seed %d\n", set+1, w, seed)
				values, err := runChild(self, w, seed, seconds)
				if err != nil {
					return fmt.Errorf("set %d, %s, seed %d: %w", set+1, w, seed, err)
				}
				for name, v := range values {
					sets[set][w][name] = append(sets[set][w][name], v)
				}
			}
		}
	}

	// Every value of every run, for whoever wants to look behind a median.
	if err := writeJSON(filepath.Join(dir, "out", "aa.json"), sets); err != nil {
		return err
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tmin\tmax\tspread A\tspread B\tdrift\tbound\t")
	failed := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := sets[0][w][m.Name], sets[1][w][m.Name]
			medA, medB := samples(a).median(), samples(b).median()
			all := samples(append(append([]float64(nil), a...), b...)).sorted()
			spreadA, spreadB := iqrShare(a), iqrShare(b)
			drift := (medB - medA) / medA // positive = worse
			if m.Better == "higher" {
				drift = -drift
			}
			verdict := ""
			if m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound) {
				verdict = "SPREAD"
			}
			if drift > m.Bound {
				verdict = "DRIFT"
			}
			if verdict != "" {
				failed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.2f%%\t%.2f%%\t%+.2f%%\t%.0f%%\t%s\n",
				w, m.Name, medA, medB, all[0], all[len(all)-1], 100*spreadA, 100*spreadB, 100*drift, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	if failed > 0 {
		return fmt.Errorf("%d metric × workload pairs outside their bound", failed)
	}
	return nil
}

// runChild runs one untraced measurement in a fresh process and returns its
// metric values.
func runChild(self, workload string, seed int, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, stderr.String())
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("bad result line %q: %w", last, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported correct=false\n%s", stderr.String())
	}
	values := map[string]float64{}
	for name, m := range res.Metrics {
		values[name] = m.Value
	}
	return values, nil
}
