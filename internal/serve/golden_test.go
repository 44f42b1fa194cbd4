package serve

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

// update rewrites the golden from this tree's output. It was generated at the
// commit before Host existed, so a diff means the exposition moved.
var update = flag.Bool("update", false, "rewrite testdata goldens from this tree's output")

// TestGoldenMetricsFamilies pins laxd's /metrics surface: every family's name,
// help string and type, and every series' label set. The daemon only runs on a
// wall clock, so sample values are masked.
func TestGoldenMetricsFamilies(t *testing.T) {
	_, hs := startServer(t, Options{Speed: 50})
	if r, _ := postJob(t, hs.URL+"/v1/jobs?wait=1", `{"benchmark":"STEM","deadline_us":1000000}`); r.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", r.StatusCode)
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(body), "\n")
	for i, l := range lines {
		if l != "" && !strings.HasPrefix(l, "#") {
			lines[i] = l[:strings.LastIndexByte(l, ' ')] + "\n"
		}
	}
	got := []byte(strings.Join(lines, ""))

	const path = "testdata/metrics_families.golden.txt"
	if *update {
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
		t.Errorf("/metrics families drifted from the golden;\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
