package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
)

// TestRunFlagValidation: every bad command line fails before the listener
// binds, with the offending flag named on stderr.
func TestRunFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"autoscale-with-nodes", []string{"-autoscale", "reactive", "-nodes", "http://127.0.0.1:1"}, 1, "does not combine with -nodes"},
		{"unknown-policy", []string{"-autoscale", "sideways"}, 1, `unknown policy "sideways"`},
		{"more-chaos-than-nodes", []string{"-gpus", "2", "-chaos", "crash@1s;;crash@2s"}, 1, "3 chaos specs for 2 nodes"},
		{"bad-chaos-spec", []string{"-chaos", "explode=now"}, 1, "node 0 chaos"},
		{"unreadable-forecast", []string{"-autoscale", "predictive", "-scale-forecast", "no-such-scenario.json"}, 1, "-scale-forecast"},
		{"unknown-scheduler", []string{"-scheduler", "NOPE"}, 1, "NOPE"},
		{"unknown-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"help", []string{"-help"}, 0, "-scale-forecast"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if code := run(tc.args, &stderr); code != tc.code {
				t.Errorf("exit code %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, stderr.String())
			}
			if strings.Contains(stderr.String(), "serving on") {
				t.Errorf("a rejected command line still started serving:\n%s", stderr.String())
			}
		})
	}
}

// TestRunServesAndDrains drives the whole command in-process: an elastic
// in-process fleet starts, serves one job to its terminal state over HTTP,
// and a SIGTERM drains it to exit code 0.
func TestRunServesAndDrains(t *testing.T) {
	pr, pw := io.Pipe()
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-addr", "127.0.0.1:0", "-gpus", "2", "-speed", "1000",
			"-autoscale", "predictive", "-scale-forecast", "diurnal", "-max-nodes", "3", "-drain", "2s"}, pw)
		pw.Close()
	}()
	lines := bufio.NewScanner(pr)
	var log []string
	next := func(pattern string) []string {
		t.Helper()
		re := regexp.MustCompile(pattern)
		for lines.Scan() {
			log = append(log, lines.Text())
			if m := re.FindStringSubmatch(lines.Text()); m != nil {
				return m
			}
		}
		t.Fatalf("laxgw exited (code %d) before printing /%s/; stderr:\n%s", <-code, pattern, strings.Join(log, "\n"))
		return nil
	}
	addr := next(`serving on (\S+) \(2 in-process node\(s\)`)[1]
	next(`autoscale predictive \(1\.\.3 nodes`)

	resp, err := http.Post("http://"+addr+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(`{"benchmark":"LSTM","deadline_us":60000000}`))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || st.State != "done" {
		t.Fatalf("submit: status %d, state %q, err %v", resp.StatusCode, st.State, err)
	}

	// run registered its signal handler before announcing the address, so
	// the signal reaches it and not the test binary's default action.
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	next(`drained, bye`)
	if c := <-code; c != 0 {
		t.Fatalf("exit code %d after a clean drain; stderr:\n%s", c, strings.Join(log, "\n"))
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("listener still accepting after the drain")
	}
}
