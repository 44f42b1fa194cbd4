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
// binds, with the offending value named on stderr.
func TestRunFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"unknown-routing", []string{"-routing", "sideways"}, 1, "sideways"},
		{"unknown-scheduler", []string{"-scheduler", "NOPE"}, 1, "NOPE"},
		{"more-faults-than-gpus", []string{"-gpus", "1", "-faults", "abort=0.1;abort=0.2"}, 1, "2 fault specs for 1 devices"},
		{"bad-fault-spec", []string{"-gpus", "2", "-faults", ";explode=1"}, 1, "device 1"},
		{"unknown-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"help", []string{"-help"}, 0, "-max-per-client"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if code := run(append([]string{"-addr", "127.0.0.1:0"}, tc.args...), &stderr); code != tc.code {
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

// TestRunServesAndDrains drives the whole command in-process: the daemon
// starts, serves one job to its terminal state, and a SIGTERM drains it to
// exit code 0.
func TestRunServesAndDrains(t *testing.T) {
	pr, pw := io.Pipe()
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-addr", "127.0.0.1:0", "-gpus", "2", "-speed", "1000", "-drain", "2s"}, pw)
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
		t.Fatalf("laxd exited (code %d) before printing /%s/; stderr:\n%s", <-code, pattern, strings.Join(log, "\n"))
		return nil
	}
	addr := next(`serving on (\S+) \(LAX, 2 device\(s\)`)[1]

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

	// run registered its signal handler before it started serving, so the
	// signal reaches it and not the test binary's default action.
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
}
