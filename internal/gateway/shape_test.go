package gateway

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// sources reads the non-test Go files of dir, line comments stripped, keyed
// by file name.
func sources(t *testing.T, dir string) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	lineComment := regexp.MustCompile(`(?m)//.*$`)
	out := map[string]string{}
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = lineComment.ReplaceAllString(string(src), "")
	}
	return out
}

// TestEachFleetDecisionIsWrittenOnce is the source-scan guard for the
// package's shape: the decisions the fleet tier once made in two places each
// have one call site, journal and node table stay ignorant of each other, and
// no file grows back into the 1.4k-line gateway.go.
func TestEachFleetDecisionIsWrittenOnce(t *testing.T) {
	gw := sources(t, ".")
	all := ""
	for name, src := range gw {
		all += src
		if n := strings.Count(src, "\n"); n > 600 {
			t.Errorf("%s is %d lines; split it along an owner seam (journal, node table, dispatch, HTTP)", name, n)
		}
	}
	for _, once := range []struct{ what, pattern string }{
		{"the route pick (place)", `router\.Pick\(`},
		{"the breaker failure (nodeTable.fail)", `breaker\.Failure\(`},
		{"the terminal transition (journal.close)", `close\(\w+\.done\)`},
	} {
		if n := len(regexp.MustCompile(once.pattern).FindAllString(all, -1)); n != 1 {
			t.Errorf("%s: /%s/ appears %d times in non-test internal/gateway, want exactly 1", once.what, once.pattern, n)
		}
	}

	for _, word := range []string{"node", "nodeTable", "Backend", "Breaker", "cluster"} {
		if regexp.MustCompile(`\b` + word + `\b`).MatchString(gw["journal.go"]) {
			t.Errorf("journal.go mentions %s; the journal knows the fleet only by routing index", word)
		}
	}
	for _, word := range []string{"entry", "journal"} {
		if regexp.MustCompile(`\b` + word + `\b`).MatchString(gw["nodes.go"]) {
			t.Errorf("nodes.go mentions %s; the node table knows nothing about journaled jobs", word)
		}
	}

	// One type turns a node's terminal job events into completion callbacks:
	// one set of obs.Probe no-op methods across both packages.
	for _, src := range sources(t, filepath.Join("..", "serve")) {
		all += src
	}
	noop := regexp.MustCompile(`\) TableRefresh\(obs\.TableRefresh\)\s+\{\}`)
	if n := len(noop.FindAllString(all, -1)); n != 1 {
		t.Errorf("%d no-op obs.Probe implementations across internal/serve + internal/gateway, want only serve.Host's", n)
	}
}
