package gateway

import (
	"io/fs"
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

// TestFleetIsAssembledOnce scans the module's non-test sources outside the
// separately-versioned bench module and the examples: nodes → chaos →
// gateway is written in NewFleet and policy → controller in
// autoscale.ForPolicy, so each constructor has at most one call site, the
// scaling policies are matched by name in one file, and laxgw stays a flag
// shell. A second call site is a fleet the recipe's tests do not cover.
func TestFleetIsAssembledOnce(t *testing.T) {
	root := filepath.Join("..", "..")
	// Each pattern matches a call, package-qualified or bare, but not the
	// constructor's own declaration or a longer name ending in it.
	calls := map[string]*regexp.Regexp{
		"NewInprocBackend(": regexp.MustCompile(`(^|[^\w.]|\bgateway\.)NewInprocBackend\(`),
		"NewChaosBackend(":  regexp.MustCompile(`(^|[^\w.]|\bgateway\.)NewChaosBackend\(`),
		"gateway.New(":      regexp.MustCompile(`\bgateway\.New\(`),
		"autoscale.New(":    regexp.MustCompile(`\bautoscale\.New\(`),
	}
	bareNew := regexp.MustCompile(`(^|[^\w.])New\(`)
	decl := regexp.MustCompile(`(?m)^func \w+\(`)
	lineComment := regexp.MustCompile(`(?m)//.*$`)
	policyMatch := regexp.MustCompile(`case "(static-min|reactive|predictive)"`)
	sites := map[string][]string{}
	var policyFiles []string

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "bench" || rel == "examples" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		src := decl.ReplaceAllString(lineComment.ReplaceAllString(string(raw), ""), "")
		for name, re := range calls {
			for range re.FindAllString(src, -1) {
				sites[name] = append(sites[name], rel)
			}
		}
		// Inside the owning package the call is a bare New(.
		for dir, name := range map[string]string{"internal/gateway/": "gateway.New(", "internal/autoscale/": "autoscale.New("} {
			if strings.HasPrefix(rel, dir) {
				for range bareNew.FindAllString(src, -1) {
					sites[name] = append(sites[name], rel)
				}
			}
		}
		if policyMatch.MatchString(src) {
			policyFiles = append(policyFiles, rel)
		}
		if rel == "cmd/laxgw/main.go" {
			if n := strings.Count(string(raw), "\n"); n > 200 {
				t.Errorf("%s is %d lines; it is a flag shell over gateway.NewFleet and autoscale.ForPolicy (≤ 200)", rel, n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range calls {
		if len(sites[name]) != 1 {
			t.Errorf("%s has %d non-test call sites %v, want exactly 1 (NewFleet / ForPolicy)", name, len(sites[name]), sites[name])
		}
	}
	if len(policyFiles) != 1 {
		t.Errorf("scaling policies are matched by name in %v, want one file (autoscale.ForPolicy)", policyFiles)
	}
}
