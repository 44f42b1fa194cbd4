package gateway

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"unsafe"
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
		{"the terminal transition (journal.close wakes the waiters)", `close\(\w+\.waiters\[`},
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

// TestJournalRowIsPointerFree keeps a journal row something the collector
// never marks: no field of entry, however nested, may hold a pointer, and a
// row is 48 bytes, so a page of 1 024 rows is one 48 KiB no-scan object.
func TestJournalRowIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("journal row field %s is a %s; a row must hold no pointers", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("entry", reflect.TypeOf(entry{}))
	if size := unsafe.Sizeof(entry{}); size != 48 {
		t.Errorf("journal row is %d bytes, want 48", size)
	}
}

// moduleSources reads the module's non-test Go files outside the
// separately-versioned bench module and the examples, keyed by slash path
// from the module root. Line comments are stripped, and so is each top-level
// "func Name(", so a constructor's declaration never reads as a call to it.
func moduleSources(t *testing.T) map[string]string {
	t.Helper()
	root := filepath.Join("..", "..")
	decl := regexp.MustCompile(`(?m)^func \w+\(`)
	lineComment := regexp.MustCompile(`(?m)//.*$`)
	out := map[string]string{}
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
		out[rel] = decl.ReplaceAllString(lineComment.ReplaceAllString(string(raw), ""), "")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFleetIsAssembledOnce scans the module's non-test sources outside the
// separately-versioned bench module and the examples: nodes → chaos →
// gateway is written in NewFleet and policy → controller in
// autoscale.ForPolicy, so each constructor has at most one call site, the
// scaling policies are matched by name in one file, and laxgw stays a flag
// shell. A second call site is a fleet the recipe's tests do not cover.
func TestFleetIsAssembledOnce(t *testing.T) {
	// Each pattern matches a call, package-qualified or bare, but not the
	// constructor's own declaration or a longer name ending in it.
	calls := map[string]*regexp.Regexp{
		"NewInprocBackend(": regexp.MustCompile(`(^|[^\w.]|\bgateway\.)NewInprocBackend\(`),
		"NewChaosBackend(":  regexp.MustCompile(`(^|[^\w.]|\bgateway\.)NewChaosBackend\(`),
		"gateway.New(":      regexp.MustCompile(`\bgateway\.New\(`),
		"autoscale.New(":    regexp.MustCompile(`\bautoscale\.New\(`),
	}
	bareNew := regexp.MustCompile(`(^|[^\w.])New\(`)
	policyMatch := regexp.MustCompile(`case "(static-min|reactive|predictive)"`)
	sites := map[string][]string{}
	var policyFiles []string

	for rel, src := range moduleSources(t) {
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
			if n := strings.Count(src, "\n"); n > 200 {
				t.Errorf("%s is %d lines; it is a flag shell over gateway.NewFleet and autoscale.ForPolicy (≤ 200)", rel, n)
			}
		}
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

// TestLaxdIsOneDevice keeps one online routing tier: internal/serve serves a
// single device (it imports no router and builds one Host), and a
// cluster.Router is built only by the gateway.
func TestLaxdIsOneDevice(t *testing.T) {
	for name, src := range sources(t, filepath.Join("..", "serve")) {
		if strings.Contains(src, `"laxgpu/internal/cluster"`) {
			t.Errorf("internal/serve/%s imports internal/cluster; multi-device routing is laxgw's", name)
		}
	}
	newHost := regexp.MustCompile(`(^|[^\w.])NewHost\(`)
	newRouter := regexp.MustCompile(`\bcluster\.NewRouter\(`)
	bareNewRouter := regexp.MustCompile(`(^|[^\w.])NewRouter\(`)
	var hosts, routers []string
	for rel, src := range moduleSources(t) {
		if strings.HasPrefix(rel, "internal/serve/") {
			for range newHost.FindAllString(src, -1) {
				hosts = append(hosts, rel)
			}
		}
		n := len(newRouter.FindAllString(src, -1))
		if strings.HasPrefix(rel, "internal/cluster/") {
			n += len(bareNewRouter.FindAllString(src, -1))
		}
		for ; n > 0; n-- {
			routers = append(routers, rel)
		}
	}
	if len(hosts) != 1 {
		t.Errorf("NewHost( has %d non-test call sites in internal/serve %v, want exactly 1 (serve.New)", len(hosts), hosts)
	}
	sort.Strings(routers)
	if want := []string{"internal/gateway/gateway.go"}; !reflect.DeepEqual(routers, want) {
		t.Errorf("cluster.NewRouter( is called from %v, want exactly %v (gateway.New)", routers, want)
	}
}

// TestRouterKeepsOneModelPerFleet keeps one fleet model: the gateway, routing
// on probed headroom. The offline least-loaded splitter, its harness runner
// and the routing models and health replay nobody selects stay deleted.
func TestRouterKeepsOneModelPerFleet(t *testing.T) {
	gone := regexp.MustCompile(`\b(RouteLeastLoaded|RouteRoundRobin|RouteJobHash|HealthSchedule|ParseSpecs|RunFleet)\b|\bcluster\.Split\b`)
	headroom := regexp.MustCompile(`\bcluster\.NewRouter\(cluster\.RouteHeadroom\b`)
	var headroomSites []string
	for rel, src := range moduleSources(t) {
		for _, m := range gone.FindAllString(src, -1) {
			t.Errorf("%s mentions %s; the gateway is the one fleet model", rel, m)
		}
		for range headroom.FindAllString(src, -1) {
			headroomSites = append(headroomSites, rel)
		}
	}
	if want := []string{"internal/gateway/gateway.go"}; !reflect.DeepEqual(headroomSites, want) {
		t.Errorf("a headroom Router is built in %v, want exactly %v (gateway.New)", headroomSites, want)
	}
}
