package sched

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAssembleIsTheOnlyAssembler scans the module's non-test sources: outside
// internal/cp (which defines it), the examples (which show the raw API) and
// the separately-versioned bench module, only assemble.go may build a system
// or a fault plan by hand. A new call site means a run path that the
// checker, the fault wiring and the online/batch equivalence do not cover.
func TestAssembleIsTheOnlyAssembler(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "internal/cp" || rel == "examples" || rel == "bench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || rel == "internal/sched/assemble.go" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, call := range []string{"cp.NewSystem(", "faults.NewPlan("} {
			if strings.Contains(string(src), call) {
				t.Errorf("%s calls %s; go through sched.Assemble (or harness.Sim)", rel, call)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
