package sched

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// skeletonFile holds the policy skeleton every scheduler embeds.
const skeletonFile = "base.go"

// TestSchedKeepsOneSkeleton keeps internal/sched at one policy skeleton and
// the serial isolated-time sum at one home (gpu.SerialTime). In non-test
// Go: the four static policies stay one type and LAX keeps no Figure 10
// side channel; no package re-derives the serial time; and only the
// skeleton declares Interval or Overheads.
func TestSchedKeepsOneSkeleton(t *testing.T) {
	goneTypes := map[string]bool{"EDF": true, "SJF": true, "LJF": true, "FCFS": true, "TracePoint": true}
	goneFuncs := map[string]bool{"staticJobTime": true, "staticRemainingTime": true, "EnableTrace": true}
	goneMethods := map[string]string{"IsolatedKernelTime": "Device", "SerialTime": "Job"}

	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		inSched := filepath.Dir(path) == filepath.Join(root, "internal", "sched")
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && goneTypes[ts.Name.Name] {
						t.Errorf("%s declares type %s", path, ts.Name.Name)
					}
				}
			case *ast.FuncDecl:
				name := decl.Name.Name
				if goneFuncs[name] {
					t.Errorf("%s declares %s", path, name)
				}
				if decl.Recv == nil {
					continue
				}
				if recv := receiverType(decl.Recv.List[0].Type); goneMethods[name] == recv {
					t.Errorf("%s declares %s.%s; gpu.%s is its one home", path, recv, name, name)
				}
				if inSched && (name == "Interval" || name == "Overheads") && filepath.Base(path) != skeletonFile {
					t.Errorf("%s declares %s; the policy skeleton in %s holds it", path, name, skeletonFile)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// receiverType names a method's receiver type, pointer or not, generic or
// not.
func receiverType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch g := e.(type) {
	case *ast.IndexExpr:
		e = g.X
	case *ast.IndexListExpr:
		e = g.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
