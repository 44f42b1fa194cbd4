package scenario

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strings"

	"laxgpu/examples/scenarios"
)

// Builtin parses the named scenario of the committed library,
// examples/scenarios/<name>.json, which ships inside the binary. The
// returned Spec is a fresh copy the caller may mutate.
func Builtin(name string) (*Spec, error) {
	src, err := scenarios.FS.ReadFile(name + ".json")
	if err != nil {
		return nil, fmt.Errorf("scenario: no builtin %q (have %s)", name, strings.Join(BuiltinNames(), ", "))
	}
	return Parse(bytes.NewReader(src))
}

// Load resolves a scenario reference the way every flag and option that
// names one does: a builtin name first, then a path to a scenario JSON file.
func Load(ref string) (*Spec, error) {
	if _, err := fs.Stat(scenarios.FS, ref+".json"); err == nil {
		return Builtin(ref)
	}
	f, err := os.Open(ref)
	if err != nil {
		return nil, fmt.Errorf("scenario %q is neither a builtin (%s) nor a readable file: %w",
			ref, strings.Join(BuiltinNames(), ", "), err)
	}
	defer f.Close()
	spec, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ref, err)
	}
	return spec, nil
}

// BuiltinNames lists the embedded scenarios, sorted.
func BuiltinNames() []string {
	names, _ := fs.Glob(scenarios.FS, "*.json")
	for i, n := range names {
		names[i] = strings.TrimSuffix(n, ".json")
	}
	sort.Strings(names)
	return names
}
