package scenario

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// builtinJSON holds byte-for-byte copies of the committed scenario library
// entries that ship inside the binary, so `laxsim -experiment autoscale` and
// the autoscaler's forecast tests work from any working directory. A test
// pins each copy against examples/scenarios/<name>.json — edit the file and
// the copy together.
var builtinJSON = map[string]string{
	"diurnal": `{
  "format": "laxgpu-scenario",
  "version": 1,
  "name": "diurnal",
  "seed": 1,
  "duration_us": 120000,
  "cohorts": [
    {
      "name": "daily",
      "benchmark": "STEM",
      "phases": [
        {
          "duration_us": 20000,
          "rate": 1000
        },
        {
          "duration_us": 20000,
          "rate": 8000
        },
        {
          "duration_us": 20000,
          "rate": 2000
        }
      ]
    }
  ]
}
`,
	"burst-storm": `{
  "format": "laxgpu-scenario",
  "version": 1,
  "name": "burst-storm",
  "seed": 1,
  "duration_us": 100000,
  "cohorts": [
    {
      "name": "storms",
      "benchmark": "CUCKOO",
      "phases": [
        {
          "duration_us": 100000,
          "rate": 2000
        }
      ],
      "bursts": [
        {
          "at_us": 10000,
          "duration_us": 5000,
          "factor": 6,
          "every_us": 25000
        }
      ]
    }
  ]
}
`,
	"three-tenant": `{
  "format": "laxgpu-scenario",
  "version": 1,
  "name": "three-tenant",
  "seed": 1,
  "duration_us": 60000,
  "cohorts": [
    {
      "name": "interactive",
      "benchmark": "STEM",
      "criticality": "critical",
      "deadline_us": 200,
      "phases": [
        {
          "duration_us": 60000,
          "rate": 6000
        }
      ]
    },
    {
      "name": "analytics",
      "benchmark": "GMM",
      "criticality": "standard",
      "phases": [
        {
          "duration_us": 30000,
          "rate": 1000
        },
        {
          "duration_us": 30000,
          "rate": 3000
        }
      ]
    },
    {
      "name": "batch",
      "benchmark": "CUCKOO",
      "criticality": "best-effort",
      "deadline_us": 5000,
      "arrival": "lognormal:sigma=1.2",
      "phases": [
        {
          "duration_us": 60000,
          "rate": 1500
        }
      ]
    }
  ]
}
`,
}

// Builtin parses the named embedded scenario. The returned Spec is a fresh
// copy the caller may mutate.
func Builtin(name string) (*Spec, error) {
	src, ok := builtinJSON[name]
	if !ok {
		return nil, fmt.Errorf("scenario: no builtin %q (have %s)", name, strings.Join(BuiltinNames(), ", "))
	}
	return Parse(strings.NewReader(src))
}

// Load resolves a scenario reference the way every flag and option that
// names one does: a builtin name first, then a path to a scenario JSON file.
func Load(ref string) (*Spec, error) {
	if _, ok := builtinJSON[ref]; ok {
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
	names := make([]string, 0, len(builtinJSON))
	for n := range builtinJSON {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
