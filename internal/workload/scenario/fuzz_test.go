package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/workload"
)

// FuzzParseScenario fuzzes the scenario document reader with the committed
// examples (and testdata/fuzz corpus) as seeds. Invariants under arbitrary
// input: Parse never panics; an accepted document re-serializes canonically
// (Write∘Parse∘Write is a fixed point); and small accepted scenarios expand
// deterministically (two Generate calls agree byte for byte) to the
// sort-based reference's trace.
func FuzzParseScenario(f *testing.F) {
	files, _ := filepath.Glob("../../../examples/scenarios/*.json")
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	f.Add(`{"format":"laxgpu-scenario","version":1}`)
	f.Add(`{"format":"laxgpu-scenario","version":1,"name":"x","duration_us":500,` +
		`"cohorts":[{"name":"a","benchmark":"STEM","arrival":"pareto:alpha=1.5",` +
		`"work":"lognormal:sigma=1","phases":[{"duration_us":500,"rate":4000}],` +
		`"bursts":[{"at_us":0,"duration_us":100,"factor":2,"every_us":250}]}]}`)

	lib := workload.NewLibrary(cp.DefaultSystemConfig().GPU)
	f.Fuzz(func(t *testing.T, doc string) {
		spec, err := Parse(strings.NewReader(doc))
		if err != nil {
			return
		}
		var one bytes.Buffer
		if err := spec.Write(&one); err != nil {
			t.Fatalf("accepted spec failed to serialize: %v", err)
		}
		back, err := Parse(bytes.NewReader(one.Bytes()))
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, one.String())
		}
		var two bytes.Buffer
		if err := back.Write(&two); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one.Bytes(), two.Bytes()) {
			t.Fatalf("canonicalization not a fixed point:\n%s\nvs\n%s", one.String(), two.String())
		}
		// Only expand scenarios that are cheap by construction: a short
		// horizon and a bounded expected job count keep the fuzzer fast.
		if spec.DurationUs > 2000 {
			return
		}
		var expected float64
		for _, c := range spec.Cohorts {
			for _, p := range c.Phases {
				expected += p.Rate * float64(p.DurationUs) / 1e6
			}
		}
		if expected > 5000 {
			return
		}
		a, errA := spec.Generate(lib, 0)
		b, errB := spec.Generate(lib, 0)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("Generate not deterministic about errors: %v vs %v", errA, errB)
		}
		if errA == nil && Fingerprint(a) != Fingerprint(b) {
			t.Fatal("Generate not deterministic")
		}
		ref, errR := refGenerate(spec, lib, 0)
		if (errA == nil) != (errR == nil) {
			t.Fatalf("Generate error %v, reference error %v", errA, errR)
		}
		if errA == nil {
			sameExpansion(t, "fuzz", a, ref)
		}
	})
}
