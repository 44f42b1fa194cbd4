package gpu

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestDeviceKeepsOneModel keeps the device at one placement rule (first-fit
// in CU index order) and one memory-contention pool: the placement policies
// and the two-level L2 model that no caller selected stay deleted from every
// non-test Go file, and Config holds only what callers vary — the Table 2
// per-CU parameters are constants.
func TestDeviceKeepsOneModel(t *testing.T) {
	gone := regexp.MustCompile(`\b(PlacementPolicy|BestFit|FirstFit|rrCursor|L2BandwidthDemand|L2HitFrac|activeL2Demand)\b`)
	root := filepath.Join("..", "..")
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
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range gone.FindAllString(string(raw), -1) {
			t.Errorf("%s mentions %s; the device keeps first-fit placement and one bandwidth pool", path, m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var fields []string
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	if want := []string{"NumCUs", "MemBandwidthDemand"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("gpu.Config fields = %v, want exactly %v (the rest of Table 2 is constants)", fields, want)
	}
}
