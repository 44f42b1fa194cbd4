package workload

import (
	"testing"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

func TestRNNSpecValidate(t *testing.T) {
	good := RNNSpec{Cell: LSTMCell, Hidden: 128, SeqLen: 16, BatchSize: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []RNNSpec{
		{Cell: LSTMCell, Hidden: 8, SeqLen: 16, BatchSize: 1},
		{Cell: LSTMCell, Hidden: 128, SeqLen: 0, BatchSize: 1},
		{Cell: LSTMCell, Hidden: 128, SeqLen: 16, BatchSize: 0},
		{Cell: CellType(9), Hidden: 128, SeqLen: 16, BatchSize: 1},
		{Cell: LSTMCell, Hidden: 8192, SeqLen: 16, BatchSize: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestRNNBuilderAnchorMatchesTable1Chain(t *testing.T) {
	l := lib(t)
	b := NewRNNBuilder(l)
	// At the anchor configuration (LSTM, hidden 128, seq 13, batch 1) the
	// builder must produce the Table 1 LSTM layout, written out here, with
	// the Library's own descriptors: three TensorKernel1, five
	// TensorKernel2, two TensorKernel3 and one TensorKernel4, then per step
	// the GEMM and three TensorKernel4/ActivationKernel5 gate pairs.
	const L = 13
	names := []string{
		"TensorKernel1", "TensorKernel1", "TensorKernel1",
		"TensorKernel2", "TensorKernel2", "TensorKernel2", "TensorKernel2", "TensorKernel2",
		"TensorKernel3", "TensorKernel3", "TensorKernel4",
	}
	for i := 0; i < L; i++ {
		names = append(names, "rocBLASGEMMKernel1",
			"TensorKernel4", "ActivationKernel5",
			"TensorKernel4", "ActivationKernel5",
			"TensorKernel4", "ActivationKernel5")
	}
	built := b.Build(RNNSpec{Cell: LSTMCell, Hidden: 128, SeqLen: L, BatchSize: 1})
	if len(built) != len(names) {
		t.Fatalf("chain length %d, want %d", len(built), len(names))
	}
	for i, name := range names {
		want := l.Kernel(name)
		if built[i].Name != name {
			t.Fatalf("kernel %d: %s, want %s", i, built[i].Name, name)
		}
		if built[i].NumWGs != want.NumWGs || built[i].BaseWGTime != want.BaseWGTime {
			t.Fatalf("kernel %d (%s) parameters diverge from anchor", i, name)
		}
	}
}

func TestRNNBuilderHiddenScaling(t *testing.T) {
	l := lib(t)
	b := NewRNNBuilder(l)
	base := b.Build(RNNSpec{Cell: GRUCell, Hidden: 128, SeqLen: 8, BatchSize: 1})
	wide := b.Build(RNNSpec{Cell: GRUCell, Hidden: 256, SeqLen: 8, BatchSize: 1})

	work := func(ks []*gpu.KernelDesc) (wgs int, gemmTime sim.Time) {
		for _, k := range ks {
			wgs += k.NumWGs
			if k.Name == "rocBLASGEMMKernel1" || k.Name == "rocBLASGEMMKernel1@h256_b1" {
				gemmTime += sim.Time(k.NumWGs) * k.BaseWGTime
			}
		}
		return
	}
	bWGs, bGemm := work(base)
	wWGs, wGemm := work(wide)
	if wWGs <= bWGs {
		t.Fatalf("hidden 256 has %d WGs, base %d — must grow", wWGs, bWGs)
	}
	// GEMM total work must grow ~quadratically (4x for 2x hidden).
	ratio := float64(wGemm) / float64(bGemm)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("GEMM work ratio %.2f, want ≈4 (quadratic in hidden size)", ratio)
	}
	// Scaled kernels must have distinct names (separate profiling entries).
	if wide[0].Name == base[0].Name {
		t.Fatal("scaled kernel shares the anchor's name")
	}
}

func TestRNNBuilderBatchScaling(t *testing.T) {
	l := lib(t)
	b := NewRNNBuilder(l)
	b1 := b.Build(RNNSpec{Cell: VanillaCell, Hidden: 128, SeqLen: 4, BatchSize: 1})
	b8 := b.Build(RNNSpec{Cell: VanillaCell, Hidden: 128, SeqLen: 4, BatchSize: 8})
	var w1, w8 int
	for _, k := range b1 {
		w1 += k.NumWGs
	}
	for _, k := range b8 {
		w8 += k.NumWGs
	}
	if w8 != 8*w1 {
		t.Fatalf("batch 8 has %d WGs, want %d (8x batch 1)", w8, 8*w1)
	}
}

func TestRNNBuilderCellComposition(t *testing.T) {
	l := lib(t)
	b := NewRNNBuilder(l)
	const L = 10
	counts := func(cell CellType) int {
		n := 0
		for _, k := range b.Build(RNNSpec{Cell: cell, Hidden: 128, SeqLen: L, BatchSize: 1}) {
			if k.Name == "ActivationKernel5" {
				n++
			}
		}
		return n
	}
	if lstm, gru, van := counts(LSTMCell), counts(GRUCell), counts(VanillaCell); lstm != 3*L || gru != 2*L || van != L {
		t.Fatalf("activation counts lstm=%d gru=%d van=%d, want %d/%d/%d",
			lstm, gru, van, 3*L, 2*L, L)
	}
}

func TestRNNBuilderCaching(t *testing.T) {
	l := lib(t)
	b := NewRNNBuilder(l)
	a := b.Build(RNNSpec{Cell: LSTMCell, Hidden: 256, SeqLen: 4, BatchSize: 1})
	c := b.Build(RNNSpec{Cell: LSTMCell, Hidden: 256, SeqLen: 9, BatchSize: 1})
	// Same scaled configuration → identical descriptor pointers (shared
	// profiling identity).
	if a[0] != c[0] {
		t.Fatal("scaled descriptors not cached/shared")
	}
}

func TestRNNBuilderJobsAreValid(t *testing.T) {
	l := lib(t)
	b := NewRNNBuilder(l)
	cfg := gpu.DefaultConfig()
	for _, spec := range []RNNSpec{
		{Cell: LSTMCell, Hidden: 64, SeqLen: 5, BatchSize: 1},
		{Cell: GRUCell, Hidden: 512, SeqLen: 30, BatchSize: 4},
		{Cell: VanillaCell, Hidden: 1024, SeqLen: 50, BatchSize: 2},
	} {
		j := b.Job(7, spec, sim.Millisecond, 7*sim.Millisecond)
		if err := j.Validate(); err != nil {
			t.Errorf("%+v: %v", spec, err)
		}
		for _, k := range j.Kernels {
			if gpu.MaxConcurrentWGs(cfg, k) < 1 {
				t.Errorf("%+v: kernel %s does not fit the device", spec, k.Name)
			}
		}
		if j.SeqLen != spec.SeqLen {
			t.Errorf("job seqlen %d, want %d", j.SeqLen, spec.SeqLen)
		}
	}
}

func TestRNNBuilderPanicsOnInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid spec did not panic")
		}
	}()
	NewRNNBuilder(lib(t)).Build(RNNSpec{Cell: LSTMCell, Hidden: 1, SeqLen: 1, BatchSize: 1})
}

func TestCellTypeString(t *testing.T) {
	if LSTMCell.String() != "LSTM" || GRUCell.String() != "GRU" ||
		VanillaCell.String() != "Vanilla" || CellType(5).String() != "CellType(5)" {
		t.Fatal("CellType.String wrong")
	}
}

// DeepBenchSpec is a named RNN inference configuration in the style of the
// DeepBench suite the paper's RNN kernels come from [12][13].
type DeepBenchSpec struct {
	Name string
	Spec RNNSpec
}

// DeepBenchConfigs returns representative DeepBench-style inference
// configurations, buildable with an RNNBuilder: the paper's two anchor
// points plus the larger hidden sizes the suite sweeps.
func DeepBenchConfigs() []DeepBenchSpec {
	return []DeepBenchSpec{
		{"lstm-h128-l16", RNNSpec{Cell: LSTMCell, Hidden: 128, SeqLen: 16, BatchSize: 1}},
		{"gru-h128-l16", RNNSpec{Cell: GRUCell, Hidden: 128, SeqLen: 16, BatchSize: 1}},
		{"gru-h256-l16", RNNSpec{Cell: GRUCell, Hidden: 256, SeqLen: 16, BatchSize: 1}},
		{"lstm-h512-l25", RNNSpec{Cell: LSTMCell, Hidden: 512, SeqLen: 25, BatchSize: 1}},
		{"gru-h1024-l25", RNNSpec{Cell: GRUCell, Hidden: 1024, SeqLen: 25, BatchSize: 1}},
		{"lstm-h1536-l50", RNNSpec{Cell: LSTMCell, Hidden: 1536, SeqLen: 50, BatchSize: 1}},
		{"van-h256-l16", RNNSpec{Cell: VanillaCell, Hidden: 256, SeqLen: 16, BatchSize: 1}},
		{"lstm-h128-l16-b4", RNNSpec{Cell: LSTMCell, Hidden: 128, SeqLen: 16, BatchSize: 4}},
	}
}

func TestDeepBenchConfigsBuild(t *testing.T) {
	l := lib(t)
	b := NewRNNBuilder(l)
	cfg := gpu.DefaultConfig()
	names := map[string]bool{}
	for _, dc := range DeepBenchConfigs() {
		if names[dc.Name] {
			t.Fatalf("duplicate config name %q", dc.Name)
		}
		names[dc.Name] = true
		if err := dc.Spec.Validate(); err != nil {
			t.Fatalf("%s: %v", dc.Name, err)
		}
		j := b.Job(0, dc.Spec, 0, 7*sim.Millisecond)
		if err := j.Validate(); err != nil {
			t.Fatalf("%s: %v", dc.Name, err)
		}
		for _, k := range j.Kernels {
			if gpu.MaxConcurrentWGs(cfg, k) < 1 {
				t.Fatalf("%s: kernel %s does not fit the device", dc.Name, k.Name)
			}
		}
	}
	if len(names) < 8 {
		t.Fatalf("only %d configs", len(names))
	}
}
