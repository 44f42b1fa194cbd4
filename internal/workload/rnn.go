package workload

import (
	"fmt"
	"math"
	"sync"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

// CellType selects the recurrent cell of a parameterized RNN model.
type CellType int

const (
	// LSTMCell has four gates (three gate-elementwise+activation pairs per
	// step beyond the GEMM in our kernel decomposition).
	LSTMCell CellType = iota
	// GRUCell has three gates (two pairs per step).
	GRUCell
	// VanillaCell has one gate (one pair per step).
	VanillaCell
)

func (c CellType) String() string {
	switch c {
	case LSTMCell:
		return "LSTM"
	case GRUCell:
		return "GRU"
	case VanillaCell:
		return "Vanilla"
	default:
		return fmt.Sprintf("CellType(%d)", int(c))
	}
}

// gatePairs returns the per-timestep count of elementwise+activation kernel
// pairs following the GEMM.
func (c CellType) gatePairs() int {
	switch c {
	case LSTMCell:
		return 3
	case GRUCell:
		return 2
	default:
		return 1
	}
}

// RNNSpec describes an RNN inference configuration beyond the paper's fixed
// benchmarks: any hidden size and sequence length, DeepBench-style. The
// Table 1 kernels are the hidden-128 LSTM anchor; other configurations are
// derived by the scaling laws below.
type RNNSpec struct {
	// Cell selects the recurrent cell type.
	Cell CellType

	// Hidden is the hidden-layer width (the paper evaluates 128 and 256).
	Hidden int

	// SeqLen is the number of recurrent steps (kernels scale linearly).
	SeqLen int

	// BatchSize multiplies every kernel's workgroup count (batch 1 is the
	// paper's latency-sensitive setting).
	BatchSize int
}

// Validate reports the first invalid field, or nil.
func (s RNNSpec) Validate() error {
	switch {
	case s.Hidden < 16 || s.Hidden > 4096:
		return fmt.Errorf("workload: RNN hidden size %d outside [16, 4096]", s.Hidden)
	case s.SeqLen < 1 || s.SeqLen > 512:
		return fmt.Errorf("workload: RNN sequence length %d outside [1, 512]", s.SeqLen)
	case s.BatchSize < 1 || s.BatchSize > 1024:
		return fmt.Errorf("workload: RNN batch size %d outside [1, 1024]", s.BatchSize)
	case s.Cell != LSTMCell && s.Cell != GRUCell && s.Cell != VanillaCell:
		return fmt.Errorf("workload: unknown RNN cell %d", int(s.Cell))
	}
	return nil
}

// anchorHidden is the hidden size the Table 1 kernels were measured at.
const anchorHidden = 128

// scaledKernelCache avoids re-deriving descriptors for repeated specs.
type scaledKernel struct {
	hidden int
	batch  int
	base   string
}

// RNNBuilder derives kernel chains for arbitrary RNNSpecs from a calibrated
// library, caching scaled descriptors so repeated job construction is cheap
// and all jobs of one configuration share kernel types (and hence profiled
// completion rates — weight sharing across same-size jobs, §5.2).
type RNNBuilder struct {
	lib   *Library
	cache map[scaledKernel]*gpu.KernelDesc
}

// NewRNNBuilder returns a builder over the library's anchor kernels.
func NewRNNBuilder(lib *Library) *RNNBuilder {
	return &RNNBuilder{lib: lib, cache: make(map[scaledKernel]*gpu.KernelDesc)}
}

// scale derives a descriptor for the base kernel at the given hidden size
// and batch. Scaling laws:
//
//   - GEMM work grows quadratically with hidden size (weight matrix is
//     hidden×hidden) — threads scale linearly (one per output element row
//     block) and per-WG time scales linearly, approximating the quadratic
//     total;
//   - elementwise/activation kernels grow linearly (one op per state
//     element);
//   - batch multiplies workgroups.
func (b *RNNBuilder) scale(baseName string, hidden, batch int) *gpu.KernelDesc {
	key := scaledKernel{hidden, batch, baseName}
	if d, ok := b.cache[key]; ok {
		return d
	}
	base := b.lib.Kernel(baseName)
	ratio := float64(hidden) / anchorHidden

	clone := *base
	isGEMM := baseName == "rocBLASGEMMKernel1"
	if isGEMM {
		// Quadratic total work: linear in WG count, linear in per-WG time.
		clone.NumWGs = maxInt(1, int(math.Round(float64(base.NumWGs)*ratio)))
		clone.BaseWGTime = sim.Time(math.Round(float64(base.BaseWGTime) * ratio))
	} else {
		// Linear total work: scale WG count only (tiny kernels stay tiny).
		clone.NumWGs = maxInt(1, int(math.Round(float64(base.NumWGs)*ratio)))
	}
	clone.NumWGs *= batch
	if hidden != anchorHidden || batch != 1 {
		clone.Name = fmt.Sprintf("%s@h%d_b%d", baseName, hidden, batch)
	}
	if clone.BaseWGTime <= 0 {
		clone.BaseWGTime = 1
	}
	b.cache[key] = &clone
	return &clone
}

// Build returns the kernel chain for the spec: the Table 1 prologue plus,
// per timestep, one GEMM and the cell's gate pairs. It panics on an invalid
// spec (construction inputs are static); use Validate to check dynamic
// input first.
func (b *RNNBuilder) Build(spec RNNSpec) []*gpu.KernelDesc {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	h, bs := spec.Hidden, spec.BatchSize
	var chain rnnChain
	chain.init(spec.Cell,
		b.scale("TensorKernel1", h, bs), b.scale("TensorKernel2", h, bs), b.scale("TensorKernel3", h, bs),
		b.scale("TensorKernel4", h, bs), b.scale("ActivationKernel5", h, bs), b.scale("rocBLASGEMMKernel1", h, bs))
	return chain.layout(spec.SeqLen)
}

// rnnChain is one RNN chain family over fixed descriptors: a prologue
// (tensor setup), then per time step one GEMM and the cell's gate pairs. An
// LSTM over the Table 1 kernels at L=13 yields exactly the Table 1 call
// counts (GEMM×13, TensorKernel4×40, ActivationKernel5×39).
//
// Every chain of a family is a prefix of its longest one, so a Library's
// families hand out windows of one shared maxSeqLen chain, built on the
// first sample: a Library that never samples a family never builds it.
type rnnChain struct {
	prologue, step []*gpu.KernelDesc

	once sync.Once         // guards full: pool workers share a Library
	full []*gpu.KernelDesc // the family's maxSeqLen chain
}

// init lays out the chain family of a cell type over the given descriptors.
func (r *rnnChain) init(cell CellType, t1, t2, t3, t4, act, gemm *gpu.KernelDesc) {
	var pro []*gpu.KernelDesc
	switch cell {
	case LSTMCell:
		pro = []*gpu.KernelDesc{t1, t1, t1, t2, t2, t2, t2, t2, t3, t3, t4}
	case GRUCell:
		pro = []*gpu.KernelDesc{t1, t1, t2, t2, t2, t3, t4}
	default:
		pro = []*gpu.KernelDesc{t1, t1, t2, t2, t4}
	}
	step := []*gpu.KernelDesc{gemm}
	for g := 0; g < cell.gatePairs(); g++ {
		step = append(step, t4, act)
	}
	r.prologue, r.step = pro, step
}

// length is the chain length at sequence length L: 11+7L for an LSTM, 7+5L
// for a GRU, 5+3L for a vanilla RNN.
func (r *rnnChain) length(L int) int { return len(r.prologue) + L*len(r.step) }

// layout returns the chain for sequence length L as a new slice of exactly
// its final length.
func (r *rnnChain) layout(L int) []*gpu.KernelDesc {
	ks := make([]*gpu.KernelDesc, r.length(L))
	n := copy(ks, r.prologue)
	for n < len(ks) {
		n += copy(ks[n:], r.step)
	}
	return ks
}

// build returns the chain for sequence length L (at most maxSeqLen) as a
// window of the family's shared chain with len == cap, so it allocates
// nothing and an append to it copies.
func (r *rnnChain) build(L int) []*gpu.KernelDesc {
	r.once.Do(func() { r.full = r.layout(maxSeqLen) })
	n := r.length(L)
	return r.full[:n:n]
}

// Job wraps Build into a workload.Job with the given identity and timing.
func (b *RNNBuilder) Job(id int, spec RNNSpec, arrival, deadline sim.Time) *Job {
	return &Job{
		ID:        id,
		Benchmark: fmt.Sprintf("%s-h%d", spec.Cell, spec.Hidden),
		Arrival:   arrival,
		Deadline:  deadline,
		Kernels:   b.Build(spec),
		SeqLen:    spec.SeqLen,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
