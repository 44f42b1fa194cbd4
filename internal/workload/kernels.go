package workload

import (
	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

// kernelSpec is a Table 1 row: the published characterization of one kernel
// (isolated execution time, thread count, context size) plus the memory
// intensity our contention model assigns it.
type kernelSpec struct {
	name         string
	execTime     sim.Time // isolated per-call execution time (Table 1)
	totalThreads int
	contextKB    float64 // aggregate register+LDS footprint (Table 1)
	memIntensity float64
}

// maxWGSize is the workgroup size used to decompose kernels into WGs.
const maxWGSize = 256

// table1 reproduces the kernel characterization of Table 1. The LSTM rows
// are used by all RNN variants (the paper: GRU and Vanilla use the same 5
// MIOpen kernels and one rocBLAS GEMM); VanGEMM/GRU256GEMM are the
// hidden-size-256 GEMMs Table 4 implies for VAN and the HYBRID GRU.
var table1 = []kernelSpec{
	{"TensorKernel1", 3960 * sim.Nanosecond, 16384, 397, 0.70},
	{"TensorKernel2", 1790 * sim.Nanosecond, 128, 3.1, 0.60},
	{"TensorKernel3", 4450 * sim.Nanosecond, 2048, 106.8, 0.65},
	{"TensorKernel4", 4740 * sim.Nanosecond, 64, 9.1, 0.60},
	{"ActivationKernel5", 8870 * sim.Nanosecond, 128, 11.1, 0.50},
	{"rocBLASGEMMKernel1", 127480 * sim.Nanosecond, 1024, 562.4, 0.30},
	{"VanGEMMKernel", 200 * sim.Microsecond, 2048, 700, 0.30},
	{"GRU256GEMMKernel", 250 * sim.Microsecond, 2048, 700, 0.30},
	{"IPV6Kernel", 25 * sim.Microsecond, 8192, 329, 0.80},
	{"cuckooKernel", 300 * sim.Microsecond, 8192, 566, 0.70},
	{"GMMKernel", 1500 * sim.Microsecond, 2048, 195.5, 0.40},
	{"STEMKernel", 150 * sim.Microsecond, 4096, 317, 0.60},
}

// Library holds the kernel descriptors calibrated for one device
// configuration: BaseWGTime is solved so that the kernel's isolated
// execution time on the configured device matches its Table 1 row.
// NewLibrary also resolves every benchmark's chain pieces, so sampling a job
// looks nothing up by name, and a built Library is read-only but for each RNN
// family's shared chain, built once on its first sample: pool workers and
// daemons share one freely.
type Library struct {
	cfg     gpu.Config
	kernels map[string]*gpu.KernelDesc

	// descs holds the descriptors in table1 order; a single-kernel
	// benchmark's chain is a one-element window of it.
	descs []*gpu.KernelDesc

	// The RNN benchmarks' chain families: lstm (LSTM and HYBRID's LSTM
	// half), gru (GRU), gru256 (HYBRID's GRU half, over the hidden-256
	// GEMM) and van (VAN). Each builds its shared chain on its first sample.
	lstm, gru, gru256, van rnnChain
}

// NewLibrary calibrates all Table 1 kernels against cfg and resolves the
// benchmarks' chains over them.
func NewLibrary(cfg gpu.Config) *Library {
	lib := &Library{
		cfg:     cfg,
		kernels: make(map[string]*gpu.KernelDesc, len(table1)),
		descs:   make([]*gpu.KernelDesc, len(table1)),
	}
	for i, s := range table1 {
		lib.descs[i] = calibrate(cfg, s)
		lib.kernels[s.name] = lib.descs[i]
	}
	k := lib.Kernel
	t1, t2, t3, t4, act := k("TensorKernel1"), k("TensorKernel2"), k("TensorKernel3"), k("TensorKernel4"), k("ActivationKernel5")
	lib.lstm.init(LSTMCell, t1, t2, t3, t4, act, k("rocBLASGEMMKernel1"))
	lib.gru.init(GRUCell, t1, t2, t3, t4, act, k("rocBLASGEMMKernel1"))
	lib.gru256.init(GRUCell, t1, t2, t3, t4, act, k("GRU256GEMMKernel"))
	lib.van.init(VanillaCell, t1, t2, t3, t4, act, k("VanGEMMKernel"))
	return lib
}

// table1Index returns the table1 row of the named kernel. It panics on an
// unknown name, like Library.Kernel: the benchmark registry is static.
func table1Index(name string) int {
	for i, s := range table1 {
		if s.name == name {
			return i
		}
	}
	panic("workload: unknown kernel " + name)
}

// Kernel returns the calibrated descriptor for a Table 1 kernel name. It
// panics on an unknown name — workload definitions are static and a typo is
// a programming error.
func (l *Library) Kernel(name string) *gpu.KernelDesc {
	k := l.kernels[name]
	if k == nil {
		panic("workload: unknown kernel " + name)
	}
	return k
}

// Find returns the calibrated descriptor for a kernel name, or false when
// the name is unknown — the non-panicking lookup for callers handling
// untrusted input (e.g. WGList overrides arriving over the network).
func (l *Library) Find(name string) (*gpu.KernelDesc, bool) {
	k, ok := l.kernels[name]
	return k, ok
}

// calibrate converts a Table 1 row into a KernelDesc whose isolated
// execution time on cfg equals the published time: the kernel's WGs run in
// waves bounded by occupancy, so BaseWGTime = target / (waves × stretch),
// where stretch is the kernel's own memory contention at full occupancy.
func calibrate(cfg gpu.Config, s kernelSpec) *gpu.KernelDesc {
	threadsPerWG := s.totalThreads
	if threadsPerWG > maxWGSize {
		threadsPerWG = maxWGSize
	}
	numWGs := (s.totalThreads + threadsPerWG - 1) / threadsPerWG

	ctxBytesPerWG := int(s.contextKB*1024) / numWGs
	// Split context between registers (bulk) and LDS, clamped to CU
	// capacity so every kernel remains schedulable.
	vgpr := ctxBytesPerWG * 9 / 10
	lds := min(ctxBytesPerWG-vgpr, gpu.LDSBytesPerCU)
	vgpr = min(vgpr, gpu.VGPRBytesPerCU)

	desc := &gpu.KernelDesc{
		Name:           s.name,
		NumWGs:         numWGs,
		ThreadsPerWG:   threadsPerWG,
		VGPRBytesPerWG: vgpr,
		LDSBytesPerWG:  lds,
		BaseWGTime:     sim.Time(1), // placeholder for occupancy computation
		MemIntensity:   s.memIntensity,
	}

	conc := gpu.MaxConcurrentWGs(cfg, desc)
	if conc > numWGs {
		conc = numWGs
	}
	waves := (numWGs + conc - 1) / conc
	demand := float64(conc) * s.memIntensity * float64(threadsPerWG)
	base := float64(s.execTime) / (float64(waves) * cfg.Stretch(s.memIntensity, demand))
	if base < 1 {
		base = 1
	}
	desc.BaseWGTime = sim.Time(base)

	// Per-instruction energy input: approximate dynamic instruction count
	// per thread from the WG latency at the 1.5 GHz core clock with an
	// effective per-thread IPC of 0.75.
	desc.InstPerThread = int(base * 1.5 * 0.75)
	if desc.InstPerThread < 1 {
		desc.InstPerThread = 1
	}
	return desc
}

// Table1Rows exposes the published characterization for reporting
// (harness.Table1 compares it against simulated isolated times).
type Table1Row struct {
	Name         string
	ExecTime     sim.Time
	TotalThreads int
	ContextKB    float64
}

// Table1Reference returns the published Table 1 rows.
func Table1Reference() []Table1Row {
	rows := make([]Table1Row, 0, len(table1))
	for _, s := range table1 {
		rows = append(rows, Table1Row{s.name, s.execTime, s.totalThreads, s.contextKB})
	}
	return rows
}
