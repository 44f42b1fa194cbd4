package gpu

import "fmt"

// The Table 2 machine's per-CU capacities and energy model. Every device
// the simulator builds is this CU, so these are constants; only the CU
// count and the memory system scale (Config).
const (
	// ThreadsPerCU is the maximum concurrent thread contexts per CU
	// (GCN: 2560 = 4 SIMD units × 10 wavefronts × 64 lanes).
	ThreadsPerCU = 2560

	// WavefrontsPerCU bounds wavefront slots: SIMD units per CU ×
	// wavefronts per SIMD (Table 2: 4 and 10).
	WavefrontsPerCU = 4 * 10

	// WavefrontSize is the number of threads per wavefront (GCN: 64).
	WavefrontSize = 64

	// VGPRBytesPerCU is the vector register file size per CU (Table 2:
	// 256 KB).
	VGPRBytesPerCU = 256 << 10

	// LDSBytesPerCU is the local data store per CU (GCN: 64 KB).
	LDSBytesPerCU = 64 << 10

	// EnergyPerInstPJ is the dynamic energy per executed instruction in
	// picojoules (per-instruction energy model, §5 / [6][81]).
	EnergyPerInstPJ = 10.0

	// StaticPowerWatts is the constant leakage + idle power drawn for the
	// whole makespan.
	StaticPowerWatts = 25.0
)

// Config holds the device parameters callers vary. DefaultConfig matches
// Table 2 of the paper (the simulated system).
type Config struct {
	// NumCUs is the number of compute units (Table 2: 8).
	NumCUs int

	// MemBandwidthDemand is the aggregate memory demand (in thread-demand
	// units: Σ active WGs of MemIntensity × ThreadsPerWG) the memory system
	// sustains without slowdown. Beyond it, the memory fraction of WG
	// latency stretches linearly — the contention signal LAX's profiling
	// table must track.
	MemBandwidthDemand float64
}

// DefaultConfig returns the Table 2 machine.
func DefaultConfig() Config {
	return Config{
		NumCUs: 8,
		// 60% of full-device thread occupancy issuing memory traffic
		// saturates bandwidth: 8 × 2560 × 0.6 = 12288 demand units.
		MemBandwidthDemand: 12288,
	}
}

// WithCUs returns c resized to n compute units with the memory bandwidth
// per CU preserved: the memory system grows and shrinks with the chip.
func (c Config) WithCUs(n int) Config {
	c.MemBandwidthDemand = c.MemBandwidthDemand * float64(n) / float64(c.NumCUs)
	c.NumCUs = n
	return c
}

// slowdown is the memory contention factor (≥ 1) under demand thread-demand
// units: demand over what the memory system sustains, never below 1.
func (c Config) slowdown(demand float64) float64 {
	slow := demand / c.MemBandwidthDemand
	if slow < 1 {
		return 1
	}
	return slow
}

// Stretch is the factor contention stretches a WG's latency by when the
// device carries demand thread-demand units: the memory fraction m of the
// latency stretches by the slowdown, the compute fraction never does.
func (c Config) Stretch(m, demand float64) float64 {
	return (1 - m) + m*c.slowdown(demand)
}

// TotalThreads returns the device-wide thread context capacity.
func (c Config) TotalThreads() int { return c.NumCUs * ThreadsPerCU }

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.NumCUs <= 0:
		return fmt.Errorf("gpu: NumCUs = %d, must be positive", c.NumCUs)
	case c.MemBandwidthDemand <= 0:
		return fmt.Errorf("gpu: MemBandwidthDemand = %v, must be positive", c.MemBandwidthDemand)
	}
	return nil
}
