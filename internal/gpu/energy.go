package gpu

import "laxgpu/internal/sim"

// EnergyMeter accumulates dynamic energy per completed workgroup using the
// per-instruction energy methodology the paper cites (§5, [6][81]): every
// executed instruction costs EnergyPerInstPJ picojoules, with memory-heavy
// instructions weighted by a DRAM access factor; static leakage
// (StaticPowerWatts) accrues over the whole makespan.
type EnergyMeter struct {
	dynamicPJ float64
}

// memEnergyFactor multiplies the per-instruction energy of the memory
// fraction of a kernel: a DRAM access costs roughly an order of magnitude
// more than an ALU op in the per-instruction models the paper cites.
const memEnergyFactor = 10.0

func (m *EnergyMeter) addWG(desc *KernelDesc) {
	inst := float64(desc.InstPerThread) * float64(desc.ThreadsPerWG)
	weighted := inst * ((1 - desc.MemIntensity) + desc.MemIntensity*memEnergyFactor)
	m.dynamicPJ += weighted * EnergyPerInstPJ
}

// DynamicJoules returns the accumulated dynamic energy in joules.
func (m *EnergyMeter) DynamicJoules() float64 { return m.dynamicPJ * 1e-12 }

// TotalJoules returns dynamic plus static energy for a run of the given
// makespan.
func (m *EnergyMeter) TotalJoules(makespan sim.Time) float64 {
	return m.DynamicJoules() + StaticPowerWatts*makespan.Seconds()
}

// TotalMillijoules is TotalJoules expressed in mJ (the unit of Table 5c).
func (m *EnergyMeter) TotalMillijoules(makespan sim.Time) float64 {
	return m.TotalJoules(makespan) * 1e3
}
