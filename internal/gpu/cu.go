package gpu

import "fmt"

// computeUnit tracks the occupancy of one CU. A workgroup occupies threads,
// wavefront slots, vector registers and LDS for its whole lifetime; a CU can
// host WGs from any mix of kernels, which is how WGs from kernels in
// different queues interleave execution (§2.1).
type computeUnit struct {
	id int

	threadsFree    int
	wavefrontsFree int
	vgprFree       int
	ldsFree        int

	activeWGs int

	// retired marks a CU lost to a fault: in-flight WGs drain, nothing new
	// is placed, and capacity estimates stop counting it.
	retired bool
}

// init makes c the empty CU id.
func (c *computeUnit) init(id int) {
	*c = computeUnit{
		id:             id,
		threadsFree:    ThreadsPerCU,
		wavefrontsFree: WavefrontsPerCU,
		vgprFree:       VGPRBytesPerCU,
		ldsFree:        LDSBytesPerCU,
	}
}

// wgFootprint is the resource cost of one WG of a kernel on a CU.
type wgFootprint struct {
	threads    int
	wavefronts int
	vgpr       int
	lds        int
}

func footprintOf(desc *KernelDesc) wgFootprint {
	wf := (desc.ThreadsPerWG + WavefrontSize - 1) / WavefrontSize
	return wgFootprint{
		threads:    desc.ThreadsPerWG,
		wavefronts: wf,
		vgpr:       desc.VGPRBytesPerWG,
		lds:        desc.LDSBytesPerWG,
	}
}

// covers reports whether f needs at least as much of every resource as g, so
// a CU without room for g has none for f.
func (f wgFootprint) covers(g wgFootprint) bool {
	return f.threads >= g.threads && f.wavefronts >= g.wavefronts &&
		f.vgpr >= g.vgpr && f.lds >= g.lds
}

// fits reports whether the CU currently has room for the footprint.
// Retired CUs never fit anything.
func (c *computeUnit) fits(f wgFootprint) bool {
	return !c.retired &&
		c.threadsFree >= f.threads &&
		c.wavefrontsFree >= f.wavefronts &&
		c.vgprFree >= f.vgpr &&
		c.ldsFree >= f.lds
}

// canEverFit reports whether an empty CU could host the footprint at all.
func (f wgFootprint) canEverFit() bool {
	return ThreadsPerCU >= f.threads &&
		WavefrontsPerCU >= f.wavefronts &&
		VGPRBytesPerCU >= f.vgpr &&
		LDSBytesPerCU >= f.lds
}

func (c *computeUnit) reserve(f wgFootprint) {
	if !c.fits(f) {
		panic(fmt.Sprintf("gpu: CU%d reserve without room: %+v", c.id, f))
	}
	c.threadsFree -= f.threads
	c.wavefrontsFree -= f.wavefronts
	c.vgprFree -= f.vgpr
	c.ldsFree -= f.lds
	c.activeWGs++
}

func (c *computeUnit) release(f wgFootprint) {
	c.threadsFree += f.threads
	c.wavefrontsFree += f.wavefronts
	c.vgprFree += f.vgpr
	c.ldsFree += f.lds
	c.activeWGs--
	if c.threadsFree > ThreadsPerCU || c.wavefrontsFree > WavefrontsPerCU ||
		c.vgprFree > VGPRBytesPerCU || c.ldsFree > LDSBytesPerCU || c.activeWGs < 0 {
		panic(fmt.Sprintf("gpu: CU%d release overflow", c.id))
	}
}

// utilization returns the fraction of thread contexts in use, in [0,1].
func (c *computeUnit) utilization() float64 {
	return float64(ThreadsPerCU-c.threadsFree) / ThreadsPerCU
}
