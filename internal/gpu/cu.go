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

	threadsCap    int
	wavefrontsCap int
	vgprCap       int
	ldsCap        int

	activeWGs int

	// retired marks a CU lost to a fault: in-flight WGs drain, nothing new
	// is placed, and capacity estimates stop counting it.
	retired bool
}

func newComputeUnit(id int, cfg Config) *computeUnit {
	return &computeUnit{
		id:             id,
		threadsFree:    cfg.ThreadsPerCU,
		wavefrontsFree: cfg.WavefrontsPerCU(),
		vgprFree:       cfg.VGPRBytesPerCU,
		ldsFree:        cfg.LDSBytesPerCU,
		threadsCap:     cfg.ThreadsPerCU,
		wavefrontsCap:  cfg.WavefrontsPerCU(),
		vgprCap:        cfg.VGPRBytesPerCU,
		ldsCap:         cfg.LDSBytesPerCU,
	}
}

// wgFootprint is the resource cost of one WG of a kernel on a CU.
type wgFootprint struct {
	threads    int
	wavefronts int
	vgpr       int
	lds        int
}

func footprintOf(desc *KernelDesc, wavefrontSize int) wgFootprint {
	wf := (desc.ThreadsPerWG + wavefrontSize - 1) / wavefrontSize
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
func (c *computeUnit) canEverFit(f wgFootprint) bool {
	return c.threadsCap >= f.threads &&
		c.wavefrontsCap >= f.wavefronts &&
		c.vgprCap >= f.vgpr &&
		c.ldsCap >= f.lds
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
	if c.threadsFree > c.threadsCap || c.wavefrontsFree > c.wavefrontsCap ||
		c.vgprFree > c.vgprCap || c.ldsFree > c.ldsCap || c.activeWGs < 0 {
		panic(fmt.Sprintf("gpu: CU%d release overflow", c.id))
	}
}

// utilization returns the fraction of thread contexts in use, in [0,1].
func (c *computeUnit) utilization() float64 {
	return float64(c.threadsCap-c.threadsFree) / float64(c.threadsCap)
}
