// Package queueing provides analytical M/M/k approximations for the
// single-kernel benchmarks, used to validate the simulator: a stream of
// identical jobs with Poisson arrivals on a device that fits k of them
// concurrently is (approximately) an M/M/k queue, for which waiting-time
// distributions are known in closed form. Where theory applies, the
// simulated FCFS deadline-met fraction must track the analytical
// prediction — a correctness check no amount of unit testing of parts can
// substitute for.
package queueing

import (
	"fmt"
	"math"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

// MMK is an M/M/k queue: Poisson arrivals at rate Lambda, exponential-ish
// service with mean ServiceTime, K parallel servers.
type MMK struct {
	// Lambda is the arrival rate (jobs per second).
	Lambda float64

	// ServiceTime is the mean service duration.
	ServiceTime sim.Time

	// K is the server count.
	K int
}

// Offered returns the offered load in Erlangs (λ/µ).
func (q MMK) Offered() float64 {
	return q.Lambda * q.ServiceTime.Seconds()
}

// Utilization returns the per-server utilization ρ = a/K.
func (q MMK) Utilization() float64 { return q.Offered() / float64(q.K) }

// Stable reports whether the queue has a steady state (ρ < 1).
func (q MMK) Stable() bool { return q.K >= 1 && q.Utilization() < 1 }

// ErlangC returns the probability an arriving job must wait (all K servers
// busy), the Erlang-C formula. It requires a stable queue.
func (q MMK) ErlangC() (float64, error) {
	if !q.Stable() {
		return 0, fmt.Errorf("queueing: unstable queue (rho=%.3f)", q.Utilization())
	}
	a := q.Offered()
	k := q.K

	// Compute a^n/n! iteratively to avoid overflow.
	term := 1.0 // a^0/0!
	sum := term
	for n := 1; n < k; n++ {
		term *= a / float64(n)
		sum += term
	}
	top := term * a / float64(k) // a^k/k!
	top *= float64(k) / (float64(k) - a)
	return top / (sum + top), nil
}

// WaitExceeds returns P(queueing wait > t): C · exp(−(Kµ−λ)t).
func (q MMK) WaitExceeds(t sim.Time) (float64, error) {
	c, err := q.ErlangC()
	if err != nil {
		return 0, err
	}
	if t <= 0 {
		return c, nil
	}
	mu := 1.0 / q.ServiceTime.Seconds()
	rate := float64(q.K)*mu - q.Lambda
	return c * math.Exp(-rate*t.Seconds()), nil
}

// DeadlineMetFrac returns the predicted fraction of jobs meeting a relative
// deadline d under FCFS: the job must wait at most d − s, then be served
// (service time treated as deterministic at the mean — our kernels have
// essentially fixed durations, making this an M/D/k-flavored approximation
// that is slightly conservative on waits).
func (q MMK) DeadlineMetFrac(d sim.Time) (float64, error) {
	slack := d - q.ServiceTime
	if slack < 0 {
		return 0, nil // even an unqueued job cannot finish in time
	}
	pLate, err := q.WaitExceeds(slack)
	if err != nil {
		return 0, err
	}
	return 1 - pLate, nil
}

// ForKernel builds the M/M/k model of a single-kernel benchmark on the
// given device: K is the number of whole jobs the device hosts at once and
// the service time is the kernel's isolated execution time stretched by
// the memory contention of K co-resident jobs.
func ForKernel(cfg gpu.Config, desc *gpu.KernelDesc, jobsPerSec int) MMK {
	k := gpu.MaxConcurrentWGs(cfg, desc) / desc.NumWGs
	if k < 1 {
		k = 1
	}
	// Memory slowdown with k jobs resident.
	demand := float64(k*desc.NumWGs) * desc.MemIntensity * float64(desc.ThreadsPerWG)
	service := sim.Time(float64(gpu.IsolatedKernelTime(cfg, desc)) * cfg.Stretch(desc.MemIntensity, demand))
	return MMK{Lambda: float64(jobsPerSec), ServiceTime: service, K: k}
}
