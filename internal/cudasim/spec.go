// Package cudasim is a CUDA-like execution model in pure Go. It stands in
// for the Nvidia GPU + CUDA runtime of the paper (which evaluated on a
// GeForce GT 560M): kernels are Go functions launched over a grid of
// thread blocks. The launching goroutine and up to GOMAXPROCS−1 helpers
// claim blocks from a shared counter, so launches genuinely run in
// parallel on the host cores; a block's threads run in order on one
// goroutine, or as goroutines with a real __syncthreads barrier in
// cooperative launches. Blocks run in thread contexts and shared memory
// reused from earlier launches, so a launch costs the host little beyond
// the kernel's own work.
//
// Beyond functional semantics the package carries a cycle-level timing
// model (global/shared/constant memory latencies, warp-granular execution,
// SM occupancy limited by registers and resident-warp capacity, PCIe
// transfer cost) so that experiments can report a *simulated device time*
// with the qualitative shape of the paper's runtime curves, alongside real
// host wall-clock times. DESIGN.md documents the substitution.
package cudasim

import "fmt"

// DeviceSpec describes the simulated hardware. All limits are enforced at
// launch time; the timing fields drive the performance model.
type DeviceSpec struct {
	// Name of the modelled device.
	Name string
	// SMs is the number of streaming multiprocessors.
	SMs int
	// CoresPerSM is the number of scalar cores per SM; together with
	// WarpSize it sets the warp issue throughput.
	CoresPerSM int
	// WarpSize is the SIMT width (32 on all Nvidia hardware).
	WarpSize int
	// MaxThreadsPerBlock is the per-block thread limit (1024 on the
	// paper's device).
	MaxThreadsPerBlock int
	// MaxResidentWarps is the per-SM warp residency limit used for
	// latency hiding.
	MaxResidentWarps int
	// RegistersPerSM is the register file size per SM (32-bit registers);
	// it bounds occupancy when kernels declare RegsPerThread.
	RegistersPerSM int
	// SharedMemPerBlock is the shared-memory budget per block in bytes.
	SharedMemPerBlock int
	// ClockMHz is the shader clock in MHz; cycles/clock = seconds.
	ClockMHz float64
	// PCIeGBPerSec is the host↔device copy bandwidth in GB/s.
	PCIeGBPerSec float64
	// TransferLatencySec is the fixed per-memcpy latency in seconds.
	TransferLatencySec float64
	// KernelLaunchSec is the fixed per-kernel-launch overhead in seconds.
	KernelLaunchSec float64
	// GlobalMemBytes is the device-memory capacity; buffer allocations
	// beyond it fail. Zero means unlimited.
	GlobalMemBytes int64
}

// Validate reports the first implausible field of the spec.
func (s DeviceSpec) Validate() error {
	switch {
	case s.SMs < 1:
		return fmt.Errorf("cudasim: spec needs at least one SM, got %d", s.SMs)
	case s.WarpSize < 1:
		return fmt.Errorf("cudasim: warp size %d < 1", s.WarpSize)
	case s.CoresPerSM < 1:
		return fmt.Errorf("cudasim: cores per SM %d < 1", s.CoresPerSM)
	case s.MaxThreadsPerBlock < 1:
		return fmt.Errorf("cudasim: max threads per block %d < 1", s.MaxThreadsPerBlock)
	case s.MaxResidentWarps < 1:
		return fmt.Errorf("cudasim: max resident warps %d < 1", s.MaxResidentWarps)
	case s.ClockMHz <= 0:
		return fmt.Errorf("cudasim: clock %f MHz", s.ClockMHz)
	case s.PCIeGBPerSec <= 0:
		return fmt.Errorf("cudasim: PCIe bandwidth %f GB/s", s.PCIeGBPerSec)
	}
	return nil
}

// GT560M returns a spec modelled on the paper's GeForce GT 560M
// (GF116: 192 CUDA cores over 4 SMs, 2 GB device memory, PCIe 2.0 ×16).
func GT560M() DeviceSpec {
	return DeviceSpec{
		Name:               "GeForce GT 560M (simulated)",
		SMs:                4,
		CoresPerSM:         48,
		WarpSize:           32,
		MaxThreadsPerBlock: 1024,
		MaxResidentWarps:   48,
		RegistersPerSM:     32768,
		SharedMemPerBlock:  48 * 1024,
		ClockMHz:           1550,
		PCIeGBPerSec:       8,
		TransferLatencySec: 10e-6,
		KernelLaunchSec:    5e-6,
		GlobalMemBytes:     2 << 30, // the paper's card has 2 GB
	}
}

// Cycle charges of the instruction classes used by the timing model. The
// values are coarse but in the published latency ballparks for Fermi/
// Kepler-class hardware; only ratios matter for the reproduced shapes.
const (
	// CyclesArith is one fused arithmetic/logic operation.
	CyclesArith = 1
	// CyclesShared is a shared-memory access (bank-conflict free).
	CyclesShared = 2
	// CyclesConstant is a constant-memory broadcast hit.
	CyclesConstant = 1
	// CyclesGlobalCoalesced is the amortized cost of a coalesced global
	// memory access.
	CyclesGlobalCoalesced = 40
	// CyclesGlobalScattered is an uncoalesced global access.
	CyclesGlobalScattered = 400
	// CyclesAtomic is an atomic RMW resolved in L2, serialized.
	CyclesAtomic = 100
)
