package cudasim

import (
	"fmt"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
)

// Device is a simulated CUDA device. It owns the constant-memory bank, the
// profiler, and the simulated clock. Buffers are allocated against a
// device with NewBuffer.
//
// Kernel launches execute eagerly: the launching goroutine runs blocks
// itself while up to GOMAXPROCS−1 helper goroutines claim the rest, and
// every block runs in host memory (thread contexts, shared memory) reused
// from earlier launches. This preserves the FIFO semantics of CUDA's
// default stream; Synchronize exists for API fidelity with the paper's
// host code and flushes nothing further.
type Device struct {
	spec    DeviceSpec
	workers int

	mu         sync.Mutex
	simTime    float64 // accumulated simulated device seconds
	allocBytes int64   // live device-memory allocations

	// consts is the constant-memory bank. Kernels read it without a lock;
	// SetConstant* copies it and swaps the copy in under mu.
	consts atomic.Pointer[constBank]

	scratchMu sync.Mutex
	scratch   []*blockScratch // free block scratches, reused by launches

	prof  *Profiler
	trace *tracer
}

// constBank is one immutable snapshot of constant memory.
type constBank struct {
	ints   map[string]int64
	floats map[string]float64
}

// NewDevice creates a device with the given spec. It panics on an invalid
// spec (device creation is static configuration, not runtime input).
func NewDevice(spec DeviceSpec) *Device {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	d := &Device{
		spec:    spec,
		workers: runtime.GOMAXPROCS(0),
		prof:    newProfiler(),
	}
	d.consts.Store(&constBank{})
	return d
}

// Spec returns the device's hardware description.
func (d *Device) Spec() DeviceSpec { return d.spec }

// SimTime returns the simulated device time accumulated so far, in
// seconds: kernel execution per the timing model plus host↔device
// transfers.
func (d *Device) SimTime() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.simTime
}

// ResetSimTime zeroes the simulated clock (the profiler is unaffected).
func (d *Device) ResetSimTime() {
	d.mu.Lock()
	d.simTime = 0
	d.mu.Unlock()
}

// Profiler returns the device's profiler.
func (d *Device) Profiler() *Profiler { return d.prof }

// MemoryInUse returns the bytes of live device-buffer allocations.
func (d *Device) MemoryInUse() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocBytes
}

// reserve claims device memory for an allocation, failing when the
// spec's capacity would be exceeded.
func (d *Device) reserve(bytes int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.spec.GlobalMemBytes > 0 && d.allocBytes+bytes > d.spec.GlobalMemBytes {
		return fmt.Errorf("cudasim: out of device memory: %d B in use, %d B requested, %d B capacity",
			d.allocBytes, bytes, d.spec.GlobalMemBytes)
	}
	d.allocBytes += bytes
	return nil
}

// release returns device memory (Buffer.Free).
func (d *Device) release(bytes int64) {
	d.mu.Lock()
	d.allocBytes -= bytes
	d.mu.Unlock()
}

// SetConstantInt stores a value in simulated constant memory, as the paper
// does with the due date d and the job count n to exploit the broadcast
// mechanism.
func (d *Device) SetConstantInt(name string, v int64) {
	d.mu.Lock()
	old := d.consts.Load()
	d.consts.Store(&constBank{ints: withEntry(old.ints, name, v), floats: old.floats})
	d.mu.Unlock()
}

// SetConstantFloat stores a float in simulated constant memory.
func (d *Device) SetConstantFloat(name string, v float64) {
	d.mu.Lock()
	old := d.consts.Load()
	d.consts.Store(&constBank{ints: old.ints, floats: withEntry(old.floats, name, v)})
	d.mu.Unlock()
}

// withEntry returns a copy of m with name set to v.
func withEntry[T any](m map[string]T, name string, v T) map[string]T {
	c := make(map[string]T, len(m)+1)
	maps.Copy(c, m)
	c[name] = v
	return c
}

// Synchronize blocks until all queued work completes. Launches execute
// eagerly in this simulator, so this is a memory barrier plus API
// fidelity; host code ported from the paper calls it after the four
// kernel launches of each iteration.
func (d *Device) Synchronize() {}

// Event is a point on the simulated timeline, mirroring cudaEvent_t.
type Event struct{ at float64 }

// Record captures the current simulated time.
func (d *Device) Record() Event { return Event{at: d.SimTime()} }

// ElapsedSeconds returns the simulated seconds between two events.
func (e Event) ElapsedSeconds(later Event) float64 { return later.at - e.at }

// LaunchConfig describes one kernel launch.
type LaunchConfig struct {
	// Name labels the kernel in the profiler ("fitness", "perturb", …).
	Name string
	// Grid and Block are the CUDA launch geometry.
	Grid, Block Dim3
	// RegsPerThread, when positive, limits SM occupancy through register
	// pressure (the trade-off the paper discusses for large blocks).
	RegsPerThread int
	// SharedBytesPerBlock declares the block's shared-memory footprint;
	// launches exceeding the spec's budget fail.
	SharedBytesPerBlock int
	// Cooperative selects goroutine-per-thread execution with a real
	// __syncthreads barrier. Non-cooperative launches run each block's
	// threads sequentially on one goroutine — much faster on the host —
	// and SyncThreads panics (there is nothing to synchronize with).
	Cooperative bool
}

// Kernel is the device function type: one invocation per thread.
type Kernel func(ctx *Ctx)

// launch is the shared state of one Launch: the next unclaimed block,
// the per-block costs and the first panic raised by device code.
type launch struct {
	d         *Device
	cfg       LaunchConfig
	kernel    Kernel
	blocks    int
	next      atomic.Int64
	costs     []blockCost
	helpers   sync.WaitGroup
	panicOnce sync.Once
	panicVal  any
}

// Launch validates the configuration and executes the kernel over the
// whole grid. It returns once every thread has finished, with the
// simulated clock advanced per the timing model.
func (d *Device) Launch(cfg LaunchConfig, kernel Kernel) error {
	if !cfg.Grid.Valid() || !cfg.Block.Valid() {
		return fmt.Errorf("cudasim: launch %q with non-positive geometry grid=%v block=%v", cfg.Name, cfg.Grid, cfg.Block)
	}
	if tpb := cfg.Block.Count(); tpb > d.spec.MaxThreadsPerBlock {
		return fmt.Errorf("cudasim: launch %q with %d threads/block exceeds device limit %d", cfg.Name, tpb, d.spec.MaxThreadsPerBlock)
	}
	if cfg.SharedBytesPerBlock > d.spec.SharedMemPerBlock {
		return fmt.Errorf("cudasim: launch %q requests %d B shared memory, device offers %d B", cfg.Name, cfg.SharedBytesPerBlock, d.spec.SharedMemPerBlock)
	}
	if cfg.Name == "" {
		cfg.Name = "kernel"
	}

	numBlocks := cfg.Grid.Count()
	l := &launch{d: d, cfg: cfg, kernel: kernel, blocks: numBlocks, costs: make([]blockCost, numBlocks)}

	// The launching goroutine runs blocks itself; up to workers−1
	// helpers claim the rest from the same counter.
	helpers := min(d.workers, numBlocks) - 1
	l.helpers.Add(helpers)
	for i := 0; i < helpers; i++ {
		go func() {
			defer l.helpers.Done()
			l.work()
		}()
	}
	l.work()
	l.helpers.Wait()
	// A panic in device code is re-raised on the launching goroutine
	// (the analogue of a device-side assert aborting the kernel).
	if l.panicVal != nil {
		panic(l.panicVal)
	}

	seconds := d.kernelSeconds(cfg, l.costs)
	d.mu.Lock()
	startAt := d.simTime
	d.simTime += seconds
	d.mu.Unlock()
	d.prof.recordKernel(cfg, l.costs, seconds)
	d.recordTraceEvent(cfg.Name, "kernel", startAt, seconds, 0)
	return nil
}

// work runs blocks of the launch until none is left unclaimed, on one
// block scratch taken from the device for the duration. The first
// panic is kept for Launch to re-raise and stops further claims.
func (l *launch) work() {
	s := l.d.takeScratch()
	defer l.d.putScratch(s)
	defer func() {
		if r := recover(); r != nil {
			l.panicOnce.Do(func() { l.panicVal = r })
			l.next.Store(int64(l.blocks))
		}
	}()
	for {
		b := int(l.next.Add(1) - 1)
		if b >= l.blocks {
			return
		}
		l.costs[b] = l.d.runBlock(l.cfg, b, l.kernel, s)
	}
}

// MustLaunch is Launch for statically correct configurations; it panics on
// error.
func (d *Device) MustLaunch(cfg LaunchConfig, kernel Kernel) {
	if err := d.Launch(cfg, kernel); err != nil {
		panic(err)
	}
}

// blockScratch is the host memory one block runs in: the threads'
// contexts and the block's shared state. The device keeps released
// scratches on a free list, so a launch reuses the memory of earlier
// ones; each one is held by a single goroutine at a time.
type blockScratch struct {
	ctxs  []Ctx
	state blockState
}

// takeScratch hands out a free block scratch, or a new one.
func (d *Device) takeScratch() *blockScratch {
	d.scratchMu.Lock()
	defer d.scratchMu.Unlock()
	if n := len(d.scratch); n > 0 {
		s := d.scratch[n-1]
		d.scratch = d.scratch[:n-1]
		return s
	}
	return &blockScratch{}
}

// putScratch returns a block scratch to the free list.
func (d *Device) putScratch(s *blockScratch) {
	d.scratchMu.Lock()
	d.scratch = append(d.scratch, s)
	d.scratchMu.Unlock()
}

// runBlock executes one block on the given scratch and returns its
// accumulated cycle costs.
func (d *Device) runBlock(cfg LaunchConfig, blockLinear int, kernel Kernel, s *blockScratch) blockCost {
	threads := cfg.Block.Count()
	bs := &s.state
	bs.reset()
	if cap(s.ctxs) < threads {
		s.ctxs = make([]Ctx, threads)
	}
	ctxs := s.ctxs[:threads]
	blockIdx := cfg.Grid.unflatten(blockLinear)
	for t := range ctxs {
		ctxs[t] = Ctx{
			dev:       d,
			block:     bs,
			BlockIdx:  blockIdx,
			ThreadIdx: cfg.Block.unflatten(t),
			BlockDim:  cfg.Block,
			GridDim:   cfg.Grid,
		}
	}
	if cfg.Cooperative {
		bs.barrier = newBarrier(threads)
		var wg sync.WaitGroup
		var panicOnce sync.Once
		var panicVal any
		wg.Add(threads)
		for t := 0; t < threads; t++ {
			go func(t int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						if r != errBarrierBroken {
							panicOnce.Do(func() { panicVal = r })
						}
						// Release siblings parked at the barrier so the
						// block can unwind instead of deadlocking.
						bs.barrier.breakAll()
					}
				}()
				kernel(&ctxs[t])
			}(t)
		}
		wg.Wait()
		if panicVal != nil {
			panic(panicVal)
		}
	} else {
		for t := range ctxs {
			kernel(&ctxs[t])
		}
	}
	return d.costBlock(cfg, ctxs)
}

// blockCost aggregates a block's simulated execution cost.
type blockCost struct {
	compute  uint64 // Σ per-thread compute cycles
	memory   uint64 // Σ per-warp memory latency cycles
	critical uint64 // max per-warp (compute+memory) serial cycles
	counters counters
}

// costBlock folds per-thread cycle counters into warp-granular costs.
func (d *Device) costBlock(cfg LaunchConfig, ctxs []Ctx) blockCost {
	var bc blockCost
	ws := d.spec.WarpSize
	for w := 0; w*ws < len(ctxs); w++ {
		lo := w * ws
		hi := lo + ws
		if hi > len(ctxs) {
			hi = len(ctxs)
		}
		var warpCompute, warpMem uint64
		for t := lo; t < hi; t++ {
			c := &ctxs[t]
			bc.compute += c.computeCycles
			if c.computeCycles > warpCompute {
				warpCompute = c.computeCycles
			}
			if c.memCycles > warpMem {
				warpMem = c.memCycles
			}
			bc.counters.add(&c.counts)
		}
		bc.memory += warpMem
		if s := warpCompute + warpMem; s > bc.critical {
			bc.critical = s
		}
	}
	return bc
}

// occupancyWarps returns how many warps of this launch can be resident on
// one SM at a time, limited by the architectural cap and by register
// pressure.
func (d *Device) occupancyWarps(cfg LaunchConfig) int {
	warps := d.spec.MaxResidentWarps
	if cfg.RegsPerThread > 0 {
		byRegs := d.spec.RegistersPerSM / (cfg.RegsPerThread * d.spec.WarpSize)
		if byRegs < 1 {
			byRegs = 1
		}
		if byRegs < warps {
			warps = byRegs
		}
	}
	return warps
}

// kernelSeconds converts per-block costs into a simulated kernel duration:
// blocks are distributed round-robin over SMs and serialize there; within
// a block, compute throughput is bounded by the SM's warp issue width,
// memory latency is hidden across the resident warps (occupancy-limited),
// and no warp can finish faster than its own serial execution.
func (d *Device) kernelSeconds(cfg LaunchConfig, blocks []blockCost) float64 {
	blockWarps := (cfg.Block.Count() + d.spec.WarpSize - 1) / d.spec.WarpSize
	overlap := d.occupancyWarps(cfg)
	if blockWarps < overlap {
		overlap = blockWarps
	}
	if overlap < 1 {
		overlap = 1
	}
	var maxSM float64
	for sm := 0; sm < d.spec.SMs; sm++ {
		var smCycles float64
		for i := sm; i < len(blocks); i += d.spec.SMs {
			bc := &blocks[i]
			computeBound := float64(bc.compute) / float64(d.spec.CoresPerSM)
			memoryBound := float64(bc.memory) / float64(overlap)
			cycles := computeBound
			if memoryBound > cycles {
				cycles = memoryBound
			}
			if crit := float64(bc.critical); crit > cycles {
				cycles = crit
			}
			smCycles += cycles
		}
		if smCycles > maxSM {
			maxSM = smCycles
		}
	}
	return maxSM/(d.spec.ClockMHz*1e6) + d.spec.KernelLaunchSec
}

// chargeTransfer accounts a host↔device copy of the given byte volume.
func (d *Device) chargeTransfer(bytes int, toDevice bool) {
	seconds := d.spec.TransferLatencySec + float64(bytes)/(d.spec.PCIeGBPerSec*1e9)
	d.mu.Lock()
	startAt := d.simTime
	d.simTime += seconds
	d.mu.Unlock()
	d.prof.recordTransfer(bytes, seconds, toDevice)
	cat, tid := "d2h", 2
	if toDevice {
		cat, tid = "h2d", 1
	}
	d.recordTraceEvent("memcpy", cat, startAt, seconds, tid)
}
