package cudasim

import (
	"fmt"
	"sync"
)

// Ctx is a thread's view of the device during a kernel: its position in
// the launch geometry, its cycle accounting, and access to the block's
// shared memory, the device's constant memory, and the barrier.
//
// A Ctx is owned by exactly one simulated thread and must not escape the
// kernel invocation.
type Ctx struct {
	dev   *Device
	block *blockState

	// BlockIdx, ThreadIdx, BlockDim and GridDim mirror the CUDA built-in
	// variables of the same names.
	BlockIdx  Dim3
	ThreadIdx Dim3
	BlockDim  Dim3
	GridDim   Dim3

	computeCycles uint64
	memCycles     uint64
	counts        counters
}

// blockState is the per-block cooperative state: the __syncthreads
// barrier and the shared-memory slot registry. Its slot arrays outlive
// the block (they belong to a reused block scratch); a slot counts as
// live only once a thread of the current block has asked for it.
type blockState struct {
	barrier *barrier
	mu      sync.Mutex
	shared  sharedSlots[int64]
	sharedF sharedSlots[float64]
}

// reset readies the state for a new block: no barrier, no live slot.
func (b *blockState) reset() {
	b.barrier = nil
	b.shared.reset()
	b.sharedF.reset()
}

// sharedSlots holds one element type's shared-memory arrays, indexed by
// slot. live marks the slots already handed out in the current block.
type sharedSlots[T int64 | float64] struct {
	arrays [][]T
	live   []bool
}

func (s *sharedSlots[T]) reset() { clear(s.live) }

// get returns the slot's array of the given size: zeroed on its first
// use in the block (reusing the capacity of earlier blocks), shared by
// every later call. A later call with another size panics.
func (s *sharedSlots[T]) get(slot, size int) []T {
	for len(s.arrays) <= slot {
		s.arrays = append(s.arrays, nil)
		s.live = append(s.live, false)
	}
	a := s.arrays[slot]
	if s.live[slot] {
		if len(a) != size {
			panic("cudasim: shared slot reallocated with a different size")
		}
		return a
	}
	if cap(a) < size {
		a = make([]T, size)
	} else {
		a = a[:size]
		clear(a)
	}
	s.arrays[slot] = a
	s.live[slot] = true
	return a
}

// GlobalThreadID returns the flattened unique thread index across the
// whole grid, the conventional ensemble-member index of the paper's
// parallel metaheuristics.
func (c *Ctx) GlobalThreadID() int {
	return c.GridDim.Linear(c.BlockIdx)*c.BlockDim.Count() + c.BlockDim.Linear(c.ThreadIdx)
}

// ThreadInBlock returns the flattened thread index within its block.
func (c *Ctx) ThreadInBlock() int { return c.BlockDim.Linear(c.ThreadIdx) }

// WarpID returns the index of the thread's warp within its block; LaneID
// returns its lane within the warp.
func (c *Ctx) WarpID() int { return c.ThreadInBlock() / c.dev.spec.WarpSize }

// LaneID returns the thread's position within its warp.
func (c *Ctx) LaneID() int { return c.ThreadInBlock() % c.dev.spec.WarpSize }

// SyncThreads is the __syncthreads barrier: every thread of the block must
// arrive before any proceeds. It panics on non-cooperative launches, where
// threads run sequentially and a barrier would deadlock silently instead
// of failing loudly.
func (c *Ctx) SyncThreads() {
	if c.block.barrier == nil {
		panic("cudasim: SyncThreads in a non-cooperative launch (set LaunchConfig.Cooperative)")
	}
	c.chargeCompute(CyclesArith)
	c.block.barrier.await()
}

// ChargeArith adds n arithmetic instructions to the thread's compute time.
// Device code calls it to account work done in plain Go between memory
// accesses (e.g. the O(n) fitness evaluation loop).
func (c *Ctx) ChargeArith(n int) {
	c.computeCycles += uint64(n) * CyclesArith
}

// ChargeGlobal accounts n global-memory accesses; coalesced accesses model
// neighbouring threads hitting consecutive addresses.
func (c *Ctx) ChargeGlobal(n int, coalesced bool) {
	if coalesced {
		c.memCycles += uint64(n) * CyclesGlobalCoalesced
	} else {
		c.memCycles += uint64(n) * CyclesGlobalScattered
	}
	c.counts.globalAccesses += uint64(n)
}

// ChargeShared accounts n shared-memory accesses.
func (c *Ctx) ChargeShared(n int) {
	c.memCycles += uint64(n) * CyclesShared
	c.counts.sharedAccesses += uint64(n)
}

func (c *Ctx) chargeCompute(cycles uint64) { c.computeCycles += cycles }

// ConstInt reads a value from simulated constant memory. Constant reads
// are broadcast and effectively register-speed, which is why the paper
// stores d and n there.
func (c *Ctx) ConstInt(name string) int64 {
	c.computeCycles += CyclesConstant
	c.counts.constReads++
	v, ok := c.dev.consts.Load().ints[name]
	if !ok {
		panic("cudasim: constant memory symbol not set: " + name)
	}
	return v
}

// ConstFloat reads a float from simulated constant memory.
func (c *Ctx) ConstFloat(name string) float64 {
	c.computeCycles += CyclesConstant
	c.counts.constReads++
	v, ok := c.dev.consts.Load().floats[name]
	if !ok {
		panic("cudasim: constant memory symbol not set: " + name)
	}
	return v
}

// SharedInt64 returns the block's shared int64 array for the given slot,
// zeroed on its first use in the block. All threads of a block receive the
// same backing array; distinct slots are distinct arrays. Accesses through
// the returned slice are raw — account them with ChargeShared, and order
// cross-thread use with SyncThreads, exactly as on real hardware.
func (c *Ctx) SharedInt64(slot, size int) []int64 {
	b := c.block
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shared.get(slot, size)
}

// SharedFloat64 is SharedInt64 for float64 arrays.
func (c *Ctx) SharedFloat64(slot, size int) []float64 {
	b := c.block
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sharedF.get(slot, size)
}

// barrier is a reusable counting barrier for one block's threads.
type barrier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	size   int
	count  int
	phase  uint64
	broken bool
}

// errBarrierBroken unwinds threads parked at a barrier after a sibling
// thread panicked; the block runner filters it out so only the original
// panic propagates.
var errBarrierBroken = fmt.Errorf("cudasim: block aborted, barrier broken")

func newBarrier(size int) *barrier {
	b := &barrier{size: size}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all threads of the block have arrived, or panics with
// errBarrierBroken if the block was aborted.
func (b *barrier) await() {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		panic(errBarrierBroken)
	}
	phase := b.phase
	b.count++
	if b.count == b.size {
		b.count = 0
		b.phase++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for b.phase == phase && !b.broken {
		b.cond.Wait()
	}
	broken := b.broken
	b.mu.Unlock()
	if broken {
		panic(errBarrierBroken)
	}
}

// breakAll aborts the barrier, waking every parked thread with a panic.
func (b *barrier) breakAll() {
	b.mu.Lock()
	b.broken = true
	b.mu.Unlock()
	b.cond.Broadcast()
}
