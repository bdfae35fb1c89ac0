package cudasim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Launches reuse their blocks' host memory (thread contexts, shared
// slots) across launches and across the blocks one goroutine runs. These
// tests pin that the reuse is invisible to device code.

// writeShared fills shared slot 0 with a non-zero pattern.
func writeShared(c *Ctx) {
	sh := c.SharedInt64(0, 16)
	for i := range sh {
		sh[i] = int64(i + 1)
	}
}

func TestSharedMemoryZeroedAcrossLaunches(t *testing.T) {
	d := testDevice()
	cfg := LaunchConfig{Name: "shared", Grid: Dim(8), Block: Dim(4)}
	d.MustLaunch(cfg, writeShared)
	var dirty int32
	d.MustLaunch(cfg, func(c *Ctx) {
		if c.ThreadInBlock() != 0 {
			return
		}
		// Thread 0 runs first in its block: every block must see the
		// slot zeroed, whatever earlier blocks on this goroutine or the
		// previous launch left in it.
		for _, v := range c.SharedInt64(0, 16) {
			if v != 0 {
				atomic.AddInt32(&dirty, 1)
			}
		}
		writeShared(c)
	})
	if dirty != 0 {
		t.Errorf("%d shared words carried over from an earlier block", dirty)
	}
}

func TestSharedSlotResizedAcrossLaunches(t *testing.T) {
	d := testDevice()
	for _, size := range []int{4, 64, 2} {
		var bad int32
		d.MustLaunch(LaunchConfig{Name: "resize", Grid: Dim(2), Block: Dim(2)}, func(c *Ctx) {
			sh := c.SharedFloat64(0, size)
			if len(sh) != size {
				atomic.AddInt32(&bad, 1)
			}
			for _, v := range sh {
				if v != 0 && c.ThreadInBlock() == 0 {
					atomic.AddInt32(&bad, 1)
				}
			}
			if c.ThreadInBlock() == 0 {
				for i := range sh {
					sh[i] = 1
				}
			}
		})
		if bad != 0 {
			t.Errorf("slot 0 at size %d: %d bad reads", size, bad)
		}
	}
}

func TestLaunchAfterPanic(t *testing.T) {
	for _, coop := range []bool{false, true} {
		d := testDevice()
		cfg := LaunchConfig{Name: "after-panic", Grid: Dim(4), Block: Dim(8), Cooperative: coop}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cooperative=%v: device panic not re-raised", coop)
				}
			}()
			_ = d.Launch(cfg, func(c *Ctx) {
				if c.ThreadInBlock() == 0 {
					writeShared(c)
				}
				if c.GlobalThreadID() == 13 {
					panic("device assert")
				}
			})
		}()
		seen := make([]int32, 32)
		var dirty int32
		d.MustLaunch(cfg, func(c *Ctx) {
			atomic.AddInt32(&seen[c.GlobalThreadID()], 1)
			if c.ThreadInBlock() == 0 && c.SharedInt64(0, 16)[0] != 0 {
				atomic.AddInt32(&dirty, 1)
			}
		})
		for tid, v := range seen {
			if v != 1 {
				t.Errorf("cooperative=%v: thread %d ran %d times after a panicked launch", coop, tid, v)
			}
		}
		if dirty != 0 {
			t.Errorf("cooperative=%v: %d blocks saw shared memory of the panicked launch", coop, dirty)
		}
	}
}

// TestConcurrentLaunches runs two goroutines' launches on one device,
// alongside constant-memory writes; run it under -race.
func TestConcurrentLaunches(t *testing.T) {
	d := testDevice()
	d.SetConstantInt("d", 7)
	d.SetConstantFloat("T", 1)
	var wg sync.WaitGroup
	var bad atomic.Int32
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := NewBuffer[int64](d, 3*16)
			for it := 0; it < 50; it++ {
				d.SetConstantFloat("T", float64(it))
				d.MustLaunch(LaunchConfig{Name: "concurrent", Grid: Dim(3), Block: Dim(16)}, func(c *Ctx) {
					sh := c.SharedInt64(g, 16)
					sh[c.ThreadInBlock()] = int64(c.GlobalThreadID())
					if c.ConstInt("d") != 7 || c.ConstFloat("T") < 0 {
						bad.Add(1)
					}
					out.Store(c, c.GlobalThreadID(), sh[c.ThreadInBlock()]+int64(it))
				})
				for tid, v := range out.Raw() {
					if v != int64(tid+it) {
						bad.Add(1)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Errorf("%d wrong values under concurrent launches", bad.Load())
	}
}

func nopKernel(c *Ctx) {}

// warmLaunchAllocs returns the heap objects (as testing.AllocsPerRun
// counts them) and the mean bytes one warmed non-cooperative launch of
// the given geometry allocates. Stray runtime allocations only add to a
// round's count, so the least of a few rounds is the launch's own.
func warmLaunchAllocs(grid, block int) (objects, bytes float64) {
	const rounds, runs = 5, 100
	d := testDevice()
	cfg := LaunchConfig{Name: "nop", Grid: Dim(grid), Block: Dim(block)}
	launch := func() { d.MustLaunch(cfg, nopKernel) }
	launch()
	objects, bytes = math.Inf(1), math.Inf(1)
	for r := 0; r < rounds; r++ {
		objects = min(objects, testing.AllocsPerRun(runs, launch))
		bytes = min(bytes, launchBytes(runs, launch))
	}
	return objects, bytes
}

// launchBytes returns the mean heap bytes allocated by runs calls of
// launch, measured on one P like testing.AllocsPerRun, so the runtime's
// own goroutine bookkeeping stays out of the count.
func launchBytes(runs int, launch func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		launch()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestLaunchAllocsIndependentOfBlockSize checks that a warmed
// non-cooperative launch allocates nothing per thread: the same object
// count, and the same bytes give or take the odd runtime allocation, at
// 32 and at 256 threads per block.
func TestLaunchAllocsIndependentOfBlockSize(t *testing.T) {
	o32, b32 := warmLaunchAllocs(4, 32)
	o256, b256 := warmLaunchAllocs(4, 256)
	if o32 != o256 {
		t.Errorf("objects per launch: %v at Block 32, %v at Block 256", o32, o256)
	}
	if b256 > b32+64 {
		t.Errorf("bytes per launch: %v at Block 32, %v at Block 256", b32, b256)
	}
}
