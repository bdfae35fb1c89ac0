package cudasim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func testDevice() *Device { return NewDevice(GT560M()) }

func TestDim3Roundtrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	property := func(xr, yr, zr uint8, pick uint16) bool {
		d := Dim3{X: int(xr%7) + 1, Y: int(yr%5) + 1, Z: int(zr%3) + 1}
		i := int(pick) % d.Count()
		idx := d.unflatten(i)
		return d.Linear(idx) == i
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func TestDimHelper(t *testing.T) {
	d := Dim(192)
	if d.Count() != 192 || !d.Valid() {
		t.Errorf("Dim(192) = %v", d)
	}
	if (Dim3{X: 0, Y: 1, Z: 1}).Valid() {
		t.Error("zero extent considered valid")
	}
	if got := Dim(4).String(); got != "(4,1,1)" {
		t.Errorf("String() = %q", got)
	}
}

func TestGlobalThreadIDsUniqueAndDense(t *testing.T) {
	d := testDevice()
	const blocks, tpb = 4, 192
	seen := make([]int32, blocks*tpb)
	d.MustLaunch(LaunchConfig{Name: "ids", Grid: Dim(blocks), Block: Dim(tpb)}, func(c *Ctx) {
		atomic.AddInt32(&seen[c.GlobalThreadID()], 1)
	})
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("thread id %d executed %d times", i, v)
		}
	}
}

func TestWarpAndLane(t *testing.T) {
	d := testDevice()
	var bad int32
	d.MustLaunch(LaunchConfig{Name: "warp", Grid: Dim(1), Block: Dim(100)}, func(c *Ctx) {
		tid := c.ThreadInBlock()
		if c.WarpID() != tid/32 || c.LaneID() != tid%32 {
			atomic.AddInt32(&bad, 1)
		}
	})
	if bad != 0 {
		t.Errorf("%d threads had wrong warp/lane ids", bad)
	}
}

// TestSyncThreadsStaging reproduces the paper's fitness-kernel pattern:
// every thread writes one element of shared memory, the block
// synchronizes, then every thread reads all elements. Without a working
// barrier some thread would observe a zero.
func TestSyncThreadsStaging(t *testing.T) {
	d := testDevice()
	const tpb = 192
	var zeros int32
	d.MustLaunch(LaunchConfig{Name: "stage", Grid: Dim(2), Block: Dim(tpb), Cooperative: true}, func(c *Ctx) {
		sh := c.SharedInt64(0, tpb)
		sh[c.ThreadInBlock()] = int64(c.ThreadInBlock()) + 1
		c.ChargeShared(1)
		c.SyncThreads()
		var sum int64
		for _, v := range sh {
			if v == 0 {
				atomic.AddInt32(&zeros, 1)
			}
			sum += v
		}
		c.ChargeShared(tpb)
		if sum != tpb*(tpb+1)/2 {
			atomic.AddInt32(&zeros, 1)
		}
	})
	if zeros != 0 {
		t.Fatalf("barrier failed: %d stale reads", zeros)
	}
}

// TestBarrierReuse drives the same barrier through many phases with
// alternating writers/readers.
func TestBarrierReuse(t *testing.T) {
	d := testDevice()
	const tpb = 64
	const rounds = 50
	var bad int32
	d.MustLaunch(LaunchConfig{Name: "rounds", Grid: Dim(1), Block: Dim(tpb), Cooperative: true}, func(c *Ctx) {
		sh := c.SharedInt64(0, 1)
		for round := 0; round < rounds; round++ {
			if c.ThreadInBlock() == round%tpb {
				sh[0] = int64(round)
			}
			c.SyncThreads()
			if sh[0] != int64(round) {
				atomic.AddInt32(&bad, 1)
			}
			c.SyncThreads()
		}
	})
	if bad != 0 {
		t.Fatalf("%d stale reads across barrier phases", bad)
	}
}

func TestSyncThreadsPanicsWithoutCooperative(t *testing.T) {
	d := testDevice()
	defer func() {
		if recover() == nil {
			t.Error("SyncThreads in non-cooperative launch did not panic")
		}
	}()
	_ = d.Launch(LaunchConfig{Name: "bad", Grid: Dim(1), Block: Dim(2)}, func(c *Ctx) {
		c.SyncThreads()
	})
}

func TestSharedSlotSizeMismatchPanics(t *testing.T) {
	d := testDevice()
	defer func() {
		if recover() == nil {
			t.Error("shared slot size mismatch did not panic")
		}
	}()
	_ = d.Launch(LaunchConfig{Name: "bad", Grid: Dim(1), Block: Dim(1)}, func(c *Ctx) {
		c.SharedInt64(0, 4)
		c.SharedInt64(0, 8)
	})
}

func TestAtomicMinEqualsSerialMin(t *testing.T) {
	d := testDevice()
	const n = 768
	vals := make([]int64, n)
	rng := rand.New(rand.NewSource(7))
	for i := range vals {
		vals[i] = rng.Int63n(1 << 40)
	}
	src := NewBufferFrom(d, vals)
	best := NewBufferFrom(d, []int64{1 << 62})
	d.MustLaunch(LaunchConfig{Name: "reduce", Grid: Dim(4), Block: Dim(192)}, func(c *Ctx) {
		v := src.Load(c, c.GlobalThreadID())
		AtomicMinInt64(c, best, 0, v)
	})
	want := vals[0]
	for _, v := range vals {
		if v < want {
			want = v
		}
	}
	out := make([]int64, 1)
	best.CopyToHost(out)
	if out[0] != want {
		t.Errorf("atomic min = %d, serial min = %d", out[0], want)
	}
}

func TestAtomicAddAndLoadStore(t *testing.T) {
	d := testDevice()
	acc := NewBufferFrom(d, []int64{0, 0})
	d.MustLaunch(LaunchConfig{Name: "add", Grid: Dim(3), Block: Dim(100)}, func(c *Ctx) {
		AtomicAddInt64(c, acc, 0, 1)
		AtomicStoreInt64(c, acc, 1, 7)
		if AtomicLoadInt64(c, acc, 1) != 7 {
			AtomicAddInt64(c, acc, 0, 1<<30) // poison on failure
		}
	})
	out := make([]int64, 2)
	acc.CopyToHost(out)
	if out[0] != 300 {
		t.Errorf("atomic add total = %d, want 300", out[0])
	}
}

func TestConstantMemory(t *testing.T) {
	d := testDevice()
	d.SetConstantInt("d", 16)
	d.SetConstantFloat("mu", 0.88)
	var badI, badF int32
	d.MustLaunch(LaunchConfig{Name: "const", Grid: Dim(2), Block: Dim(32)}, func(c *Ctx) {
		if c.ConstInt("d") != 16 {
			atomic.AddInt32(&badI, 1)
		}
		if c.ConstFloat("mu") != 0.88 {
			atomic.AddInt32(&badF, 1)
		}
	})
	if badI != 0 || badF != 0 {
		t.Errorf("constant reads failed: int=%d float=%d", badI, badF)
	}
}

func TestConstantMissingPanics(t *testing.T) {
	d := testDevice()
	defer func() {
		if recover() == nil {
			t.Error("missing constant did not panic")
		}
	}()
	_ = d.Launch(LaunchConfig{Name: "missing", Grid: Dim(1), Block: Dim(1)}, func(c *Ctx) {
		c.ConstInt("never-set")
	})
}

func TestLaunchValidation(t *testing.T) {
	d := testDevice()
	nop := func(c *Ctx) {}
	cases := []LaunchConfig{
		{Grid: Dim(0), Block: Dim(1)},
		{Grid: Dim(1), Block: Dim3{X: 1, Y: 0, Z: 1}},
		{Grid: Dim(1), Block: Dim(2048)},                            // beyond MaxThreadsPerBlock
		{Grid: Dim(1), Block: Dim(1), SharedBytesPerBlock: 1 << 20}, // beyond shared budget
	}
	for i, cfg := range cases {
		if err := d.Launch(cfg, nop); err == nil {
			t.Errorf("case %d: invalid launch accepted: %+v", i, cfg)
		}
	}
}

func TestBufferHostRoundtrip(t *testing.T) {
	d := testDevice()
	src := []int64{5, 4, 3, 2, 1}
	b := NewBufferFrom(d, src)
	if b.Len() != 5 || b.Bytes() != 40 {
		t.Errorf("Len=%d Bytes=%d", b.Len(), b.Bytes())
	}
	dst := make([]int64, 5)
	b.CopyToHost(dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("roundtrip mismatch at %d", i)
		}
	}
	h2d, d2h := d.Profiler().Transfers()
	if h2d.Count != 1 || h2d.Bytes != 40 {
		t.Errorf("H2D stats = %+v", h2d)
	}
	if d2h.Count != 1 || d2h.Bytes != 40 {
		t.Errorf("D2H stats = %+v", d2h)
	}
	if d.SimTime() <= 0 {
		t.Error("transfers did not advance the simulated clock")
	}
}

// TestTimingMoreWorkTakesLonger checks monotonicity of the model: a kernel
// charging more arithmetic per thread must take longer simulated time.
func TestTimingMoreWorkTakesLonger(t *testing.T) {
	timeFor := func(charge int) float64 {
		d := testDevice()
		d.MustLaunch(LaunchConfig{Name: "w", Grid: Dim(4), Block: Dim(192)}, func(c *Ctx) {
			c.ChargeArith(charge)
		})
		return d.SimTime()
	}
	t1, t2 := timeFor(1000), timeFor(10000)
	if t2 <= t1 {
		t.Errorf("10x work not slower: %g vs %g", t1, t2)
	}
}

// TestTimingBlockSerialization checks the Figure-11 shape: with more
// blocks than SMs, simulated time grows roughly linearly in the number of
// block waves.
func TestTimingBlockSerialization(t *testing.T) {
	timeFor := func(blocks int) float64 {
		d := testDevice()
		d.MustLaunch(LaunchConfig{Name: "w", Grid: Dim(blocks), Block: Dim(192)}, func(c *Ctx) {
			c.ChargeArith(100000)
		})
		return d.SimTime()
	}
	t4, t8, t16 := timeFor(4), timeFor(8), timeFor(16)
	if !(t4 < t8 && t8 < t16) {
		t.Fatalf("no serialization growth: %g %g %g", t4, t8, t16)
	}
	// 16 blocks on 4 SMs is 4 waves: expect ≈ 4× the 1-wave time within
	// slack for the constant launch overhead.
	if ratio := t16 / t4; ratio < 2.5 || ratio > 5 {
		t.Errorf("16-block/4-block ratio = %.2f, want ≈ 4", ratio)
	}
}

// TestTimingRegisterPressure checks the occupancy knob: a launch declaring
// huge register usage hides memory latency worse and must be slower.
func TestTimingRegisterPressure(t *testing.T) {
	timeFor := func(regs int) float64 {
		d := testDevice()
		d.MustLaunch(LaunchConfig{Name: "w", Grid: Dim(4), Block: Dim(192), RegsPerThread: regs}, func(c *Ctx) {
			c.ChargeGlobal(1000, false)
		})
		return d.SimTime()
	}
	light, heavy := timeFor(16), timeFor(256)
	if heavy <= light {
		t.Errorf("register pressure has no effect: light=%g heavy=%g", light, heavy)
	}
}

func TestEventElapsed(t *testing.T) {
	d := testDevice()
	e1 := d.Record()
	d.MustLaunch(LaunchConfig{Name: "w", Grid: Dim(1), Block: Dim(32)}, func(c *Ctx) {
		c.ChargeArith(1000)
	})
	e2 := d.Record()
	if e1.ElapsedSeconds(e2) <= 0 {
		t.Error("event pair measured no elapsed simulated time")
	}
}

func TestProfilerReport(t *testing.T) {
	d := testDevice()
	d.MustLaunch(LaunchConfig{Name: "fitness", Grid: Dim(2), Block: Dim(64)}, func(c *Ctx) {
		c.ChargeArith(10)
		c.ChargeShared(2)
	})
	b := NewBuffer[int64](d, 8)
	b.CopyToHost(make([]int64, 8))
	rep := d.Profiler().Report()
	for _, frag := range []string{"fitness", "H2D", "D2H"} {
		if !strings.Contains(rep, frag) {
			t.Errorf("report missing %q:\n%s", frag, rep)
		}
	}
	ks := d.Profiler().Kernel("fitness")
	if ks.Launches != 1 || ks.Threads != 128 {
		t.Errorf("kernel stats = %+v", ks)
	}
	if ks.SharedAccesses != 2*128 {
		t.Errorf("shared accesses = %d, want 256", ks.SharedAccesses)
	}
	d.Profiler().Reset()
	if got := d.Profiler().Kernel("fitness"); got.Launches != 0 {
		t.Error("Reset did not clear stats")
	}
}

func TestResetSimTime(t *testing.T) {
	d := testDevice()
	d.MustLaunch(LaunchConfig{Name: "w", Grid: Dim(1), Block: Dim(1)}, func(c *Ctx) { c.ChargeArith(5) })
	if d.SimTime() == 0 {
		t.Fatal("no time accumulated")
	}
	d.ResetSimTime()
	if d.SimTime() != 0 {
		t.Error("ResetSimTime did not zero the clock")
	}
}

func TestSpecValidate(t *testing.T) {
	good := GT560M()
	if err := good.Validate(); err != nil {
		t.Fatalf("GT560M spec invalid: %v", err)
	}
	bad := good
	bad.SMs = 0
	if bad.Validate() == nil {
		t.Error("zero-SM spec accepted")
	}
	bad = good
	bad.ClockMHz = 0
	if bad.Validate() == nil {
		t.Error("zero-clock spec accepted")
	}
}

// BenchmarkLaunchOverheadSequential times an empty non-cooperative
// launch in the paper's 4 × 192 geometry and in the 2 × 32 geometry of
// the benchmark module's gpu-ucddcp workload.
func BenchmarkLaunchOverheadSequential(b *testing.B) {
	for _, geo := range []struct{ grid, block int }{{4, 192}, {2, 32}} {
		b.Run(fmt.Sprintf("%dx%d", geo.grid, geo.block), func(b *testing.B) {
			d := testDevice()
			cfg := LaunchConfig{Name: "nop", Grid: Dim(geo.grid), Block: Dim(geo.block)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.MustLaunch(cfg, func(c *Ctx) {})
			}
		})
	}
}

func BenchmarkLaunchOverheadCooperative(b *testing.B) {
	d := testDevice()
	cfg := LaunchConfig{Name: "nop", Grid: Dim(4), Block: Dim(192), Cooperative: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.MustLaunch(cfg, func(c *Ctx) { c.SyncThreads() })
	}
}
