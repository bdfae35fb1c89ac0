package cudasim

import (
	"sync/atomic"
	"unsafe"
)

// Buffer is a typed global-memory allocation on a simulated device,
// mirroring a cudaMalloc'd array. Host code moves data with CopyFromHost
// and CopyToHost (which advance the simulated clock by the PCIe transfer
// model); device code reads and writes through Load/Store (which charge
// global-memory latency) or — in hot loops — through Raw combined with an
// explicit ChargeGlobal.
type Buffer[T any] struct {
	dev  *Device
	data []T
}

// NewBuffer allocates a device buffer of n elements; it panics when the
// device is out of memory (use TryNewBuffer to handle that case).
func NewBuffer[T any](d *Device, n int) *Buffer[T] {
	b, err := TryNewBuffer[T](d, n)
	if err != nil {
		panic(err)
	}
	return b
}

// TryNewBuffer allocates a device buffer of n elements, failing when the
// device's memory capacity would be exceeded (cudaMalloc semantics).
func TryNewBuffer[T any](d *Device, n int) (*Buffer[T], error) {
	var zero T
	if err := d.reserve(int64(n) * int64(unsafe.Sizeof(zero))); err != nil {
		return nil, err
	}
	return &Buffer[T]{dev: d, data: make([]T, n)}, nil
}

// Free releases the buffer's device memory. Using the buffer after Free
// is a bug (the backing store is dropped to surface it).
func (b *Buffer[T]) Free() {
	b.dev.release(int64(b.Bytes()))
	b.data = nil
}

// NewBufferFrom allocates a device buffer and fills it from src with a
// timed host-to-device copy.
func NewBufferFrom[T any](d *Device, src []T) *Buffer[T] {
	b := NewBuffer[T](d, len(src))
	b.CopyFromHost(src)
	return b
}

// Len returns the element count.
func (b *Buffer[T]) Len() int { return len(b.data) }

// Bytes returns the allocation size in bytes.
func (b *Buffer[T]) Bytes() int {
	var zero T
	return len(b.data) * int(unsafe.Sizeof(zero))
}

// CopyFromHost copies src into the buffer (host → device), advancing the
// simulated clock by the transfer model. len(src) must not exceed Len.
func (b *Buffer[T]) CopyFromHost(src []T) {
	copy(b.data, src)
	var zero T
	b.dev.chargeTransfer(len(src)*int(unsafe.Sizeof(zero)), true)
}

// CopyToHost copies the buffer into dst (device → host) with transfer
// accounting.
func (b *Buffer[T]) CopyToHost(dst []T) {
	copy(dst, b.data)
	var zero T
	b.dev.chargeTransfer(len(dst)*int(unsafe.Sizeof(zero)), false)
}

// Load reads element i from device code, charging one coalesced global
// access.
func (b *Buffer[T]) Load(c *Ctx, i int) T {
	c.ChargeGlobal(1, true)
	return b.data[i]
}

// Store writes element i from device code, charging one coalesced global
// access.
func (b *Buffer[T]) Store(c *Ctx, i int, v T) {
	c.ChargeGlobal(1, true)
	b.data[i] = v
}

// CopyRegionToHost copies len(dst) elements starting at element offset to
// the host with transfer accounting — the analogue of a cudaMemcpy from a
// sub-range (e.g. fetching only the winning thread's sequence back, as in
// Figure 9 of the paper).
func (b *Buffer[T]) CopyRegionToHost(dst []T, offset int) {
	copy(dst, b.data[offset:])
	var zero T
	b.dev.chargeTransfer(len(dst)*int(unsafe.Sizeof(zero)), false)
}

// Raw exposes the backing slice for device hot loops; callers account the
// traffic themselves via Ctx.ChargeGlobal. As on real hardware, concurrent
// unsynchronized access to the same element is a race.
func (b *Buffer[T]) Raw() []T { return b.data }

// AtomicMinInt64 performs an atomic minimum on element i of an int64
// buffer, the reduction primitive of the paper's fourth kernel (resolved
// in the L2 cache on real hardware, hence the serialized cost). It returns
// the value previously stored.
func AtomicMinInt64(c *Ctx, b *Buffer[int64], i int, v int64) int64 {
	c.memCycles += CyclesAtomic
	c.counts.atomics++
	addr := &b.data[i]
	for {
		old := atomic.LoadInt64(addr)
		if v >= old {
			return old
		}
		if atomic.CompareAndSwapInt64(addr, old, v) {
			return old
		}
	}
}

// AtomicAddInt64 atomically adds v to element i and returns the previous
// value.
func AtomicAddInt64(c *Ctx, b *Buffer[int64], i int, v int64) int64 {
	c.memCycles += CyclesAtomic
	c.counts.atomics++
	return atomic.AddInt64(&b.data[i], v) - v
}

// AtomicStoreInt64 atomically stores v into element i.
func AtomicStoreInt64(c *Ctx, b *Buffer[int64], i int, v int64) {
	c.memCycles += CyclesAtomic
	c.counts.atomics++
	atomic.StoreInt64(&b.data[i], v)
}

// AtomicLoadInt64 atomically reads element i.
func AtomicLoadInt64(c *Ctx, b *Buffer[int64], i int) int64 {
	c.memCycles += CyclesAtomic
	c.counts.atomics++
	return atomic.LoadInt64(&b.data[i])
}
