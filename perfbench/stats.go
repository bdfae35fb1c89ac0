package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// minTail is the fewest samples a reported tail percentile must have
// beyond it.
const minTail = 10

// rankOf is the nearest-rank index of percentile q (0 < q < 1) in n
// sorted samples.
func rankOf(q float64, n int) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// beyond is the number of samples ranked above percentile q.
func beyond(q float64, n int) int { return n - 1 - rankOf(q, n) }

// minSamples is the smallest sample count whose percentile q has at
// least minTail samples beyond it.
func minSamples(q float64) int {
	n := 1
	for beyond(q, n) < minTail {
		n++
	}
	return n
}

// tail returns percentile q of the samples, or an error when fewer than
// minTail samples lie beyond it — such a tail is not reported.
func tail(sorted []float64, q float64) (float64, error) {
	if b := beyond(q, len(sorted)); b < minTail {
		return 0, fmt.Errorf("p%g has %d samples beyond it (need %d)", q*100, b, minTail)
	}
	return sorted[rankOf(q, len(sorted))], nil
}

// windowTail is percentile q per window of minSamples(q) consecutive
// ops, its median over the run's whole windows. Every window's value has
// minTail samples beyond it, and a stall that hits a minority of the
// windows does not move the result. lat is in op order.
func windowTail(lat []float64, q float64) (float64, error) {
	size := minSamples(q)
	if len(lat) < size {
		return 0, fmt.Errorf("p%g needs %d samples, the run has %d", q*100, size, len(lat))
	}
	per := make([]float64, 0, len(lat)/size)
	w := make([]float64, size)
	for i := 0; i+size <= len(lat); i += size {
		copy(w, lat[i:i+size])
		sort.Float64s(w)
		v, err := tail(w, q)
		if err != nil {
			return 0, err
		}
		per = append(per, v)
	}
	return median(per), nil
}

// median of samples; the slice is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// gapPct is the percentage by which cost exceeds the reference. The
// denominator is at least 1, so a zero optimum (EARLYWORK's late work
// can be 0) still gives a finite gap; costs are integers, so a nonzero
// excess over a zero reference reads as at least 100%.
func gapPct(cost, ref int64) float64 {
	den := ref
	if den < 0 {
		den = -den
	}
	if den < 1 {
		den = 1
	}
	return 100 * float64(cost-ref) / float64(den)
}

// sampler marks the completed-op count and the process CPU time at a
// fixed period while a loop runs, so throughput and CPU time per op are
// medians over windows: like windowTail, a stall that hits a minority of
// the windows does not move them.
type sampler struct {
	done  atomic.Int64 // ops completed so far
	stop  chan struct{}
	wg    sync.WaitGroup
	marks []mark
}

type mark struct {
	at  time.Time
	ops int64
	cpu time.Duration
}

func (s *sampler) mark() mark { return mark{time.Now(), s.done.Load(), cpuTime()} }

// startSampler marks now and then every period until finish.
func startSampler(period time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.marks = append(s.marks, s.mark())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.marks = append(s.marks, s.mark())
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median ops per second and CPU
// time per op over the whole windows; a run shorter than one window
// counts as one.
func (s *sampler) finish() (opsPerS float64, cpuPerOp time.Duration) {
	close(s.stop)
	s.wg.Wait()
	marks := s.marks
	if len(marks) < 2 {
		marks = append(marks, s.mark())
	}
	var rates, cpus []float64
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		ops := b.ops - a.ops
		rates = append(rates, float64(ops)/b.at.Sub(a.at).Seconds())
		if ops > 0 {
			cpus = append(cpus, float64(b.cpu-a.cpu)/float64(ops))
		}
	}
	return median(rates), time.Duration(median(cpus))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	must(syscall.Getrusage(syscall.RUSAGE_SELF, &ru))
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	must(syscall.Getrusage(syscall.RUSAGE_SELF, &ru))
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
