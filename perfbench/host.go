package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark was tuned on gives its two vCPUs to other
// tenants for part of the time (steal and SMT contention), and the share
// drifts over minutes, so whole runs come out uniformly slower or faster:
// in ten raw runs of `cluster` the median evaluation ranged from 459 to
// 689 ms. A fixed CPU-bound reference kernel, independent of the program
// and timed throughout the run on the same threads, slows down in step.
// Every wall-clock figure the benchmark reports is therefore multiplied by
// refNominalMS / (median reference time of the run): it reads as the time
// on a host where the reference takes refNominalMS. Modeled times, counts
// and ratios are not scaled. The raw figures are printed as notes.
const (
	// The reference run is refChunks × refChunkIters pair terms.
	refChunks     = 100
	refChunkIters = 20_000
	// refNominalMS is the reference time the figures are scaled to.
	refNominalMS = 20.0
	// refShare is the share of the measured time spent re-sampling the
	// reference between evaluations.
	refShare = 0.02
)

// hostRef samples the reference kernel's wall time over a run.
type hostRef struct {
	threads int
	ms      []float64
}

// sampleFor times the reference kernel repeatedly, spending about
// refShare of d (the wall time of the last evaluation) and at least one
// run on it, so long evaluations get as many samples per second as short
// ones.
func (h *hostRef) sampleFor(d time.Duration) {
	budget := time.Duration(float64(d) * refShare)
	for t0 := time.Now(); ; {
		h.sample()
		if time.Since(t0) >= budget {
			return
		}
	}
}

// sample times one run of the reference kernel: refChunks chunks of
// refChunkIters pair terms, claimed by the threads from a shared counter,
// so a thread slowed by the host sheds work to the other as the program's
// work-stealing pool does.
func (h *hostRef) sample() {
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	sums := make([]float64, h.threads)
	for t := range sums {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for next.Add(1) <= refChunks {
				sums[t] += refKernel(refChunkIters)
			}
		}(t)
	}
	wg.Wait()
	h.ms = append(h.ms, msSince(t0))
	refSink = sums[0]
}

// factor converts this run's wall-clock times to the nominal host speed.
func (h *hostRef) factor() float64 {
	if m := median(h.ms); m > 0 {
		return refNominalMS / m
	}
	return 1
}

// refSink keeps the reference kernel's result alive.
var refSink float64

// refKernel evaluates n generalized-Born pair terms, the arithmetic the
// program's kernels spend most of their time in.
func refKernel(n int) float64 {
	r2, ri, rj := 9.0, 1.7, 2.1
	var sum float64
	for i := 0; i < n; i++ {
		rr := ri * rj
		sum += 1 / math.Sqrt(r2+rr*math.Exp(-r2/(4*rr)))
		r2 += 1e-7
	}
	return sum
}
