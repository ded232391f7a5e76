package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// tailSupported reports whether at least ten of n samples lie beyond
// the p-quantile, the rule for reporting a tail percentile.
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler tracks the peak live Go heap above a baseline: the heap
// the last garbage collection marked reachable (runtime/metrics
// "/gc/heap/live:bytes"), which unlike the heap in use does not swing
// with GC timing. The baseline is the live heap right after a collection
// at the start, so the workload's generated inputs and the state its
// set-up left behind are not counted: only what the measured phases add.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	base uint64
	peak uint64 // written by the sampler goroutine only; read after done
}

const heapMetric = "/gc/heap/live:bytes"

// liveHeap is the live heap the last collection marked.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler collects garbage, takes the baseline and samples the
// heap every millisecond until Stop.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), base: liveHeap()}
	h.peak = h.base
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, liveHeap())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak above the baseline in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak-h.base) / (1 << 20)
}

// heapAllocs is the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
