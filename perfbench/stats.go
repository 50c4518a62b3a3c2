package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// tailLadder is the set of percentiles a tail is chosen from, highest
// first: the tail is the highest one with at least minBeyond samples
// above it, so a short run reports a lower but still meaningful tail
// instead of a single-sample maximum.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// gatedTailPct is the fixed percentile behind the gated op_tail_ms.
// The ladder's choice moves with the sample count (a fleet-api run
// with 9,990 or 10,010 status reads gets p99 or p99.9), so a gated
// number uses one percentile that every workload's full-length run has
// at least minBeyond samples beyond: replicate-sparse takes the fewest
// operations, about 150 checkpoints in 20 s.
const gatedTailPct = 90

// samples is a set of wall-clock durations.
type samples []time.Duration

// percentile returns the nearest-rank p-th percentile (0 when empty).
func (s samples) percentile(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := nearestRank(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n values;
// the epsilon keeps 99.9% of 10000 at 9990 despite float rounding.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

func (s samples) median() time.Duration { return s.percentile(50) }

// tail returns the highest ladder percentile with at least minBeyond
// samples beyond it, and that percentile. With too few samples it
// returns the maximum and percentile 100.
func (s samples) tail() (time.Duration, float64) {
	n := len(s)
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= minBeyond {
			return s.percentile(p), p
		}
	}
	return s.percentile(100), 100
}

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat returns the median of xs (0 when empty).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration { return samples(ds).median() }

// heapSampler records the live heap each GC cycle marks (garbage
// awaiting collection does not count) while it runs, polling
// runtime/metrics (no stop-the-world) every few milliseconds.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	live []float64 // MiB, one per GC cycle seen
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	var cycles uint64
	read := func(force bool) {
		metrics.Read(sample)
		if c := sample[0].Value.Uint64(); c != cycles || force {
			cycles = c
			h.live = append(h.live, float64(sample[1].Value.Uint64())/(1<<20))
		}
	}
	read(true)
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read(false)
				return
			case <-t.C:
				read(false)
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak live heap over the
// GC cycles seen, in MiB.
func (h *heapSampler) finish() (peak float64) {
	close(h.stop)
	<-h.done
	for _, v := range h.live {
		peak = max(peak, v)
	}
	return peak
}

// retainedHeapMB collects garbage and returns the live heap in MiB:
// what the system under test holds once its transient allocations are
// gone. It depends on the state the program keeps, not on where the
// GC pacer happened to be, so it repeats closely from run to run.
func retainedHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// gcWindow brackets a measured interval with runtime.MemStats reads.
type gcWindow struct {
	start runtime.MemStats
	t0    time.Time
}

func startGCWindow() *gcWindow {
	w := &gcWindow{t0: time.Now()}
	runtime.ReadMemStats(&w.start)
	return w
}

// gcDelta is what the Go runtime did during a window.
type gcDelta struct {
	cycles  uint32
	pause   time.Duration
	allocMB float64
	elapsed time.Duration
}

func (w *gcWindow) finish() gcDelta {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return gcDelta{
		cycles:  end.NumGC - w.start.NumGC,
		pause:   time.Duration(end.PauseTotalNs - w.start.PauseTotalNs),
		allocMB: float64(end.TotalAlloc-w.start.TotalAlloc) / (1 << 20),
		elapsed: time.Since(w.t0),
	}
}

// latencyLog collects durations from several goroutines.
type latencyLog struct {
	mu sync.Mutex
	s  samples
}

func (l *latencyLog) add(d time.Duration) {
	l.mu.Lock()
	l.s = append(l.s, d)
	l.mu.Unlock()
}

func (l *latencyLog) samples() samples {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(samples(nil), l.s...)
}

// tailName renders a ladder percentile as a label: 99.9 → "p99.9".
func tailName(p float64) string { return fmt.Sprintf("p%g", p) }
