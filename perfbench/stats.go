package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rtSample is one read of the runtime counters the benchmark reports.
type rtSample struct {
	allocBytes uint64  // cumulative heap bytes allocated
	liveBytes  uint64  // live heap after the most recent GC
	gcCPU      float64 // cumulative GC CPU seconds
	totalCPU   float64 // cumulative CPU seconds available to the process
	procCPU    float64 // user + system CPU seconds the process used (rusage)
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return rtSample{
		procCPU:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		allocBytes: s[0].Value.Uint64(),
		liveBytes:  s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// heapWatch records the live heap after every GC cycle: a finalizer on a
// sentinel object runs once per cycle that finds the sentinel
// unreachable, reads the live heap and arms a fresh sentinel.
type heapWatch struct {
	mu      sync.Mutex
	stopped bool
	at      []time.Time
	live    []float64 // MB
}

// sentinel must hold a pointer, so it is not batched with other objects
// by the tiny allocator, whose finalizers may never run.
type sentinel struct{ h *heapWatch }

func watchHeap() *heapWatch {
	h := &heapWatch{}
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{h}, func(s *sentinel) {
		if s.h.observe() {
			s.h.arm()
		}
	})
}

// observe records the current live heap and reports whether the watch
// is still running.
func (h *heapWatch) observe() bool {
	mb := float64(readRuntime().liveBytes) / 1e6
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopped {
		return false
	}
	h.at = append(h.at, time.Now())
	h.live = append(h.live, mb)
	return true
}

// close stops the watch after one last cycle.
func (h *heapWatch) close() {
	runtime.GC()
	h.observe()
	h.mu.Lock()
	h.stopped = true
	h.mu.Unlock()
}

// between returns the live heap of the cycles that ended in [from, to].
func (h *heapWatch) between(from, to time.Time) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []float64
	for i, t := range h.at {
		if !t.Before(from) && !t.After(to) {
			out = append(out, h.live[i])
		}
	}
	return out
}

// allocsPerCall runs fn n times and returns the mean heap bytes it
// allocated per call, from runtime.MemStats deltas.
func allocsPerCall(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}
