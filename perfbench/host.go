package main

import (
	"bytes"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// stealClock turns wall-clock intervals into steal-free ones. On a shared
// VM the hypervisor runs other tenants on this guest's CPUs, and the time
// it takes away (steal) stretches every wall-clock figure by as much as
// half. The guest kernel counts that time per CPU in /proc/stat, apart
// from the time the guest itself spends busy or idle. The clock samples
// those counters every tick and, over each window, charges as lost the
// window's length times the stolen share of its non-idle time: a busy CPU
// stolen for a third of the window did two thirds of a window's work, and
// an idle CPU is never stolen from. The counters belong to the host and
// the kernel, not to the program, so the correction cannot hide a
// regression of the program's own.
type stealClock struct {
	start time.Time
	stop  chan struct{}
	done  chan struct{}

	mu  sync.Mutex
	at  []time.Duration // sample times since start
	sum []float64       // cumulative lost seconds at each sample
	// busyD and stoD are the busy and stolen ticks of the interval that
	// ends at each sample.
	busyD, stoD []uint64
	// ok is false where /proc/stat cannot be read; no interval is then
	// corrected.
	ok              bool
	busy, stolen    uint64 // counters at the last sample, in ticks
	busyAll, stoAll uint64 // totals over the clock's life
}

func startStealClock(every time.Duration) *stealClock {
	c := &stealClock{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	c.busy, c.stolen, c.ok = readCPUStat()
	c.at, c.sum = []time.Duration{0}, []float64{0}
	c.busyD, c.stoD = []uint64{0}, []uint64{0}
	go func() {
		defer close(c.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				c.sample()
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *stealClock) sample() {
	now := time.Since(c.start)
	busy, stolen, ok := readCPUStat()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok || !c.ok {
		c.ok = false
		return
	}
	last := len(c.at) - 1
	db, ds := busy-c.busy, stolen-c.stolen
	lost := 0.0
	if db+ds > 0 {
		lost = (now - c.at[last]).Seconds() * float64(ds) / float64(db+ds)
	}
	c.busy, c.stolen = busy, stolen
	c.busyAll += db
	c.stoAll += ds
	c.at = append(c.at, now)
	c.sum = append(c.sum, c.sum[last]+lost)
	c.busyD = append(c.busyD, db)
	c.stoD = append(c.stoD, ds)
}

// close stops the sampler and waits for it.
func (c *stealClock) close() {
	close(c.stop)
	<-c.done
}

// lostAt is the cumulative lost time at t, interpolated between samples.
func (c *stealClock) lostAt(t time.Time) float64 {
	d := t.Sub(c.start)
	i := sort.Search(len(c.at), func(i int) bool { return c.at[i] >= d })
	switch {
	case i == 0:
		return 0
	case i == len(c.at):
		return c.sum[len(c.sum)-1]
	}
	lo, hi := c.at[i-1], c.at[i]
	f := float64(d-lo) / float64(hi-lo)
	return c.sum[i-1] + f*(c.sum[i]-c.sum[i-1])
}

// span returns the steal-free length of [from, to].
func (c *stealClock) span(from, to time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	wall := to.Sub(from)
	if !c.ok {
		return wall
	}
	lost := time.Duration((c.lostAt(to) - c.lostAt(from)) * float64(time.Second))
	return max(wall-lost, wall/10)
}

// calmWindows cuts [from, to] into whole windows of length w and returns
// the calmer half of them (at least one), in time order: those whose
// stolen share of non-idle CPU time is lowest. Without steal counters
// every window is calm.
func (c *stealClock) calmWindows(from, to time.Time, w time.Duration) [][2]time.Time {
	n := int(to.Sub(from) / w)
	if n == 0 {
		n, w = 1, to.Sub(from)
	}
	type window struct {
		i     int
		share float64
	}
	wins := make([]window, n)
	busy, stolen := make([]uint64, n), make([]uint64, n)
	c.mu.Lock()
	for j, at := range c.at {
		if k := int((c.start.Add(at).Sub(from) - 1) / w); k >= 0 && k < n {
			busy[k] += c.busyD[j]
			stolen[k] += c.stoD[j]
		}
	}
	ok := c.ok
	c.mu.Unlock()
	for k := range wins {
		wins[k] = window{k, ratio(float64(stolen[k]), float64(busy[k]+stolen[k]))}
	}
	keep := n
	if ok {
		sort.SliceStable(wins, func(a, b int) bool { return wins[a].share < wins[b].share })
		keep = (n + 1) / 2
	}
	out := make([][2]time.Time, 0, keep)
	for _, win := range wins[:keep] {
		out = append(out, [2]time.Time{from.Add(time.Duration(win.i) * w), from.Add(time.Duration(win.i+1) * w)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0].Before(out[b][0]) })
	return out
}

// stealShare is the stolen share of non-idle CPU time over the clock's
// life so far (0 when it cannot be read).
func (c *stealClock) stealShare() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ratio(float64(c.stoAll), float64(c.busyAll+c.stoAll))
}

// readCPUStat returns the all-CPU busy and steal counters of /proc/stat,
// in clock ticks. Busy is user + nice + system + irq + softirq.
func readCPUStat() (busy, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, false
	}
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(string(f[i+1]), 10, 64); err != nil {
			return 0, 0, false
		}
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], true
}
