package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it invokes. Name is "<layer>.<call>"; Parent is the
// id of the span that caused it (0 for a root) and Request the id of the
// benchmark request it served ("" when the call cannot be tied to one).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Request string `json:"request,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per call.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	t *tracer
	s span
}

// begin starts a span; end records it.
func (t *tracer) begin(name string, parent int64, request string) *open {
	if t == nil {
		return nil
	}
	return &open{t: t, s: span{
		ID: t.next.Add(1), Parent: parent, Request: request, Name: name,
		StartNs: time.Since(t.epoch).Nanoseconds(),
	}}
}

// id returns the span id to hand to children (0 for a nil span).
func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.s.EndNs = time.Since(o.t.epoch).Nanoseconds()
	o.t.add(o.s)
}

// record adds a span whose interval was measured elsewhere, such as the
// sample-loop time a campaign report states.
func (t *tracer) record(name string, parent int64, request string, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{
		ID: t.next.Add(1), Parent: parent, Request: request, Name: name,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
	})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats is the per-name aggregate of a span set.
type spanStats struct {
	count int
	total time.Duration // summed durations
	self  time.Duration // summed self times
	durs  []time.Duration
}

// aggregate folds spans by name. A span's self time is its duration minus
// the part of its interval that its children cover (overlapping children,
// such as the shards of a fanned-out request, count once).
func aggregate(spans []span) map[string]*spanStats {
	children := map[int64][]*span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	out := map[string]*spanStats{}
	for i := range spans {
		s := &spans[i]
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.count++
		st.total += s.dur()
		st.self += s.dur() - covered(s, children[s.ID])
		st.durs = append(st.durs, s.dur())
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent *span, kids []*span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var sum, curLo, curHi int64 = 0, -1, -1
	for _, v := range ivs {
		if v.lo > curHi {
			sum += curHi - curLo
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	sum += curHi - curLo
	return time.Duration(sum)
}

// selfByLayer sums self time per layer, the span-name prefix before '.'.
func selfByLayer(agg map[string]*spanStats) map[string]time.Duration {
	out := map[string]time.Duration{}
	for name, st := range agg {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += st.self
	}
	return out
}
