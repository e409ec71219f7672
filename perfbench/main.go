// Command perfbench is the repository's end-to-end and per-layer
// benchmark: fault-injection campaigns run in process and served through
// the front door, with every report checked against the cold oracle path.
//
//	perfbench --workload campaign-short --seed 1 --seconds 16 --trace 0
//
// Run it from the repository root through run.sh, which builds it. The
// last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, and the
// spans are written under .bench_build/perfbench. README.md lists the
// workloads, the metrics and what each one should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/comp"
	"repro/internal/obs"
	"repro/internal/session"
)

// outDir holds span and result files, relative to the repository root.
const outDir = ".bench_build/perfbench"

// request is one campaign batch a client sends: a single campaign on one
// session key.
type request struct {
	client, seq int
	key         session.Key
	seed        int64
	samples     int
	// fanout > 1 shards the campaign over that many replicas.
	fanout int
	// repeat marks a cell this client already sent earlier, so the
	// graph cache must answer it.
	repeat bool
}

func (r request) id() string { return fmt.Sprintf("%d/%d", r.client, r.seq) }

// result is what a system returned for one request.
type result struct {
	samples  int
	report   string        // inject.FormatNormalized rendering
	elapsed  time.Duration // sample-loop time the report states; 0 when cached
	executed int
	cached   bool
	compiled comp.Stats
	// skew is slowest ÷ median inject/workerN span (traced campaigns).
	skew float64
}

// system is one set-up instance of a workload's program.
type system interface {
	do(ctx context.Context, tr *tracer, r request) (result, error)
	// snapshot returns the layer counters and spans the program itself
	// kept (session, graph and artifact accounting).
	snapshot() *obs.Snapshot
	close()
}

// workload is one named traffic mix.
type workload struct {
	name    string
	clients int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// digestN is how many leading requests of each client the run
	// digest covers.
	digestN int
	// warmup is how many requests each client sends before the timed
	// phase (at least digestN and every oracle-checked request).
	warmup int
	keys   []session.Key
	gen    func(seed int64, client int) func() request
	setup  func(ctx context.Context, tr *tracer) (system, error)
	// oracle picks the requests of client 0's sequence (by seq) that are
	// re-run on the oracle path after the timed phase.
	oracle func(first []request) []int
}

// outcome is one finished request of a phase.
type outcome struct {
	req         request
	res         result
	start, stop time.Time
	err         error
	digest      string // sha256 of the normalized report
}

func (o outcome) wall() time.Duration { return o.stop.Sub(o.start) }

// phase is one closed-loop run.
type phase struct {
	start, stop   time.Time
	done          [][]outcome // per client, in send order
	before, after rtSample
}

// runPhase drives every client in a closed loop, each on its own request
// stream, for dur and past it until client c has finished need[c]
// requests (need may be nil). With keep the reports' text is kept for the
// oracle check.
func runPhase(ctx context.Context, sys system, tr *tracer, gens []func() request, dur time.Duration, need []int, keep bool) *phase {
	p := &phase{done: make([][]outcome, len(gens))}
	p.before = readRuntime()
	p.start = time.Now()
	var wg sync.WaitGroup
	for c := range gens {
		n := 0
		if need != nil {
			n = need[c]
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			for j := 0; time.Since(p.start) < dur || j < n; j++ {
				r := gens[c]()
				o := outcome{req: r, start: time.Now()}
				o.res, o.err = sys.do(ctx, tr, r)
				o.stop = time.Now()
				if o.err == nil {
					sum := sha256.Sum256([]byte(o.res.report))
					o.digest = hex.EncodeToString(sum[:])
				}
				if !keep {
					o.res.report = ""
				}
				p.done[c] = append(p.done[c], o)
			}
		}(c, n)
	}
	wg.Wait()
	p.stop = time.Now()
	p.after = readRuntime()
	return p
}

// streams returns each client's request stream for the seed.
func streams(wl *workload, seed int64) []func() request {
	gens := make([]func() request, wl.clients)
	for c := range gens {
		gens[c] = wl.gen(seed, c)
	}
	return gens
}

func (p *phase) all() []outcome {
	var out []outcome
	for _, d := range p.done {
		out = append(out, d...)
	}
	return out
}

// totals returns attempted and failed requests and classified samples.
func (p *phase) totals() (attempted, failed, samples int) {
	for _, o := range p.all() {
		attempted++
		if o.err != nil {
			failed++
			continue
		}
		samples += o.res.samples
	}
	return
}

// timing is a phase's throughput and latency figures.
type timing struct {
	rate, p50, p90 float64
	requests       int
}

// timingOf measures the successful requests of outs over elapsed, timing
// each request with span.
func timingOf(outs []outcome, elapsed time.Duration, span func(from, to time.Time) time.Duration) timing {
	samples := 0
	var lats []float64
	for _, o := range outs {
		if o.err == nil {
			samples += o.res.samples
			lats = append(lats, ms(span(o.start, o.stop)))
		}
	}
	return timing{
		rate: float64(samples) / elapsed.Seconds(),
		p50:  quantile(lats, 0.5), p90: quantile(lats, 0.9), requests: len(lats),
	}
}

// wallTiming is the whole phase in wall-clock time.
func (p *phase) wallTiming() timing {
	return timingOf(p.all(), p.stop.Sub(p.start), func(from, to time.Time) time.Duration { return to.Sub(from) })
}

// calmWindow is the length of the windows calmTiming ranks.
const calmWindow = time.Second

// calmTiming is the phase in steal-free time, over the calmer half of its
// one-second windows: those whose stolen share of non-idle CPU time is
// lowest. A request counts in the window it completes in. The ranking
// reads only the host's steal counters, never the program's progress, so
// every request of a kept window counts however slow it was.
func (p *phase) calmTiming(c *stealClock) timing {
	wins := c.calmWindows(p.start, p.stop, calmWindow)
	var elapsed time.Duration
	for _, w := range wins {
		elapsed += c.span(w[0], w[1])
	}
	var outs []outcome
	for _, o := range p.all() {
		for _, w := range wins {
			if o.stop.After(w[0]) && !o.stop.After(w[1]) {
				outs = append(outs, o)
				break
			}
		}
	}
	return timingOf(outs, elapsed, c.span)
}

// runDigest hashes the per-request digests of each client's first n
// requests, keyed by request index; it is equal across runs and commits
// at the same seed.
func runDigest(p *phase, n int) (string, map[string]string) {
	per := map[string]string{}
	h := sha256.New()
	for _, d := range p.done {
		for _, o := range d[:min(n, len(d))] {
			per[o.req.id()] = o.digest
			fmt.Fprintf(h, "%s\t%s\n", o.req.id(), o.digest)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), per
}

// checkReports checks every successful report of the phases: it must
// classify the samples asked for, and every campaign cell (session key,
// seed, samples) must get the same report each time it is asked, whether
// executed, fanned out or answered from the graph cache. It returns the
// number of reports that fail.
func checkReports(phases ...*phase) int {
	bad := 0
	first := map[string]outcome{}
	for _, p := range phases {
		for _, o := range p.all() {
			if o.err != nil {
				continue
			}
			cell := fmt.Sprintf("%s|%d|%d", o.req.key, o.req.seed, o.req.samples)
			f, seen := first[cell]
			switch {
			case o.res.samples != o.req.samples:
				fmt.Fprintf(os.Stderr, "perfbench: request %s classified %d samples of %d\n", o.req.id(), o.res.samples, o.req.samples)
			case seen && f.digest != o.digest:
				fmt.Fprintf(os.Stderr, "perfbench: request %s (cached %v) differs from request %s of the same cell (cached %v)\n",
					o.req.id(), o.res.cached, f.req.id(), f.res.cached)
			default:
				if !seen {
					first[cell] = o
				}
				continue
			}
			bad++
		}
	}
	return bad
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the last line of standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	processStart := time.Now()
	clock := startStealClock(20 * time.Millisecond)
	heap := watchHeap()
	var (
		name    = flag.String("workload", "", "campaign-short, campaign-long or serve-churn")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed sends the same requests")
		seconds = flag.Int("seconds", 10, "length of the timed phase")
		traced  = flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
		golden  = flag.Bool("write-golden", false, "record the reference digests of the workload in "+goldenFile+" and exit")
	)
	flag.Parse()
	wl := workloads()[*name]
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx := context.Background()

	// Set-up runs several times so setup_s is a median; the first one
	// counts from process start. The first instance also answers the
	// reference requests before it is replaced.
	var sys system
	var setups [][2]time.Time
	var setupHeap []float64 // MB, each set-up's largest post-GC live heap
	attempted, failed := 0, 0
	for i := 0; i < wl.setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if sys, err = wl.setup(ctx, nil); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		setups = append(setups, [2]time.Time{t0, time.Now()})
		// One more cycle, outside the timing, so each set-up's heap is read
		// at least once with everything it keeps.
		runtime.GC()
		heap.observe()
		setupHeap = append(setupHeap, quantile(heap.between(t0, time.Now()), 1))
		if i == 0 {
			if *golden {
				return writeGolden(ctx, wl, sys)
			}
			attempted += wl.digestN
			failed += checkGolden(ctx, wl, sys)
		}
	}
	runtime.GC() // drop the earlier set-ups before timing

	first := firstRequests(wl, *seed, 0, 400)
	checks := wl.oracle(first)
	need := make([]int, wl.clients)
	for c := range need {
		need[c] = max(wl.digestN, wl.warmup)
	}
	for _, j := range checks {
		need[0] = max(need[0], j+1)
	}

	dur := time.Duration(*seconds) * time.Second
	var tr *tracer
	var untraced *phase
	var phases []*phase
	if *traced == 1 {
		// Same inputs twice, each on a fresh set-up: untraced, then traced.
		// The throughput difference is the tracing overhead.
		gens := streams(wl, *seed)
		uwarm := runPhase(ctx, sys, nil, gens, 0, need, false)
		untraced = runPhase(ctx, sys, nil, gens, dur/2, nil, false)
		phases = append(phases, uwarm, untraced)
		sys.close()
		tr = newTracer()
		var err error
		if sys, err = wl.setup(ctx, tr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced set-up:", err)
			return 1
		}
		dur /= 2
	}
	// A warm-up, untraced and untimed, so lazy set-up and the first touch
	// of every cache are behind it; then the timed phase, continuing the
	// same request streams. The traced phase runs under the CPU profiler.
	gens := streams(wl, *seed)
	warm := runPhase(ctx, sys, nil, gens, 0, need, true)
	var prof *cpuProfile
	if tr != nil {
		var err error
		if prof, err = startProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: profile:", err)
			return 1
		}
	}
	ph := runPhase(ctx, sys, tr, gens, dur, nil, false)
	var cpuByLayer map[string]float64
	if prof != nil {
		var err error
		if cpuByLayer, err = prof.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: profile:", err)
			failed++
		}
	}
	heap.close()
	clock.close()
	phases = append(phases, warm, ph)

	for _, p := range phases {
		a, f, _ := p.totals()
		attempted, failed = attempted+a, failed+f
	}
	failed += checkReports(phases...)
	mismatches, oracle, oracleErr := checkOracle(ctx, warm, checks)
	if oracleErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: oracle:", oracleErr)
		mismatches = max(mismatches, 1)
	}
	failed += mismatches
	digest, perRequest := runDigest(warm, wl.digestN)
	_, _, samples := ph.totals()

	ctxInfo := map[string]any{
		"workload": wl.name, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(), "go_version": runtime.Version(),
		"digest": digest, "request_digests": perRequest, "oracle_checked": len(checks),
		"steal_share": clock.stealShare(), "gc_cycles": len(heap.live),
	}
	props := measureProps(ph, sys.snapshot())
	for k, v := range map[string]float64{
		"inject_executed_ratio": props.executedRatio, "graph_hit_share": props.graphHitShare,
		"fanout_share": props.fanoutShare, "session_evictions": props.evictions,
		"session_restores": props.restores, "session_warm_builds": props.warmBuilds,
	} {
		ctxInfo[k] = v
	}

	var out map[string]metric
	if *traced == 1 {
		var err error
		out, err = layerMetrics(ctx, wl, sys, tr, clock, untraced, ph, warm, props, oracle, cpuByLayer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: probes:", err)
			failed++
		}
		spanFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, *seed))
		if err := tr.writeJSONL(spanFile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	} else {
		var setupS []float64
		for _, s := range setups {
			setupS = append(setupS, clock.span(s[0], s[1]).Seconds())
		}
		timedHeap := heap.between(ph.start, ph.stop)
		t := ph.calmTiming(clock)
		ctxInfo["requests_for_percentiles"] = t.requests
		out = map[string]metric{
			"setup_s":                {median(setupS), "s"},
			"samples_per_s":          {t.rate, "1/s"},
			"request_p50_ms":         {t.p50, "ms"},
			"request_p90_ms":         {t.p90, "ms"},
			"alloc_bytes_per_sample": {ratio(float64(ph.after.allocBytes-ph.before.allocBytes), float64(samples)), "B"},
			"peak_heap_mb":           {quantile(timedHeap, 0.9), "MB"},
			"setup_heap_mb":          {median(setupHeap), "MB"},
		}
	}
	sys.close()

	res := line{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: out}
	ctxInfo["failed_ratio"] = ratio(float64(failed), float64(attempted))
	w := ph.wallTiming()
	ctxInfo["wall_clock"] = map[string]float64{"samples_per_s": w.rate, "request_p50_ms": w.p50, "request_p90_ms": w.p90}
	ctxInfo["samples_per_cpu_s"] = ratio(float64(samples), ph.after.procCPU-ph.before.procCPU)
	ctxInfo["result"] = res
	writeJSON(filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", wl.name, *seed, *traced)), ctxInfo)

	printSummary(ctxInfo, out)
	b, _ := json.Marshal(res) // a map of numbers and strings always encodes
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// firstRequests generates client c's first n requests.
func firstRequests(wl *workload, seed int64, c, n int) []request {
	next := wl.gen(seed, c)
	out := make([]request, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

// props are the measured input properties a workload's numbers depend
// on.
type props struct {
	executedRatio float64 // inject.executed_ratio over executed campaigns
	graphHitShare float64 // requests answered from the graph cache
	fanoutShare   float64
	evictions     float64
	restores      float64
	warmBuilds    float64
}

func measureProps(ph *phase, snap *obs.Snapshot) props {
	var n, fan, cached, executed, samples int
	for _, o := range ph.all() {
		if o.err != nil {
			continue
		}
		n++
		if o.req.fanout > 1 {
			fan++
		}
		if o.res.cached {
			cached++
		} else {
			executed += o.res.executed
			samples += o.res.samples
		}
	}
	c := snap.Counters
	return props{
		executedRatio: ratio(float64(executed), float64(samples)),
		graphHitShare: ratio(float64(cached), float64(n)),
		fanoutShare:   ratio(float64(fan), float64(n)),
		evictions:     float64(c["session_evictions_total"]),
		restores:      float64(c["session_restores_total"]),
		warmBuilds:    float64(c["session_warm_builds_total"]),
	}
}

func writeJSON(path string, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// printSummary prints the run context and every metric, one per line,
// ahead of the result line.
func printSummary(info map[string]any, out map[string]metric) {
	keys := make([]string, 0, len(info))
	for k := range info {
		if k != "request_digests" && k != "result" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %s: %v\n", k, info[k])
	}
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.4f %s\n", k, out[k].Value, out[k].Unit)
	}
	// Zero on a correct run, so it is no bounded metric; see README.md.
	fmt.Printf("%-28s %14.4f %s\n", "failed_ratio", info["failed_ratio"], "ratio")
}
