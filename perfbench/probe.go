package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/ckpt"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/fp"
	"repro/internal/graph"
	"repro/internal/inject"
	"repro/internal/isa"
	"repro/internal/session"
)

// layerMetrics computes the per-layer metrics of a traced run: the
// traced phase's own spans, counters and CPU profile (cpu, in seconds per
// layer), then the layer probes on the workload's sessions.
func layerMetrics(ctx context.Context, wl *workload, sys system, tr *tracer, clock *stealClock, untraced, ph, warm *phase, pr props, oracle map[int]*inject.Report, cpu map[string]float64) (map[string]metric, error) {
	phaseSpans := tr.snapshot()
	out := map[string]metric{}
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	// Requests of the traced phase.
	var campaignMs, samplesMs, skews, cachedMs, executedMs, routedMs, fanMs, overheadMs []float64
	var loopSamples, rejected, n int
	var chainHits, blocks uint64
	for _, o := range ph.all() {
		if o.err != nil {
			if s := o.err.Error(); strings.Contains(s, "status 429") || strings.Contains(s, "status 503") {
				rejected++
			}
			continue
		}
		n++
		lat := clock.span(o.start, o.stop)
		if o.res.cached {
			cachedMs = append(cachedMs, ms(lat))
		} else {
			executedMs = append(executedMs, ms(lat))
			samplesMs = append(samplesMs, ms(o.res.elapsed))
			overheadMs = append(overheadMs, ms(o.wall()-o.res.elapsed))
			loopSamples += o.res.samples
		}
		if o.req.fanout > 1 {
			fanMs = append(fanMs, ms(lat))
		} else {
			routedMs = append(routedMs, ms(lat))
		}
		if o.res.skew > 0 {
			skews = append(skews, o.res.skew)
		}
		chainHits += o.res.compiled.ChainHits
		blocks += o.res.compiled.BlocksCompiled
	}
	agg := aggregate(phaseSpans)
	if st := agg["inject.campaign"]; st != nil {
		campaignMs = durMs(st.durs)
	} else {
		campaignMs = samplesMs // served campaigns: the time the records state
	}
	set("inject.campaign_ms", "ms", median(campaignMs))
	set("inject.executed_ratio", "ratio", pr.executedRatio)
	set("comp.chain_hits", "1/sample", ratio(float64(chainHits), float64(loopSamples)))
	set("comp.blocks_compiled", "count", ratio(float64(blocks), float64(n)))
	set("par.worker_skew", "ratio", median(skews))
	set("runtime.gc_cpu_share", "ratio", ratio(untraced.after.gcCPU-untraced.before.gcCPU, untraced.after.totalCPU-untraced.before.totalCPU))
	set("obs.tracing_overhead", "ratio", ratio(untraced.calmTiming(clock).rate, ph.calmTiming(clock).rate)-1)
	set("graph.cached_request_ms", "ms", median(cachedMs))
	set("graph.executed_request_ms", "ms", median(executedMs))
	set("front.routed_request_ms", "ms", median(routedMs))
	set("front.fanout_request_ms", "ms", median(fanMs))
	set("front.fanout_share", "ratio", pr.fanoutShare)
	set("front.rejected", "count", float64(rejected))
	set("serve.overhead_ms", "ms", median(overheadMs))
	if st := agg["session.build"]; st != nil {
		set("session.build_ms", "ms", median(durMs(st.durs))) // the traced set-up's cold builds
	}

	snap := sys.snapshot()
	c := snap.Counters
	hits, misses := float64(c["session_hits_total"]), float64(c["session_misses_total"])
	set("session.hit_ratio", "ratio", ratio(hits, hits+misses))
	set("session.evictions", "count", pr.evictions)
	set("session.restores", "count", pr.restores)
	set("session.warm_builds", "count", pr.warmBuilds)
	gh, gm := float64(c["graph_cache_hits_total"]), float64(c["graph_cache_misses_total"])
	set("graph.hit_ratio", "ratio", ratio(gh, gh+gm))

	// Self time of the request trees: the sample loop against everything
	// around it (client, front, replica, session lookup, campaign set-up).
	var reqSpans []span
	for _, s := range phaseSpans {
		if s.Request != "" {
			reqSpans = append(reqSpans, s)
		}
	}
	reqAgg := aggregate(reqSpans)
	self := selfByLayer(reqAgg)
	var total, loop time.Duration
	for _, d := range self {
		total += d
	}
	if st := reqAgg["inject.samples"]; st != nil {
		loop = st.self
	}
	share := func(d time.Duration) float64 { return ratio(d.Seconds(), total.Seconds()) }
	for _, layer := range []string{"bench", "front", "session"} {
		set(layer+".self_share", "ratio", share(self[layer]))
	}
	set("inject.setup_self_share", "ratio", share(self["inject"]-loop))
	set("inject.loop_self_share", "ratio", share(loop))
	set("split.serving_over_sample_loop", "ratio", ratio((total-loop).Seconds(), loop.Seconds()))
	// Inside the replicas the program times its own artifact fetches and
	// graph lookups; their share of the same request time:
	var fetch, lookup float64
	for name, sp := range snap.Spans {
		switch {
		case name == "artifact_fetch":
			fetch += sp.Seconds
		case strings.HasPrefix(name, "graph_cell_lookup"):
			lookup += sp.Seconds
		}
	}
	set("artifact.served_fetch_share", "ratio", ratio(fetch, total.Seconds()))
	set("graph.served_lookup_share", "ratio", ratio(lookup, total.Seconds()))

	// The engine's own sample loop, from the CPU profile of the traced
	// phase: restore and clone against execution.
	var cpuTotal float64
	for _, v := range cpu {
		cpuTotal += v
	}
	for _, layer := range []string{"ckpt", "dbt", "comp"} {
		set(layer+".cpu_share", "ratio", ratio(cpu[layer], cpuTotal))
	}
	set("split.restore_clone_over_exec", "ratio", ratio(cpu["ckpt"]+cpu["dbt"], cpu["comp"]))

	probeStart := len(tr.snapshot())
	p, err := newProber(tr)
	if err != nil {
		return out, err
	}
	defer p.close()
	if err := p.run(ctx, wl, sys, warm, oracle); err != nil {
		return out, err
	}
	probe := aggregate(tr.snapshot()[probeStart:])
	for _, m := range []struct{ span, name, unit string }{
		{"workloads.build", "workloads.build_ms", "ms"},
		{"dbt.warm", "dbt.warm_ms", "ms"},
		{"ckpt.record", "ckpt.record_ms", "ms"},
		{"artifact.encode", "artifact.encode_ms", "ms"},
		{"artifact.publish", "artifact.publish_ms", "ms"},
		{"artifact.fetch", "artifact.fetch_ms", "ms"},
		{"artifact.decode", "artifact.decode_ms", "ms"},
	} {
		if st := probe[m.span]; st != nil {
			set(m.name, m.unit, ms(st.total)/float64(st.count))
		}
	}
	meanUs := func(name string) float64 {
		if st := probe[name]; st != nil {
			return st.total.Seconds() * 1e6 / float64(st.count)
		}
		return 0
	}
	set("ckpt.restore_us", "us", meanUs("ckpt.restore"))
	set("dbt.clone_us", "us", meanUs("dbt.clone"))
	set("graph.lookup_us", "us", meanUs("graph.lookup"))
	set("ckpt.restore_alloc_bytes", "B", p.restoreAlloc.mean())
	set("dbt.clone_alloc_bytes", "B", p.cloneAlloc.mean())
	set("artifact.bytes", "B", p.artifactBytes.mean())
	if st := probe["comp.run"]; st != nil {
		set("comp.guest_steps_per_s", "1/s", float64(p.runSteps)/st.total.Seconds())
	}
	return out, nil
}

func durMs(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return xs
}

// mean accumulates a running mean.
type mean struct{ sum, n float64 }

func (m *mean) add(v float64) { m.sum += v; m.n++ }
func (m *mean) mean() float64 { return ratio(m.sum, m.n) }

// prober drives each layer's public functions on the workload's own
// session keys, with a span around every call.
type prober struct {
	tr    *tracer
	root  *open
	store *http.Server
	wg    sync.WaitGroup
	url   string

	restoreAlloc, cloneAlloc, artifactBytes mean
	runSteps                                uint64
}

func newProber(tr *tracer) (*prober, error) {
	p := &prober{tr: tr, root: tr.begin("bench.probe", 0, "")}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.store = &http.Server{Handler: artifact.Handler(artifact.NewStore(""))}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.store.Serve(ln) // returns http.ErrServerClosed on close
	}()
	p.url = "http://" + ln.Addr().String()
	return p, nil
}

func (p *prober) close() {
	p.root.end()
	p.store.Close()
	p.wg.Wait()
}

// timed runs fn inside a span named name under the probe root.
func (p *prober) timed(name string, fn func()) {
	sp := p.tr.begin(name, p.root.id(), "")
	fn()
	sp.end()
}

// warmState is one session key rebuilt from public functions.
type warmState struct {
	key    session.Key
	base   *isa.Program // uninstrumented program (artifact identity)
	prog   *isa.Program // program campaigns run (instrumented for static)
	cfg    inject.Config
	static string // static label, "" for DBT techniques
	label  string
	snap   *dbt.Snapshot
	clean  uint64
	log    *ckpt.Log
}

func (p *prober) run(ctx context.Context, wl *workload, sys system, warm *phase, oracle map[int]*inject.Report) error {
	built := map[string]*isa.Program{}
	var states []*warmState
	for _, k := range wl.keys {
		id := fmt.Sprintf("%s|%g", k.Workload, k.Scale)
		if built[id] == nil {
			for i := 0; i < 3; i++ {
				var err error
				p.timed("workloads.build", func() { built[id], err = core.Workload(k.Workload, k.Scale) })
				if err != nil {
					return err
				}
			}
		}
		st, err := p.warm(k, built[id])
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		if err := p.crossCheck(ctx, sys, st); err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		states = append(states, st)
	}
	for _, st := range states {
		p.restore(st)
		if st.snap != nil {
			p.clone(st)
		}
		if err := p.artifact(st); err != nil {
			return fmt.Errorf("%s: %w", st.key, err)
		}
	}
	return p.graphLookups(warm, oracle)
}

// warm rebuilds the key's warm state: snapshot (inject.Warm) or native
// clean run, then the checkpoint log (ckpt.Record / RecordStatic).
func (p *prober) warm(k session.Key, base *isa.Program) (*warmState, error) {
	prog, cfg, static, err := campaignConfig(k)
	if err != nil {
		return nil, err
	}
	cfg.MaxSteps = inject.DefaultMaxSteps
	st := &warmState{key: k, base: base, prog: prog, cfg: cfg, static: static, label: static}
	if static != "" {
		st.clean = core.RunNative(prog, cfg.MaxSteps).Steps
	} else {
		st.label = "none"
		if cfg.Technique != nil {
			st.label = cfg.Technique.Name()
		}
		var clean *dbt.Result
		p.timed("dbt.warm", func() { st.snap, clean, err = inject.Warm(prog, cfg) })
		if err != nil {
			return nil, err
		}
		st.clean = clean.Steps
	}
	interval := ckpt.AutoInterval(k.CkptInterval, st.clean)
	p.timed("ckpt.record", func() {
		if static != "" {
			st.log, err = ckpt.RecordStatic(prog, interval, cfg.MaxSteps)
		} else {
			st.log, err = ckpt.Record(st.snap, interval, cfg.MaxSteps)
		}
	})
	if err == nil && !st.log.Complete() {
		err = fmt.Errorf("reference run ended with %v", st.log.Stop)
	}
	return st, err
}

// crossCheck compares the rebuilt log with the in-process session's: the
// build is deterministic, so they must agree.
func (p *prober) crossCheck(ctx context.Context, sys system, st *warmState) error {
	cs, ok := sys.(*campaignSystem)
	if !ok {
		return nil // served sessions live inside the replicas
	}
	sess, err := cs.reg.Session(ctx, st.key)
	if err != nil {
		return err
	}
	l := sess.Log()
	if len(l.Points) != len(st.log.Points) || l.Final != st.log.Final || len(l.Output) != len(st.log.Output) || sess.CleanSteps() != st.clean {
		return fmt.Errorf("rebuilt checkpoint log differs from the session's")
	}
	return nil
}

// restore times Replayer.Machine at every checkpoint in ascending order.
func (p *prober) restore(st *warmState) {
	r := st.log.NewReplayer()
	p.restoreAlloc.add(allocsPerCall(len(st.log.Points), func(k int) {
		p.timed("ckpt.restore", func() { r.Machine(k) })
	}))
}

// clone times Snapshot.NewDBT, then a clean DBT.Run to halt on a clone.
func (p *prober) clone(st *warmState) {
	const clones = 100
	p.cloneAlloc.add(allocsPerCall(clones, func(int) {
		p.timed("dbt.clone", func() { st.snap.NewDBT() })
	}))
	for i := 0; i < 3; i++ {
		d := st.snap.NewDBT()
		var res *dbt.Result
		p.timed("comp.run", func() { res = d.Run(nil, st.cfg.MaxSteps) })
		p.runSteps += res.Steps
	}
}

// artifact encodes the warm state as the registry publishes it, then
// publishes, fetches and decodes it against a loopback store.
func (p *prober) artifact(st *warmState) error {
	ph := fp.Program(st.base)
	a := &artifact.Artifact{
		Key: st.key.String(), ProgramHash: ph, MaxSteps: st.cfg.MaxSteps,
		CleanSteps: st.clean, Static: st.static != "", Log: st.log,
	}
	if st.snap != nil {
		state, err := st.snap.State()
		if err != nil {
			return err
		}
		a.Snapshot = state
	}
	afp := artifact.Fingerprint(st.key.String(), st.label, ph, st.cfg.MaxSteps)
	var blob []byte
	p.timed("artifact.encode", func() { blob = a.Encode(afp) })
	p.artifactBytes.add(float64(len(blob)))
	client := &artifact.Client{BaseURL: p.url}
	p.timed("artifact.publish", func() { client.Publish(a, afp) })
	var got *artifact.Artifact
	p.timed("artifact.fetch", func() { got = client.Fetch(afp) })
	if got == nil {
		return fmt.Errorf("published artifact not fetched back")
	}
	var err error
	p.timed("artifact.decode", func() { _, err = artifact.Decode(blob, afp) })
	return err
}

// graphLookups stores each oracle-checked cell in a fresh cell cache and
// times Cache.Lookup on it.
func (p *prober) graphLookups(ph *phase, oracle map[int]*inject.Report) error {
	cache := graph.New("")
	for j, rep := range oracle {
		o := ph.done[0][j]
		prog, _, _, err := campaignConfig(o.req.key)
		if err != nil {
			return err
		}
		k := o.req.key
		ck := graph.KeyFor(prog, k.Technique, k.Style, k.Policy, o.req.samples, o.req.seed, 0,
			k.CkptInterval, comp.BackendAuto, 0)
		cache.Store(ck, &graph.Entry{Report: rep, Normalized: inject.FormatNormalized(rep)})
		for i := 0; i < 20; i++ {
			var e *graph.Entry
			p.timed("graph.lookup", func() { e = cache.Lookup(ck, nil) })
			if e == nil || e.Normalized != o.res.report {
				return fmt.Errorf("request %s: graph lookup lost the cell", o.req.id())
			}
		}
	}
	return nil
}
