package inject

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cfg"
	"repro/internal/ckpt"
	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/errmodel"
	"repro/internal/isa"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/par"
)

// staticExec is the execution surface for native (no translator) sample
// runs: the guest code and — for the compiled backend — a frozen
// block-compiled engine whose entry points are the program's own CFG
// block starts. The frozen core is shared read-only by every worker; each
// sample runs on a fresh per-view clone so its chain-hit counters merge
// worker-invariantly.
type staticExec struct {
	backend comp.Backend
	code    []isa.Instr
	eng     *comp.Engine // frozen; nil for the step backend
}

// newStaticExec builds the execution surface, freezing the compiled
// engine over the CFG blocks whose first instruction reached marks.
// Blocks left out run on the interpreter tier, which comp.Engine.Run
// keeps exact, so the reach set moves only wall-clock and compile work.
func newStaticExec(p *isa.Program, g *cfg.Graph, backend comp.Backend, reached []bool) *staticExec {
	se := &staticExec{backend: backend, code: p.Code}
	if backend.Compiled() {
		se.eng = comp.NewEngine(p.Code, nil, 0)
		var starts []uint32
		for _, b := range g.Blocks {
			if reached[b.Start] {
				starts = append(starts, b.Start)
			}
		}
		se.eng.Freeze(starts)
	}
	return se
}

// baseline is the one-time compilation work (the freeze), credited to the
// campaign report the way snapshot warm-up work is for translated runs.
func (se *staticExec) baseline() comp.Stats {
	if se.eng == nil {
		return comp.Stats{}
	}
	return se.eng.Stats
}

// resetView points v at a fresh view of the frozen engine, allocating it
// on first use; it returns nil for the step backend.
func (se *staticExec) resetView(v *comp.Engine) *comp.Engine {
	if se.eng == nil {
		return nil
	}
	if v == nil {
		return se.eng.Clone()
	}
	se.eng.CloneTo(v)
	return v
}

// run advances m on the selected backend until a stop or the step budget.
func (se *staticExec) run(v *comp.Engine, m *cpu.Machine, maxSteps uint64) cpu.Stop {
	if v == nil {
		return m.Run(se.code, maxSteps)
	}
	return v.Run(m, maxSteps)
}

// stats returns the view's accumulated per-sample work.
func (se *staticExec) stats(v *comp.Engine) comp.Stats {
	if v == nil {
		return comp.Stats{}
	}
	return v.Stats
}

// StaticImage is the campaign-invariant state of native campaigns over one
// program on one backend: the CFG faults are classified against, the
// execution surface, the clean run's geometry and the liveness analysis
// the checkpoint engine prunes with. Building it costs a CFG build, one
// bounded clean run and a freeze of the compiled engine over only the
// blocks that run reached; campaigns then share it read-only, so a
// session builds it once and every static campaign it serves reuses it.
// It is safe for concurrent use.
type StaticImage struct {
	prog     *isa.Program
	maxSteps uint64
	g        *cfg.Graph
	se       *staticExec

	// The clean run: how it stopped, its output and its geometry.
	stop     cpu.Stop
	want     []int32
	steps    uint64
	branches uint64

	liveOnce sync.Once
	li       *live.Info
}

// NewStaticImage builds the native-campaign image of p for backend, whose
// clean run is bounded by maxSteps. Campaigns that use it must run with
// the same step bound.
func NewStaticImage(p *isa.Program, backend comp.Backend, maxSteps uint64) *StaticImage {
	im := &StaticImage{prog: p, maxSteps: maxSteps, g: cfg.Build(p)}
	// The clean run steps on the reference interpreter so it can mark the
	// address of every instruction it executes.
	reached := make([]bool, len(p.Code))
	m := cpu.New()
	m.Reset(p)
	for {
		if m.Steps >= maxSteps {
			im.stop = cpu.Stop{Reason: cpu.StopOutOfSteps, IP: m.IP}
			break
		}
		if m.IP < uint32(len(reached)) {
			reached[m.IP] = true
		}
		if stop, done := m.Step(p.Code); done {
			im.stop = stop
			break
		}
	}
	im.want = m.Output
	im.steps = m.Steps
	im.branches = m.DirectBranches
	im.se = newStaticExec(p, im.g, backend, reached)
	return im
}

// liveness returns flag/register liveness over the program, computed on
// first use (only the checkpoint engine's prune consults it).
func (im *StaticImage) liveness() *live.Info {
	im.liveOnce.Do(func() { im.li = live.Analyze(im.g) })
	return im.li
}

// runStaticWarm injects single faults into a program executed directly on
// the machine (no translator) — the statically instrumented CFCSS/ECCA
// baselines and unprotected native runs. Faulty branch targets are
// classified against the program's own CFG, which im — the program's
// static image for the campaign's backend — carries along with the clean
// run. An optional pre-recorded checkpoint log of the native clean
// reference run is the checkpoint engine's reference (native execution is
// deterministic, so a cached log's finals are the clean run); nil records
// one when the checkpoint engine is selected, and the log is ignored
// otherwise.
//
// Like the translated pipeline, samples shard across cfgn.Workers
// goroutines with per-index fault derivation, so the classified results
// are bit-identical for every worker count. Native runs share nothing
// mutable — each sample gets its own machine state; the image is
// read-only. The caller (Execute) has applied the config defaults.
func (cfgn Config) runStaticWarm(ctx context.Context, p *isa.Program, label string, log *ckpt.Log, im *StaticImage) (*Report, error) {
	var want []int32
	var branches, cleanSteps uint64
	if log != nil && cfgn.CkptInterval != 0 {
		want = log.Output
		branches = log.Final.DirectBranches
		cleanSteps = log.Final.Steps
	} else {
		log = nil // a cached log is meaningless to the replay engine
		if im.stop.Reason != cpu.StopHalt {
			return nil, fmt.Errorf("%s: clean run ended with %v", p.Name, im.stop)
		}
		want = im.want
		branches = im.branches
		cleanSteps = im.steps
	}
	if branches == 0 {
		return nil, fmt.Errorf("%s: no branches to fault", p.Name)
	}
	g, se := im.g, im.se

	rep := &Report{
		Program:      p.Name,
		Technique:    label,
		Policy:       cfgn.Policy,
		Samples:      cfgn.Samples,
		SampleOffset: cfgn.SampleOffset,
		ByCat:        map[errmodel.Category]*Agg{},
		Workers:      par.Workers(cfgn.Workers, cfgn.Samples),
	}
	cfgn.Trace.Emit(obs.Event{Kind: obs.EvCampaignStart, Detail: p.Name + "/" + label})
	cfgn.Progress.Begin(cfgn.Samples, rep.Workers, progressLabels())
	shards := newShards(cfgn.Metrics, rep.Workers)
	results := make([]sampleResult, cfgn.Samples)
	rep.Compiled = se.baseline()
	rep.WarmCompiled = rep.Compiled
	if cfgn.CkptInterval != 0 {
		// Checkpoint engine: the native recording run doubles as the clean
		// reference (native execution is trivially deterministic, so its
		// geometry matches the clean run above exactly).
		if err := runStaticCkptSamples(ctx, p, im, &cfgn, rep, label, shards, results, cleanSteps, log); err != nil {
			return nil, err
		}
		mg := phaseSpan(cfgn.Metrics, label, "merge")
		rep.merge(results, cfgn.KeepRecords)
		flushShards(shards, cfgn.Metrics)
		mg.End()
		rep.Compiled.Publish(cfgn.Metrics, label)
		cfgn.Trace.Emit(obs.Event{Kind: obs.EvCampaignEnd, Value: int64(cfgn.Samples), Detail: p.Name + "/" + label})
		return rep, nil
	}
	start := time.Now()
	injSpan := phaseSpan(cfgn.Metrics, label, "inject")
	err := par.ForEachShardCtx(ctx, cfgn.Samples, rep.Workers, func(w, i int) error {
		defer observeProgress(cfgn.Progress, w, &results[i])
		defer dumpFlightStatic(&cfgn, p, label, i, want, &results[i])
		rng := newSampleRNG(cfgn.Seed, cfgn.SampleOffset+i)
		f := deriveBranchFault(&rng, branches)
		m := cpu.New()
		m.Reset(p)
		m.Fault = f
		v := se.resetView(nil)
		stop := se.run(v, m, cfgn.MaxSteps)
		results[i].comp = se.stats(v)
		cpu.TraceRunOutcome(cfgn.Trace, m, stop)
		if !f.Fired {
			if shards != nil {
				observeNotFired(shards[w], label)
			}
			return nil
		}
		rec := Record{
			Sample:   cfgn.SampleOffset + i,
			Fault:    *f,
			Outcome:  classifyStaticOutcome(stop, m.Output, want),
			Category: classifyStaticCategory(g, f),
		}
		if rec.Outcome == OutDetectedSW || rec.Outcome == OutDetectedHW {
			rec.Latency = m.Steps - f.FiredStep
			cfgn.Trace.Emit(obs.Event{
				Kind: obs.EvErrorDetected, Sample: obs.SampleRef(cfgn.SampleOffset + i),
				Value:  int64(rec.Latency),
				Detail: rec.Outcome.String() + "/" + rec.Category.String(),
			})
		}
		if shards != nil {
			observeSample(shards[w], label, &rec, m.SigChecks, 0)
		}
		results[i].fired = true
		results[i].rec = rec
		return nil
	})
	injSpan.End()
	rep.Elapsed = time.Since(start)
	if err != nil {
		return nil, err
	}
	mg := phaseSpan(cfgn.Metrics, label, "merge")
	rep.merge(results, cfgn.KeepRecords)
	flushShards(shards, cfgn.Metrics)
	mg.End()
	rep.Compiled.Publish(cfgn.Metrics, label)
	cfgn.Trace.Emit(obs.Event{Kind: obs.EvCampaignEnd, Value: int64(cfgn.Samples), Detail: p.Name + "/" + label})
	return rep, nil
}

func classifyStaticOutcome(stop cpu.Stop, out, want []int32) Outcome {
	switch {
	case stop.Reason == cpu.StopReport:
		return OutDetectedSW
	case stop.Reason.IsHardwareTrap():
		return OutDetectedHW
	case stop.Reason == cpu.StopOutOfSteps:
		return OutHang
	case stop.Reason == cpu.StopHalt:
		if equalOutput(out, want) {
			return OutBenign
		}
		return OutSDC
	default:
		return OutHang
	}
}

func classifyStaticCategory(g *cfg.Graph, f *cpu.Fault) errmodel.Category {
	if f.Kind == cpu.FaultFlagBit {
		if f.FaultTaken != f.CleanTaken {
			return errmodel.CatA
		}
		return errmodel.CatNoError
	}
	if !f.CleanTaken {
		return errmodel.CatNoError
	}
	return errmodel.Classify(g, f.FaultIP, f.FaultTarget)
}
