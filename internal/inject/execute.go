package inject

import (
	"context"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/dbt"
	"repro/internal/isa"
)

// execPlan collects the optional execution inputs of Execute.
type execPlan struct {
	static     bool
	label      string
	snap       *dbt.Snapshot
	cleanSteps uint64
	haveSnap   bool
	log        *ckpt.Log
	image      *StaticImage
}

// ExecOption configures one Execute call: what pre-built state the
// campaign starts from.
type ExecOption func(*execPlan)

// WithSnapshot runs the campaign against a pre-built warm translator
// snapshot (from Warm, or restored from a fetched artifact) and the
// clean reference run's step count, instead of warming a fresh
// translator. Warm-up is deterministic, so the report is byte-identical
// to a cold run of the same configuration.
func WithSnapshot(snap *dbt.Snapshot, cleanSteps uint64) ExecOption {
	return func(e *execPlan) { e.snap, e.cleanSteps, e.haveSnap = snap, cleanSteps, true }
}

// WithRecording supplies a pre-recorded checkpoint log of the clean
// reference run, so the checkpoint engine skips its recording phase. The
// log is ignored when the replay engine is selected (CkptInterval 0);
// nil records one on demand.
func WithRecording(log *ckpt.Log) ExecOption {
	return func(e *execPlan) { e.log = log }
}

// AsStatic runs the campaign natively (no translator) under the given
// report label — the statically instrumented CFCSS/ECCA baselines and
// unprotected native runs. Incompatible with WithSnapshot; without
// WithStaticImage the campaign builds the program's static image itself.
func AsStatic(label string) ExecOption {
	return func(e *execPlan) { e.static, e.label = true, label }
}

// WithStaticImage runs a native campaign (AsStatic) on a pre-built static
// image of the program instead of building one — the session registry's
// amortization path. The image must be NewStaticImage of the same program
// for the campaign's backend and step bound; anything else is an error.
func WithStaticImage(im *StaticImage) ExecOption {
	return func(e *execPlan) { e.image = im }
}

// Execute is the single campaign entry point: it injects cfg.Samples
// faults into executions of p and classifies every outcome, honoring ctx
// for cancellation. With no options it warms a translator and runs the
// full pipeline; WithSnapshot/WithRecording start from pre-built warm
// state (the session registry's amortization path) and AsStatic selects
// native execution. Classified results are a pure function of (program,
// cfg minus Workers) — worker count, engine and pre-built state only
// change where the time goes.
//
// Run, RunWarm, RunStatic, RunStaticWarm, Campaign and StaticCampaign
// are all thin compatibility wrappers over this entry point.
func Execute(ctx context.Context, p *isa.Program, cfg Config, opts ...ExecOption) (*Report, error) {
	var plan execPlan
	for _, o := range opts {
		o(&plan)
	}
	cfg.applyDefaults()
	if plan.image != nil && !plan.static {
		return nil, fmt.Errorf("inject: WithStaticImage requires AsStatic")
	}
	if plan.static {
		if plan.haveSnap {
			return nil, fmt.Errorf("inject: AsStatic is incompatible with WithSnapshot")
		}
		im := plan.image
		if im == nil {
			span := phaseSpan(cfg.Metrics, plan.label, "image")
			im = NewStaticImage(p, cfg.Backend, cfg.MaxSteps)
			span.End()
		} else if im.prog != p || im.se.backend.Resolve() != cfg.Backend.Resolve() || im.maxSteps != cfg.MaxSteps {
			return nil, fmt.Errorf("inject: static image of %s (%v, max steps %d) does not fit campaign on %s (%v, max steps %d)",
				im.prog.Name, im.se.backend, im.maxSteps, p.Name, cfg.Backend, cfg.MaxSteps)
		}
		return cfg.runStaticWarm(ctx, p, plan.label, plan.log, im)
	}
	if !plan.haveSnap {
		warm := phaseSpan(cfg.Metrics, techName(cfg.Technique), "warm")
		snap, clean, err := Warm(p, cfg)
		warm.End()
		if err != nil {
			return nil, err
		}
		plan.snap, plan.cleanSteps = snap, clean.Steps
	}
	return cfg.runWarm(ctx, p, plan.snap, plan.cleanSteps, plan.log)
}
