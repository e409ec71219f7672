package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/check"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/isa"
	"repro/internal/session"
)

// checkOracle re-runs the chosen requests of client 0 cold on the oracle
// path and byte-compares each with the report the system returned. It
// returns the number of mismatches and the oracle reports by seq.
func checkOracle(ctx context.Context, ph *phase, seqs []int) (int, map[int]*inject.Report, error) {
	bad := 0
	reps := map[int]*inject.Report{}
	for _, j := range seqs {
		if j >= len(ph.done[0]) {
			return bad, reps, fmt.Errorf("request 0/%d did not run", j)
		}
		o := ph.done[0][j]
		if o.err != nil {
			continue // already counted as failed
		}
		rep, err := oracleRun(ctx, o.req)
		if err != nil {
			return bad, reps, fmt.Errorf("request %s: %w", o.req.id(), err)
		}
		reps[j] = rep
		if want := inject.FormatNormalized(rep); want != o.res.report {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: request %s (%s seed %d fanout %d cached %v) differs from the oracle\n--- served\n%s--- oracle\n%s",
				o.req.id(), o.req.key, o.req.seed, o.req.fanout, o.res.cached, o.res.report, want)
		}
	}
	return bad, reps, nil
}

// oracleRun runs the request's campaign with no warm state, full
// replay (CkptInterval 0) and the step interpreter.
func oracleRun(ctx context.Context, r request) (*inject.Report, error) {
	prog, cfg, static, err := campaignConfig(r.key)
	if err != nil {
		return nil, err
	}
	cfg.Samples, cfg.Seed = r.samples, r.seed
	cfg.Options = inject.Options{Workers: runtime.NumCPU(), CkptInterval: 0, Backend: comp.BackendStep}
	var rep *inject.Report
	if static != "" {
		rep, err = inject.Execute(ctx, prog, cfg, inject.AsStatic(static))
	} else {
		rep, err = inject.Execute(ctx, prog, cfg)
	}
	return rep, err
}

// campaignConfig resolves a session key the way the session registry
// does: the built (for static baselines, instrumented) program, the
// translator technique and policy, and the static label ("" for DBT
// techniques).
func campaignConfig(k session.Key) (*isa.Program, inject.Config, string, error) {
	var cfg inject.Config
	base, err := core.Workload(k.Workload, k.Scale)
	if err != nil {
		return nil, cfg, "", err
	}
	if cfg.Policy, err = core.ParsePolicy(k.Policy); err != nil {
		return nil, cfg, "", err
	}
	if kind, ok := staticKind(k.Technique); ok {
		prog, err := check.InstrumentStatic(base, kind)
		return prog, cfg, kind.String(), err
	}
	style, err := core.ParseStyle(k.Style)
	if err != nil {
		return nil, cfg, "", err
	}
	cfg.Technique, err = check.New(k.Technique, style)
	return base, cfg, "", err
}

func staticKind(name string) (check.StaticKind, bool) {
	switch strings.ToUpper(name) {
	case "CFCSS":
		return check.StaticCFCSS, true
	case "ECCA":
		return check.StaticECCA, true
	}
	return 0, false
}
