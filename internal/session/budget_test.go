package session

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/artifact"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/fp"
	"repro/internal/graph"
	"repro/internal/inject"
	"repro/internal/isa"
	"repro/internal/obs"
)

// coldCampaign runs the campaign a session serves the cold way, under an
// explicit step budget: a fresh inject.Execute that warms, records and
// builds everything itself.
func coldCampaign(t *testing.T, s *Session, spec Spec, opts core.Options, budget uint64) *inject.Report {
	t.Helper()
	cfg := inject.Config{Samples: spec.Samples, Seed: spec.Seed, MaxSteps: budget,
		Technique: s.tech, Policy: s.pol, Options: opts}
	cfg.CkptInterval = s.Key.CkptInterval
	var eo []inject.ExecOption
	if s.static {
		eo = append(eo, inject.AsStatic(s.label))
	}
	rep, err := inject.Execute(context.Background(), s.prog, cfg, eo...)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// A registry's step budget reaches its campaigns, not only its clean runs,
// logs and cell keys: a session's report equals a cold campaign's under
// the same budget, for a translator key and a static one. The tight
// budget sits just above the clean run, so some faulted runs turn into
// hangs and the report moves with the budget.
func TestSessionCampaignsUseRegistryMaxSteps(t *testing.T) {
	spec := Spec{Samples: 200, Seed: 9}
	opts := core.Options{Workers: 2}
	for _, tech := range []string{"none", "CFCSS"} {
		k := testKey(tech, -1)
		def := mustSession(t, NewRegistry(Config{}), k)
		tight := def.cleanSteps + def.cleanSteps/10
		if got, dflt := inject.FormatNormalized(coldCampaign(t, def, spec, opts, tight)),
			inject.FormatNormalized(coldCampaign(t, def, spec, opts, inject.DefaultMaxSteps)); got == dflt {
			t.Fatalf("%s: a budget of %d steps does not move the report; the check below would prove nothing", tech, tight)
		}
		for _, budget := range []uint64{inject.DefaultMaxSteps / 2, tight} {
			s := mustSession(t, NewRegistry(Config{MaxSteps: budget}), k)
			rep, err := s.Run(context.Background(), spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := inject.FormatNormalized(rep), inject.FormatNormalized(coldCampaign(t, s, spec, opts, budget)); got != want {
				t.Errorf("%s at %d steps: session report differs from a cold campaign\n got: %s\nwant: %s",
					tech, budget, got, want)
			}
		}
	}
}

// RunCell keys cells with the registry's memoized program hash. A cell
// stored under graph.KeyFor over an independently built program — the key
// cfc-inject -graph-cache writes — must answer RunCell without building a
// session, which pins the memo to fp.Program.
func TestRunCellHitsKeyForCell(t *testing.T) {
	reg := obs.NewRegistry()
	g := graph.New("")
	r := NewRegistry(Config{Metrics: reg, Graph: g})
	k := testKey("RCF", -1)
	spec := Spec{Samples: testSamples, Seed: 5}

	prog, err := core.Workload(k.Workload, k.Scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Technique: k.Technique, Style: k.Style, Policy: k.Policy}
	cfg.CkptInterval, cfg.Workers = k.CkptInterval, 1
	want, err := core.InjectCtx(context.Background(), prog, cfg, spec.Samples, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	g.Store(graph.KeyFor(prog, k.Technique, k.Style, k.Policy, spec.Samples, spec.Seed,
		0, k.CkptInterval, comp.BackendAuto, 0),
		&graph.Entry{Report: want, Normalized: inject.FormatNormalized(want)})

	rep, cached, err := r.RunCell(context.Background(), k, spec, core.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("RunCell missed a cell stored under graph.KeyFor")
	}
	if got := counter(reg, "session_misses_total"); got != 0 {
		t.Errorf("session misses = %d, want 0", got)
	}
	if got, want := inject.FormatNormalized(rep), inject.FormatNormalized(want); got != want {
		t.Errorf("cached cell renders differently\n got: %s\nwant: %s", got, want)
	}
}

// Concurrent RunCells on a workload the registry has not built yet share
// one program entry and hash its program exactly once, across every
// reader of the hash: the cell keys, the artifact fingerprint and the
// published artifact.
func TestConcurrentRunCellsHashProgramOnce(t *testing.T) {
	var hashes atomic.Int64
	programHash = func(p *isa.Program) string {
		hashes.Add(1)
		return fp.Program(p)
	}
	defer func() { programHash = fp.Program }()

	r := NewRegistry(Config{
		Graph:     graph.New(""),
		Artifacts: &artifact.Client{Local: artifact.NewStore("")},
	})
	k := testKey("RCF", -1)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, _, err := r.RunCell(context.Background(), k, Spec{Samples: 10, Seed: seed}, core.Options{}); err != nil {
				t.Error(err)
			}
		}(int64(i % 2))
	}
	wg.Wait()

	if len(r.programs) != 1 {
		t.Fatalf("%d program entries, want 1", len(r.programs))
	}
	if got := hashes.Load(); got != 1 {
		t.Errorf("program hashed %d times, want 1", got)
	}
	pe := r.programs[progKey{k.Workload, k.Scale}]
	if pe.hash != fp.Program(pe.prog) {
		t.Error("memoized hash differs from fp.Program")
	}
}
