package comp

import (
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// outcome captures everything the backends must agree on.
type outcome struct {
	stop   cpu.Stop
	regs   [isa.NumRegs]int32
	flags  isa.Flags
	ip     uint32
	steps  uint64
	cycles uint64
	direct uint64
	indir  uint64
	sig    uint64
	outLen int
}

func capture(m *cpu.Machine, stop cpu.Stop) outcome {
	return outcome{
		stop: stop, regs: m.Regs, flags: m.Flags, ip: m.IP,
		steps: m.Steps, cycles: m.Cycles, direct: m.DirectBranches,
		indir: m.IndirectBranches, sig: m.SigChecks, outLen: len(m.Output),
	}
}

const testMaxSteps = uint64(1) << 62

// TestCompiledMatchesStepOnWorkloads runs every workload under the step
// oracle (Machine.Run) and the compiled backend and requires identical
// outcomes.
func TestCompiledMatchesStepOnWorkloads(t *testing.T) {
	for _, prof := range workloads.All() {
		p, err := prof.Build(0.05)
		if err != nil {
			t.Fatalf("%s: build: %v", prof.Name, err)
		}
		m := cpu.New()
		m.Reset(p)
		want := capture(m, m.Run(p.Code, testMaxSteps))

		eng := NewEngine(p.Code, nil, 0)
		m2 := cpu.New()
		m2.Reset(p)
		got := capture(m2, eng.Run(m2, testMaxSteps))
		if got != want {
			t.Errorf("%s: compiled outcome differs\n got: %+v\nwant: %+v", prof.Name, got, want)
		}
	}
}

// TestCompiledThroughput reports the compiled backend's speedup over the
// step interpreter on 164.gzip; informational (the CI gate runs via
// cfc-bench).
func TestCompiledThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	prof, err := workloads.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	p, err := prof.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	best := func(run func() outcome) (float64, outcome) {
		sec := 0.0
		var out outcome
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			out = run()
			s := time.Since(start).Seconds()
			if rep == 0 || s < sec {
				sec = s
			}
		}
		return sec, out
	}

	stepSec, stepOut := best(func() outcome {
		m := cpu.New()
		m.Reset(p)
		return capture(m, m.Run(p.Code, testMaxSteps))
	})
	compSec, compOut := best(func() outcome {
		eng := NewEngine(p.Code, nil, 0)
		m := cpu.New()
		m.Reset(p)
		return capture(m, eng.Run(m, testMaxSteps))
	})
	if stepOut != compOut {
		t.Fatalf("outcome mismatch\n got: %+v\nwant: %+v", compOut, stepOut)
	}
	t.Logf("steps=%d step=%.4fs compiled=%.4fs speedup=%.2fx",
		stepOut.steps, stepSec, compSec, stepSec/compSec)
}

func benchProgram(b *testing.B) *isa.Program {
	prof, err := workloads.ByName("164.gzip")
	if err != nil {
		b.Fatal(err)
	}
	p, err := prof.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkStep(b *testing.B) {
	p := benchProgram(b)
	for i := 0; i < b.N; i++ {
		m := cpu.New()
		m.Reset(p)
		m.Run(p.Code, testMaxSteps)
	}
}

func BenchmarkCompiled(b *testing.B) {
	p := benchProgram(b)
	eng := NewEngine(p.Code, nil, 0)
	for i := 0; i < b.N; i++ {
		m := cpu.New()
		m.Reset(p)
		eng.Run(m, testMaxSteps)
	}
}
