package bench

import (
	"fmt"
	"time"

	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// StepResult reports the block-compiled backend against the per-step
// reference interpreter (Machine.Run) on one workload: best-of-reps
// wall-clock for each, the speedup, and an identity verdict over the full
// architectural outcome.
type StepResult struct {
	Workload   string
	Steps      uint64 // guest instructions retired per run
	Reps       int
	RunSec     float64 // step interpreter, best rep
	CompileSec float64 // block-compiled backend, best rep
	Speedup    float64 // RunSec / CompileSec
	Identical  bool    // counters, registers, flags and output all match
}

// StepThroughput measures raw step throughput of the two execution
// backends: the per-step interpreter (the semantic oracle) and the
// block-compiled engine with direct chaining. Both run the same program to
// completion reps times; the best (minimum) wall-clock per engine is kept,
// the usual microbenchmark discipline for spotting the noise floor. The
// compiled engine is built once before the reps — hot blocks promoted on
// rep one serve every later rep, exactly how a warm campaign reuses a
// frozen snapshot core. The identity verdict compares final registers,
// flags, IP, step/cycle/branch counters and output — the compiled backend
// must be a pure performance transform.
func StepThroughput(workload string, scale float64, reps int) (*StepResult, error) {
	if reps <= 0 {
		reps = 3
	}
	prof, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	p, err := prof.Build(scale)
	if err != nil {
		return nil, err
	}

	type outcome struct {
		stop    cpu.Stop
		regs    [isa.NumRegs]int32
		flags   isa.Flags
		ip      uint32
		steps   uint64
		cycles  uint64
		direct  uint64
		outLen  int
		outLast int32
	}
	capture := func(m *cpu.Machine, stop cpu.Stop) outcome {
		o := outcome{
			stop: stop, regs: m.Regs, flags: m.Flags, ip: m.IP,
			steps: m.Steps, cycles: m.Cycles, direct: m.DirectBranches,
			outLen: len(m.Output),
		}
		if o.outLen > 0 {
			o.outLast = m.Output[o.outLen-1]
		}
		return o
	}

	res := &StepResult{Workload: p.Name, Reps: reps}
	var runOut, compOut outcome
	eng := comp.NewEngine(p.Code, nil, 0)
	for rep := 0; rep < reps; rep++ {
		m := cpu.New()
		m.Reset(p)
		start := time.Now()
		stop := m.Run(p.Code, DefaultMaxSteps)
		sec := time.Since(start).Seconds()
		if stop.Reason != cpu.StopHalt {
			return nil, fmt.Errorf("%s: step run ended with %v", p.Name, stop)
		}
		if rep == 0 || sec < res.RunSec {
			res.RunSec = sec
		}
		runOut = capture(m, stop)

		m = cpu.New()
		m.Reset(p)
		start = time.Now()
		stop = eng.Run(m, DefaultMaxSteps)
		sec = time.Since(start).Seconds()
		if stop.Reason != cpu.StopHalt {
			return nil, fmt.Errorf("%s: compiled run ended with %v", p.Name, stop)
		}
		if rep == 0 || sec < res.CompileSec {
			res.CompileSec = sec
		}
		compOut = capture(m, stop)
	}
	res.Steps = runOut.steps
	res.Identical = runOut == compOut
	if res.CompileSec > 0 {
		res.Speedup = res.RunSec / res.CompileSec
	}
	return res, nil
}

// FormatStep renders the step-throughput comparison.
func FormatStep(r *StepResult) string {
	mips := func(sec float64) float64 {
		if sec <= 0 {
			return 0
		}
		return float64(r.Steps) / sec / 1e6
	}
	return fmt.Sprintf(
		"Interpreter step throughput — %s (%d guest instrs, best of %d)\n"+
			"%-12s %10.4fs %8.1f Minstr/s\n"+
			"%-12s %10.4fs %8.1f Minstr/s\n"+
			"speedup: %.2fx (compiled/step), identical: %v\n",
		r.Workload, r.Steps, r.Reps,
		"step", r.RunSec, mips(r.RunSec),
		"compiled", r.CompileSec, mips(r.CompileSec),
		r.Speedup, r.Identical)
}
