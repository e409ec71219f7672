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
// architectural outcome. It is the BENCH_step.json record.
type StepResult struct {
	header
	Scale      float64 `json:"scale"`
	Steps      uint64  `json:"steps"` // guest instructions retired per run
	Reps       int     `json:"reps"`
	RunSec     float64 `json:"run_sec"`     // step interpreter, best rep
	CompileSec float64 `json:"compile_sec"` // block-compiled backend, best rep
	Speedup    float64 `json:"speedup"`     // RunSec / CompileSec
	Identical  bool    `json:"identical"`   // counters, registers, flags and output all match
}

func (r *StepResult) headline() float64 { return r.Speedup }
func (r *StepResult) correct() bool     { return r.Identical }

// StepThroughput measures raw step throughput of the two execution
// backends: the per-step interpreter (the semantic oracle) and the
// block-compiled engine with direct chaining. Both run the same program to
// completion three times; the best (minimum) wall-clock per engine is kept,
// the usual microbenchmark discipline for spotting the noise floor. The
// compiled engine is built once before the reps — hot blocks promoted on
// rep one serve every later rep, exactly how a warm campaign reuses a
// frozen snapshot core. The identity verdict compares final registers,
// flags, IP, step/cycle/branch counters and output — the compiled backend
// must be a pure performance transform.
func StepThroughput(workload string, scale float64) (*StepResult, error) {
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

	res := &StepResult{header: header{Workload: p.Name}, Scale: scale, Reps: 3}
	var runOut, compOut outcome
	eng := comp.NewEngine(p.Code, nil, 0)
	for rep := 0; rep < res.Reps; rep++ {
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
