package check

import (
	"fmt"
	"testing"

	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/dbt"
)

// backendOutcome is everything the execution backends must agree on for
// one run: the full architectural and counter state at the stop, the stop
// itself, and the output stream.
type backendOutcome struct {
	state cpu.State
	stop  cpu.Stop
	out   []int32
}

// TestBackendDifferential is the backend property test: random structured
// programs run under the step interpreter and the block-compiled backend
// must produce identical cpu.State (registers, flags, IP,
// step/cycle/branch/check counters), stop and output bytes — for every
// technique × policy. The step interpreter is the ground truth; the
// compiled backend must be a pure performance transform.
func TestBackendDifferential(t *testing.T) {
	backends := []comp.Backend{comp.BackendStep, comp.BackendCompile}
	const maxSteps = 200_000_000
	for i := 0; i < 8; i++ {
		prof := randomProfile(int64(3000 + i*23))
		prof.Name = fmt.Sprintf("bfuzz-%d", i)
		p, err := prof.Build(0.02)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		style := dbt.UpdateJcc
		if i%2 == 1 {
			style = dbt.UpdateCmov
		}
		pol := dbt.Policies()[i%4]
		for _, tech := range append(DBTTechniques(style), dbt.None{}) {
			var want backendOutcome
			for bi, b := range backends {
				d := dbt.New(p, dbt.Options{
					Technique: tech, Policy: pol, Backend: b,
					TraceThreshold: 5 + i%40,
				})
				m, res := d.Start(nil)
				if res != nil {
					t.Fatalf("%s/%s/%s/%s: start: %v", prof.Name, tech.Name(), pol, b, res.Stop)
				}
				stop := d.Advance(m, maxSteps)
				got := backendOutcome{state: m.CaptureState(), stop: stop, out: m.Output}
				if got.stop.Reason != cpu.StopHalt {
					t.Fatalf("%s/%s/%s/%s: stop %v", prof.Name, tech.Name(), pol, b, got.stop)
				}
				if bi == 0 {
					want = got
					continue
				}
				if got.state != want.state || got.stop != want.stop {
					t.Errorf("%s/%s/%s/%s: state diverged from step backend\n got: %+v %v\nwant: %+v %v",
						prof.Name, tech.Name(), pol, b, got.state, got.stop, want.state, want.stop)
				}
				if !equalOut(got.out, want.out) {
					t.Errorf("%s/%s/%s/%s: output diverged from step backend",
						prof.Name, tech.Name(), pol, b)
				}
			}
		}
	}
}

// TestBackendDifferentialUnderFaults extends the property to faulty runs:
// the same planted fault must fire at the same dynamic site and classify
// identically — same stop, same step/cycle counters, same output — on
// every backend. One warm translator per backend runs the same fault
// sequence, so chain-patching state evolves in lockstep too.
func TestBackendDifferentialUnderFaults(t *testing.T) {
	backends := []comp.Backend{comp.BackendStep, comp.BackendCompile}
	const maxSteps = 100_000_000
	for i := 0; i < 3; i++ {
		prof := randomProfile(int64(5000 + i*31))
		prof.Name = fmt.Sprintf("bffuzz-%d", i)
		p, err := prof.Build(0.02)
		if err != nil {
			t.Fatal(err)
		}
		tech := func() dbt.Technique { return &RCF{Style: dbt.UpdateCmov} }
		ds := make([]*dbt.DBT, len(backends))
		for bi, b := range backends {
			ds[bi] = dbt.New(p, dbt.Options{Technique: tech(), Backend: b})
			if r := ds[bi].Run(nil, maxSteps); r.Stop.Reason != cpu.StopHalt {
				t.Fatalf("%s/%v: clean %v", prof.Name, b, r.Stop)
			}
		}
		for idx := uint64(0); idx < 40; idx += 5 {
			for _, bit := range []uint{0, 2, 9, 20} {
				var want *dbt.Result
				var wantFired bool
				for bi, b := range backends {
					f := &cpu.Fault{BranchIndex: idx, Kind: cpu.FaultOffsetBit, Bit: bit}
					got := ds[bi].Run(f, maxSteps)
					if bi == 0 {
						want, wantFired = got, f.Fired
						continue
					}
					if f.Fired != wantFired {
						t.Fatalf("%s/%v: fault idx=%d bit=%d fired=%v, step backend fired=%v",
							prof.Name, b, idx, bit, f.Fired, wantFired)
					}
					if got.Stop != want.Stop || got.Steps != want.Steps ||
						got.Cycles != want.Cycles || !equalOut(got.Output, want.Output) {
						t.Errorf("%s/%v: fault idx=%d bit=%d diverged\n got: %v steps=%d cycles=%d\nwant: %v steps=%d cycles=%d",
							prof.Name, b, idx, bit,
							got.Stop, got.Steps, got.Cycles,
							want.Stop, want.Steps, want.Cycles)
					}
				}
			}
		}
	}
}
