package ckpt

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/check"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/isa"
)

// The test workload mixes loops, calls, memory traffic (so checkpoints
// carry page deltas) and output, and runs a few thousand steps so an
// interval of a few hundred yields a meaningful point stream.
const workload = `
.data 64
main:
    movi eax, 0
    movi ecx, 30
    movi esi, 0
outer:
    movi edx, 8
inner:
    addi eax, 7
    store [esi], eax
    load ebx, [esi]
    add eax, ebx
    addi esi, 1
    cmpi esi, 40
    jlt keep
    movi esi, 0
keep:
    subi edx, 1
    cmpi edx, 0
    jgt inner
    call bump
    out eax
    subi ecx, 1
    cmpi ecx, 0
    jgt outer
    out esi
    halt
bump:
    addi eax, 3
    ret
`

func mustAssemble(t *testing.T) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("ckpt-t", workload)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const maxSteps = 10_000_000

// warmSnapshot runs the translator until clean runs stop mutating shared
// state, then snapshots — the same precondition the injection campaigns
// establish.
func warmSnapshot(t *testing.T, p *isa.Program, opts dbt.Options) *dbt.Snapshot {
	t.Helper()
	d := dbt.New(p, opts)
	res := d.Run(nil, maxSteps)
	if res.Stop.Reason != cpu.StopHalt {
		t.Fatalf("clean run: %v", res.Stop)
	}
	for i := 0; i < 32; i++ {
		pre := d.StatsSnapshot()
		if res = d.Run(nil, maxSteps); res.Stop.Reason != cpu.StopHalt {
			t.Fatalf("warm run: %v", res.Stop)
		}
		if !d.StatsSnapshot().Sub(pre).Structural() {
			break
		}
	}
	return d.Snapshot()
}

// checkAgainstLog asserts that a resumed execution reproduced the
// reference run exactly.
func checkAgainstLog(t *testing.T, label string, k int, l *Log,
	stopReason cpu.StopReason, st cpu.State, out []int32) {
	t.Helper()
	if stopReason != l.Stop.Reason {
		t.Errorf("%s point %d: stop %v, want %v", label, k, stopReason, l.Stop.Reason)
	}
	if st.Steps != l.Final.Steps {
		t.Errorf("%s point %d: steps %d, want %d", label, k, st.Steps, l.Final.Steps)
	}
	if st.Cycles != l.Final.Cycles {
		t.Errorf("%s point %d: cycles %d, want %d", label, k, st.Cycles, l.Final.Cycles)
	}
	if st.DirectBranches != l.Final.DirectBranches {
		t.Errorf("%s point %d: branches %d, want %d", label, k, st.DirectBranches, l.Final.DirectBranches)
	}
	if st.SigChecks != l.Final.SigChecks {
		t.Errorf("%s point %d: sig checks %d, want %d", label, k, st.SigChecks, l.Final.SigChecks)
	}
	if len(out) != len(l.Output) {
		t.Fatalf("%s point %d: output length %d, want %d", label, k, len(out), len(l.Output))
	}
	for i := range out {
		if out[i] != l.Output[i] {
			t.Fatalf("%s point %d: output[%d] = %d, want %d", label, k, i, out[i], l.Output[i])
		}
	}
}

// Property: restoring any checkpoint and running to completion reproduces
// the full run exactly — output, cycles, steps, counters and stop reason —
// for every translated technique under every checking policy.
func TestRestoreReproducesReferenceDBT(t *testing.T) {
	p := mustAssemble(t)
	techs := []string{"none", "EdgCF", "RCF", "ECF"}
	policies := []dbt.Policy{dbt.PolicyAllBB, dbt.PolicyRetBE, dbt.PolicyRet, dbt.PolicyEnd}
	for _, name := range techs {
		for _, pol := range policies {
			label := fmt.Sprintf("%s/%v", name, pol)
			tech, err := check.New(name, dbt.UpdateCmov)
			if err != nil {
				t.Fatal(err)
			}
			snap := warmSnapshot(t, p, dbt.Options{Technique: tech, Policy: pol})
			l, err := Record(snap, 500, maxSteps)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if l.Stop.Reason != cpu.StopHalt {
				t.Fatalf("%s: reference ended with %v", label, l.Stop)
			}
			if l.Truncated {
				t.Fatalf("%s: recording truncated — warm snapshot still churns", label)
			}
			if len(l.Points) < 3 {
				t.Fatalf("%s: only %d points recorded", label, len(l.Points))
			}
			r := l.NewReplayer()
			for k := range l.Points {
				sd := snap.NewDBT()
				m := r.Machine(k)
				sd.Resume(m, l.Points[k].Prefix)
				stop := sd.Advance(m, maxSteps)
				res := sd.Finish(m, stop)
				checkAgainstLog(t, label, k, l, res.Stop.Reason, m.CaptureState(), res.Output)
				want := snap.Stats()
				want.Add(l.FinalPrefix)
				if res.Stats != want {
					t.Errorf("%s point %d: stats %+v, want %+v", label, k, res.Stats, want)
				}
			}
			// Seeking backwards rebuilds the memory image from scratch.
			sd := snap.NewDBT()
			m := r.Machine(0)
			sd.Resume(m, l.Points[0].Prefix)
			res := sd.Finish(m, sd.Advance(m, maxSteps))
			checkAgainstLog(t, label+"/rewind", 0, l, res.Stop.Reason, m.CaptureState(), res.Output)
		}
	}
}

// The same property for native execution, covering the statically
// instrumented techniques (CFCSS, ECCA) and the uninstrumented baseline.
func TestRestoreReproducesReferenceStatic(t *testing.T) {
	p := mustAssemble(t)
	progs := map[string]*isa.Program{"native": p}
	for kind, name := range map[check.StaticKind]string{check.StaticCFCSS: "CFCSS", check.StaticECCA: "ECCA"} {
		ip, err := check.InstrumentStatic(p, kind)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = ip
	}
	for label, prog := range progs {
		l, err := RecordStatic(prog, 700, maxSteps)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if l.Stop.Reason != cpu.StopHalt {
			t.Fatalf("%s: reference ended with %v", label, l.Stop)
		}
		if len(l.Points) < 3 {
			t.Fatalf("%s: only %d points recorded", label, len(l.Points))
		}
		r := l.NewReplayer()
		// Visit points out of order to exercise backward seeks too.
		for k := len(l.Points) - 1; k >= 0; k-- {
			m := r.Machine(k)
			stop := m.Run(prog.Code, maxSteps)
			checkAgainstLog(t, label, k, l, stop.Reason, m.CaptureState(), m.Output)
		}
	}
}

// Restoring at the point chosen for a fault site replays the firing
// exactly: same step, same IP, same direction pair as a full run.
func TestPointSelectionReplaysFiring(t *testing.T) {
	p := mustAssemble(t)
	tech, _ := check.New("RCF", dbt.UpdateCmov)
	snap := warmSnapshot(t, p, dbt.Options{Technique: tech})
	l, err := Record(snap, 300, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	branches := l.Final.DirectBranches
	for _, bi := range []uint64{0, 1, branches / 3, branches / 2, branches - 1} {
		full := &cpu.Fault{BranchIndex: bi, Kind: cpu.FaultOffsetBit, Bit: 3}
		fd := snap.NewDBT()
		fres := fd.Run(full, maxSteps)

		part := &cpu.Fault{BranchIndex: bi, Kind: cpu.FaultOffsetBit, Bit: 3}
		k := l.PointAtBranch(bi)
		if pt := &l.Points[k]; pt.State.DirectBranches > bi {
			t.Fatalf("branch %d: point %d already past the site (%d)", bi, k, pt.State.DirectBranches)
		}
		sd := snap.NewDBT()
		m := l.NewReplayer().Machine(k)
		m.Fault = part
		sd.Resume(m, l.Points[k].Prefix)
		res := sd.Finish(m, sd.Advance(m, maxSteps))

		if !part.Fired || !full.Fired {
			t.Fatalf("branch %d: fault did not fire (restored %v, full %v)", bi, part.Fired, full.Fired)
		}
		if *part != *full {
			t.Errorf("branch %d: firing differs\nrestored: %+v\nfull:     %+v", bi, *part, *full)
		}
		if res.Stop != fres.Stop || res.Steps != fres.Steps || res.Cycles != fres.Cycles {
			t.Errorf("branch %d: outcome differs: %v/%d/%d vs %v/%d/%d",
				bi, res.Stop, res.Steps, res.Cycles, fres.Stop, fres.Steps, fres.Cycles)
		}
	}
}

// Recording degrades gracefully: an interval longer than the run yields
// just the start point, which restores to a full replay.
func TestSinglePointLog(t *testing.T) {
	p := mustAssemble(t)
	snap := warmSnapshot(t, p, dbt.Options{})
	l, err := Record(snap, maxSteps, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Points) != 1 {
		t.Fatalf("%d points, want 1", len(l.Points))
	}
	sd := snap.NewDBT()
	m := l.NewReplayer().Machine(0)
	sd.Resume(m, l.Points[0].Prefix)
	res := sd.Finish(m, sd.Advance(m, maxSteps))
	checkAgainstLog(t, "single", 0, l, res.Stop.Reason, m.CaptureState(), res.Output)
}

func TestRecordRejectsZeroInterval(t *testing.T) {
	p := mustAssemble(t)
	if _, err := Record(warmSnapshot(t, p, dbt.Options{}), 0, maxSteps); err == nil {
		t.Error("Record accepted interval 0")
	}
	if _, err := RecordStatic(p, 0, maxSteps); err == nil {
		t.Error("RecordStatic accepted interval 0")
	}
}

// Property: the replayer's reused machine is, after every Restore, the
// machine a fresh Replayer.Machine would build — registers, counters,
// every memory word and the output — over random point sequences with
// repeats and backward seeks, whatever the previous sample did to it:
// stores anywhere, a partial run of the program, a planted fault and
// hook, a replaced cost model, a runaway output stream.
func TestCkptRestoreMatchesFreshMachine(t *testing.T) {
	p := mustAssemble(t)
	for name, l := range recordedLogs(t) {
		t.Run(name, func(t *testing.T) {
			if len(l.Points) < 4 {
				t.Fatalf("only %d points recorded", len(l.Points))
			}
			r := l.NewReplayer()
			rng := uint64(7)
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int((rng >> 33) % uint64(n))
			}
			k := 0
			for iter := 0; iter < 400; iter++ {
				switch c := next(10); {
				case c < 3: // repeat the current point
				case c < 6: // seek forward
					k += next(len(l.Points) - k)
				default: // anywhere, mostly backward
					k = next(len(l.Points))
				}
				m := r.Restore(k)
				want := l.NewReplayer().Machine(k)
				if m.CaptureState() != want.CaptureState() {
					t.Fatalf("iter %d point %d: state %+v, want %+v", iter, k, m.CaptureState(), want.CaptureState())
				}
				if m.Fault != nil || m.BranchHook != nil || *m.Costs != *want.Costs {
					t.Fatalf("iter %d point %d: fault, hook or cost model survived the restore", iter, k)
				}
				if got, exp := m.Mem.Snapshot(), want.Mem.Snapshot(); !slices.Equal(got, exp) {
					t.Fatalf("iter %d point %d: memory differs", iter, k)
				}
				if !slices.Equal(m.Output, want.Output) {
					t.Fatalf("iter %d point %d: output %v, want %v", iter, k, m.Output, want.Output)
				}
				if cap(m.Output) > 2*len(l.Output)+outputSlack {
					t.Fatalf("iter %d: restored output kept a %d-word buffer", iter, cap(m.Output))
				}

				// Dirty the machine the way a faulty sample might.
				for n := next(20); n > 0; n-- {
					if err := m.Mem.Store(uint32(next(int(l.MemWords))), int32(next(1<<20))); err != nil {
						t.Fatal(err)
					}
				}
				if name == "static" && next(2) == 0 {
					m.Run(p.Code, m.Steps+uint64(next(3000)))
				}
				m.Regs[next(isa.NumRegs)] ^= 1 << next(32)
				m.Fault = &cpu.Fault{BranchIndex: 1}
				m.BranchHook = func(cpu.BranchEvent) {}
				m.Costs = &cpu.CostModel{}
				if next(8) == 0 {
					m.Output = append(m.Output, make([]int32, 4*len(l.Output)+4*outputSlack)...)
				}
			}
		})
	}
}
