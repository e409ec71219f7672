package comp

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
)

const engineWorkload = `
main:
    movi eax, 0
    movi ecx, 12
    movi esi, 3
loop:
    add eax, ecx
    push ecx
    call double
    pop ecx
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    fadd edx, esi
    cmoveq ebx, eax
    out eax
    halt
double:
    movi ebx, 2
    mul ebx, ebx
    out ebx
    ret
`

func engineProgram(t *testing.T) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("engine", engineWorkload)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// blockStarts lists every address block-compiled execution can enter in
// code: the entry, fall-throughs past a terminator and direct-branch
// targets.
func blockStarts(code []isa.Instr) []uint32 {
	starts := []uint32{0}
	for a, in := range code {
		if in.Op.IsTerminator() && a+1 < len(code) {
			starts = append(starts, uint32(a+1))
		}
		if in.Op.IsDirectBranch() {
			starts = append(starts, in.Target(uint32(a)))
		}
	}
	return starts
}

// requireSame fails unless got ended exactly like the step oracle ref:
// same Stop, architectural and counter state, output and fault record.
func requireSame(t *testing.T, ref *cpu.Machine, refStop cpu.Stop, got *cpu.Machine, stop cpu.Stop) {
	t.Helper()
	if stop != refStop {
		t.Fatalf("stop = %v, step oracle = %v", stop, refStop)
	}
	if ref.CaptureState() != got.CaptureState() {
		t.Fatalf("state diverged:\nstep %+v\ncomp %+v", ref.CaptureState(), got.CaptureState())
	}
	if !reflect.DeepEqual(ref.Output, got.Output) {
		t.Fatalf("output diverged: step %v comp %v", ref.Output, got.Output)
	}
	if (ref.Fault == nil) != (got.Fault == nil) {
		t.Fatal("fault presence diverged")
	}
	if ref.Fault != nil && *ref.Fault != *got.Fault {
		t.Fatalf("fault record diverged:\nstep %+v\ncomp %+v", *ref.Fault, *got.Fault)
	}
}

// runBoth executes p on the step oracle and on a fresh adaptive engine
// whose threshold of one compiles every block on its first pass, so every
// re-entered block runs compiled, and requires identical outcomes.
func runBoth(t *testing.T, p *isa.Program, maxSteps uint64, fault *cpu.Fault) cpu.Stop {
	t.Helper()
	ref := cpu.New()
	ref.Reset(p)
	m := cpu.New()
	m.Reset(p)
	if fault != nil {
		f, g := *fault, *fault
		ref.Fault, m.Fault = &f, &g
	}
	refStop := ref.Run(p.Code, maxSteps)
	stop := NewEngine(p.Code, m.Costs, 1).Run(m, maxSteps)
	requireSame(t, ref, refStop, m, stop)
	return stop
}

func TestEngineMatchesRun(t *testing.T) {
	if stop := runBoth(t, engineProgram(t), 1_000_000, nil); stop.Reason != cpu.StopHalt {
		t.Fatalf("stop = %v, want halt", stop)
	}
}

func TestEngineOutOfSteps(t *testing.T) {
	p := engineProgram(t)
	for _, budget := range []uint64{0, 1, 2, 3, 5, 7, 11, 17, 23, 40} {
		runBoth(t, p, budget, nil)
	}
}

func TestEngineBranchFaults(t *testing.T) {
	p := engineProgram(t)
	for _, kind := range []cpu.FaultKind{cpu.FaultOffsetBit, cpu.FaultFlagBit} {
		for idx := uint64(0); idx < 30; idx++ {
			for _, bit := range []uint{0, 1, 3, 7, 31} {
				runBoth(t, p, 10_000, &cpu.Fault{Kind: kind, BranchIndex: idx, Bit: bit})
			}
		}
	}
}

func TestEngineRegFaults(t *testing.T) {
	p := engineProgram(t)
	for step := uint64(0); step < 120; step += 7 {
		for _, reg := range []isa.Reg{isa.EAX, isa.ECX, isa.ESP} {
			runBoth(t, p, 10_000, &cpu.Fault{Kind: cpu.FaultRegBit, StepIndex: step, Reg: reg, Bit: 5})
		}
	}
}

// Resuming an engine run in chunks must agree with one uninterrupted step
// run, the way checkpoint recording pauses at every capture boundary.
func TestEngineChunkedResume(t *testing.T) {
	p := engineProgram(t)
	ref := cpu.New()
	ref.Reset(p)
	refStop := ref.Run(p.Code, 1_000_000)

	m := cpu.New()
	m.Reset(p)
	eng := NewEngine(p.Code, m.Costs, 1)
	var stop cpu.Stop
	for {
		stop = eng.Run(m, m.Steps+5)
		if stop.Reason != cpu.StopOutOfSteps {
			break
		}
	}
	requireSame(t, ref, refStop, m, stop)
}

// A frozen view whose code is patched under a compiled block disables
// itself and finishes on Machine.Run over the patched code, following
// later Syncs onto reallocated code; the shared core and fresh views are
// untouched.
func TestDisabledViewMatchesRun(t *testing.T) {
	p := engineProgram(t)
	eng := NewEngine(p.Code, nil, 0)
	eng.Freeze(blockStarts(p.Code))

	code := append([]isa.Instr(nil), p.Code...)
	v := eng.Clone()
	v.Sync(code)
	code[1].Imm = 5 // movi ecx, 12 -> movi ecx, 5: inside the entry block
	v.Redecode(1)
	if !v.disabled {
		t.Fatal("patch under a compiled block left the view enabled")
	}
	if eng.Clone().disabled || eng.disabled {
		t.Fatal("disabling one view disabled the shared core")
	}
	// Reallocate (as a growing code cache does) and patch only the new
	// slice: the disabled view must run what it was last synced onto.
	code = append(code[:len(code):len(code)], isa.Instr{Op: isa.OpHalt})
	code[2].Imm = 4 // movi esi, 3 -> movi esi, 4
	v.Sync(code)

	ref := cpu.New()
	ref.Reset(p)
	refStop := ref.Run(code, 1_000_000)
	m := cpu.New()
	m.Reset(p)
	stop := v.Run(m, 1_000_000)
	requireSame(t, ref, refStop, m, stop)
	if v.Stats != (Stats{}) {
		t.Fatalf("disabled view did compiled work: %+v", v.Stats)
	}
}

// A machine with a BranchHook runs on Machine.Run even over a frozen core
// whose every block is compiled: same outcome and the same hook events, in
// order.
func TestBranchHookRunMatchesRun(t *testing.T) {
	p := engineProgram(t)
	eng := NewEngine(p.Code, nil, 0)
	eng.Freeze(blockStarts(p.Code))

	var refEvents, events []cpu.BranchEvent
	ref := cpu.New()
	ref.Reset(p)
	ref.BranchHook = func(ev cpu.BranchEvent) { refEvents = append(refEvents, ev) }
	refStop := ref.Run(p.Code, 1_000_000)

	m := cpu.New()
	m.Reset(p)
	m.BranchHook = func(ev cpu.BranchEvent) { events = append(events, ev) }
	v := eng.Clone()
	stop := v.Run(m, 1_000_000)
	requireSame(t, ref, refStop, m, stop)
	if len(refEvents) == 0 || !reflect.DeepEqual(refEvents, events) {
		t.Fatalf("hook events diverged: step %d events, comp %d", len(refEvents), len(events))
	}
	if v.Stats.ChainHits != 0 {
		t.Fatalf("hooked run took %d chain hits, want the step path only", v.Stats.ChainHits)
	}
}

// Compiled execution of a hot self-loop must not allocate.
func TestEngineRunZeroAllocs(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.OpAddI, RD: isa.EAX, Imm: 1},
		{Op: isa.OpJmp, Imm: -2},
	}
	m := cpu.New()
	m.Mem = nil // the loop touches no memory
	eng := NewEngine(code, m.Costs, 0)
	allocs := testing.AllocsPerRun(100, func() {
		stop := eng.Run(m, m.Steps+1024)
		if stop.Reason != cpu.StopOutOfSteps {
			t.Fatalf("stop = %v", stop)
		}
	})
	if allocs != 0 {
		t.Fatalf("Run allocates %.1f times per 1024-step run, want 0", allocs)
	}
	if eng.Stats.BlocksCompiled == 0 {
		t.Fatal("the self-loop never compiled")
	}
}

func TestParseBackend(t *testing.T) {
	for _, b := range []Backend{BackendAuto, BackendStep, BackendCompile} {
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Errorf("ParseBackend(%q) = %v, %v", b.String(), got, err)
		}
	}
	for _, s := range []string{"plan", "", "Compile"} {
		if _, err := ParseBackend(s); err == nil {
			t.Errorf("ParseBackend(%q) accepted", s)
		}
	}
}
