package dbt

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/live"
)

// The documented default must stay pinned: campaign reproducibility depends
// on every DBT forming traces at the same dispatch count.
func TestDefaultTraceThreshold(t *testing.T) {
	if defaultTraceThreshold != 16 {
		t.Fatalf("defaultTraceThreshold = %d, want 16", defaultTraceThreshold)
	}
	p := mustAssemble(t, sumSrc)
	if got := New(p, Options{}).opts.TraceThreshold; got != 16 {
		t.Errorf("New with zero TraceThreshold resolved to %d, want 16", got)
	}
	if got := New(p, Options{TraceThreshold: 3}).opts.TraceThreshold; got != 3 {
		t.Errorf("explicit TraceThreshold overridden to %d", got)
	}
	if got := New(p, Options{TraceThreshold: -1}).opts.TraceThreshold; got != -1 {
		t.Errorf("negative TraceThreshold (traces off) overridden to %d", got)
	}
}

// A DBT primed from a warm snapshot must behave exactly like the
// snapshotted instance: same output, same cycles, and no re-translation.
func TestSnapshotPrimesWarmDBT(t *testing.T) {
	p := mustAssemble(t, hotLoopSrc)
	d := New(p, Options{TraceThreshold: 20})
	for i := 0; i < 3; i++ {
		if res := d.Run(nil, 10_000_000); res.Stop.Reason != cpu.StopHalt {
			t.Fatalf("warm-up run %d: %v", i, res.Stop)
		}
	}
	snap := d.Snapshot()
	if snap.CacheLen() != d.CacheLen() {
		t.Fatalf("snapshot cache %d != dbt cache %d", snap.CacheLen(), d.CacheLen())
	}

	warm := d.Run(nil, 10_000_000)
	clone := snap.NewDBT().Run(nil, 10_000_000)
	if clone.Stop != warm.Stop || clone.Cycles != warm.Cycles {
		t.Errorf("clone run (%v, %d cycles) != warm original (%v, %d cycles)",
			clone.Stop, clone.Cycles, warm.Stop, warm.Cycles)
	}
	if len(clone.Output) != len(warm.Output) || clone.Output[0] != warm.Output[0] {
		t.Errorf("clone output %v != %v", clone.Output, warm.Output)
	}
	if clone.Stats.BlocksTranslated != warm.Stats.BlocksTranslated ||
		clone.Stats.TracesFormed != warm.Stats.TracesFormed {
		t.Errorf("clone re-translated: stats %+v != %+v", clone.Stats, warm.Stats)
	}
}

// Mutations on a primed DBT (chaining, fresh translations under a faulty
// run) must stay local to that instance: the snapshot and its siblings are
// unaffected.
func TestSnapshotIsolation(t *testing.T) {
	p := mustAssemble(t, hotLoopSrc)

	// Cold snapshot: every clone starts empty and grows privately.
	cold := New(p, Options{}).Snapshot()
	c1 := cold.NewDBT()
	c1.Run(nil, 10_000_000)
	if c1.CacheLen() == 0 {
		t.Fatal("clone run translated nothing")
	}
	if cold.CacheLen() != 0 {
		t.Errorf("clone run grew the snapshot cache to %d", cold.CacheLen())
	}
	if c2 := cold.NewDBT(); c2.CacheLen() != 0 {
		t.Errorf("sibling clone starts with cache %d, want 0", c2.CacheLen())
	}

	// Warm snapshot: a faulty run (which may chain stubs in place and
	// translate wild targets) must not disturb later clones.
	d := New(p, Options{TraceThreshold: 20})
	for i := 0; i < 3; i++ {
		d.Run(nil, 10_000_000)
	}
	snap := d.Snapshot()
	want := snap.NewDBT().Run(nil, 10_000_000)

	f := &cpu.Fault{Kind: cpu.FaultOffsetBit, BranchIndex: 5, Bit: 9}
	snap.NewDBT().Run(f, 10_000_000)
	if !f.Fired {
		t.Fatal("fault did not fire")
	}

	after := snap.NewDBT().Run(nil, 10_000_000)
	if after.Cycles != want.Cycles || after.Output[0] != want.Output[0] {
		t.Errorf("faulty sibling leaked state: (%d cycles, %v) != (%d cycles, %v)",
			after.Cycles, after.Output, want.Cycles, want.Output)
	}
}

// The lazy liveness analysis must be computed once per snapshot and shared
// by every clone — including clones taken *before* the first Liveness call.
// The sync.Once lives on the Snapshot struct itself (which clones reference
// by pointer), so concurrent samples all observe the same *live.Info.
func TestSnapshotLivenessSharedAcrossClones(t *testing.T) {
	p := mustAssemble(t, hotLoopSrc)
	d := New(p, Options{})
	d.Run(nil, 10_000_000)
	snap := d.Snapshot()

	// Clones taken before any Liveness call.
	for i := 0; i < 4; i++ {
		snap.NewDBT()
	}

	const goroutines = 8
	infos := make([]*live.Info, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			infos[g] = snap.Liveness()
		}(g)
	}
	wg.Wait()
	if infos[0] == nil {
		t.Fatal("Liveness returned nil")
	}
	for g := 1; g < goroutines; g++ {
		if infos[g] != infos[0] {
			t.Fatalf("goroutine %d got a distinct liveness analysis: %p != %p",
				g, infos[g], infos[0])
		}
	}
	if again := snap.Liveness(); again != infos[0] {
		t.Fatalf("later call recomputed the analysis: %p != %p", again, infos[0])
	}
}

// rareSrc has a path clean runs never take, so a flag fault that flips
// the guarding branch makes a warm clone translate a new block.
const rareSrc = `
main:
    movi eax, 0
    movi ecx, 50
loop:
    addi eax, 3
    cmpi eax, 100000
    jgt rare
back:
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    out eax
    halt
rare:
    addi eax, 7
    out eax
    jmp back
`

// Reset must leave a clone that ran a sample — chain patching, new
// translations, a disabled compiled view — equal to a fresh NewDBT: same
// cache, translation list, stubs, stats, block maps and plan, zero
// compiled-backend stats and an enabled view; and it must then run to the
// same Result.
func TestCkptResetCloneMatchesFresh(t *testing.T) {
	warm := func(src string, threshold, runs int) *Snapshot {
		d := New(mustAssemble(t, src), Options{TraceThreshold: threshold, Backend: comp.BackendCompile})
		for i := 0; i < runs; i++ {
			if res := d.Run(nil, 10_000_000); res.Stop.Reason != cpu.StopHalt {
				t.Fatalf("warm-up run %d: %v", i, res.Stop)
			}
		}
		return d.Snapshot()
	}
	// hotLoopSrc loops 500 times: at threshold 800 the back-edge stub is
	// still profiling when the snapshot is taken after one run, so a
	// clone's run forms the trace and chain-patches the stub.
	profiling, stable := warm(hotLoopSrc, 800, 1), warm(rareSrc, 20, 4)
	var wild *cpu.Fault
	for b := uint64(0); b < 40 && wild == nil; b++ {
		for bit := uint(0); bit < isa.NumFlagBits; bit++ {
			f := &cpu.Fault{Kind: cpu.FaultFlagBit, BranchIndex: b, Bit: bit}
			if res := stable.NewDBT().Run(f, 1_000_000); res.Stats.Sub(stable.Stats()).BlocksTranslated > 0 {
				wild = &cpu.Fault{Kind: f.Kind, BranchIndex: b, Bit: bit}
				break
			}
		}
	}
	if wild == nil {
		t.Fatal("no flag fault made a warm clone translate a new block")
	}

	cases := []struct {
		name   string
		snap   *Snapshot
		sample func(d *DBT)
		check  func(d *DBT) bool // the sample really did what it is named for
	}{
		{"chain-patched", profiling,
			func(d *DBT) { d.Run(nil, 10_000_000) },
			func(d *DBT) bool { return chained(d.stubs) > chained(profiling.stubs) }},
		{"wild-translation", stable,
			func(d *DBT) { f := *wild; d.Run(&f, 1_000_000) },
			func(d *DBT) bool { return d.blocks != nil && len(d.cache) > stable.CacheLen() }},
		{"view-disabled", stable,
			func(d *DBT) { d.Invalidate(); d.Run(nil, 10_000_000) },
			func(d *DBT) bool { return viewDisabled(d) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := c.snap.NewDBT()
			c.sample(d)
			if !c.check(d) {
				t.Fatal("the sample did not exercise what the case is named for")
			}
			c.snap.Reset(d)
			fresh := c.snap.NewDBT()
			if !reflect.DeepEqual(d, fresh) {
				t.Fatalf("reset clone differs from a fresh clone\n got: %+v\nwant: %+v", d, fresh)
			}
			if d.CompStats() != (comp.Stats{}) || viewDisabled(d) {
				t.Fatalf("compiled view not reset: stats %+v, disabled %v", d.CompStats(), viewDisabled(d))
			}
			got, want := d.Run(nil, 10_000_000), fresh.Run(nil, 10_000_000)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reset clone ran to %+v, fresh clone to %+v", got, want)
			}
		})
	}
}

// chained counts the chain-patched stubs.
func chained(stubs []stub) int {
	n := 0
	for _, s := range stubs {
		if s.chained {
			n++
		}
	}
	return n
}

// viewDisabled reads the compiled view's unexported disable flag.
func viewDisabled(d *DBT) bool {
	return reflect.ValueOf(d.comp).Elem().FieldByName("disabled").Bool()
}
