package core

import (
	"context"
	"testing"

	"repro/internal/cpu"
)

func TestConfigResolve(t *testing.T) {
	ok := []Config{
		{},
		{Technique: "RCF", Style: "CMOVcc", Policy: "RET-BE"},
		{Technique: "EdgCF", Style: "Jcc", Policy: "END"},
		{Technique: "ECF", Policy: "RET"},
	}
	for _, c := range ok {
		if _, _, err := c.Resolve(); err != nil {
			t.Errorf("Resolve(%+v) = %v", c, err)
		}
	}
	bad := []Config{
		{Technique: "bogus"},
		{Style: "bogus"},
		{Policy: "bogus"},
	}
	for _, c := range bad {
		if _, _, err := c.Resolve(); err == nil {
			t.Errorf("Resolve(%+v) should fail", c)
		}
	}
}

func TestWorkloadFacade(t *testing.T) {
	if len(WorkloadNames()) != 26 {
		t.Fatal("workload list wrong")
	}
	p, err := Workload("181.mcf", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	nat := RunNative(p, 100_000_000)
	if nat.Stop.Reason != cpu.StopHalt || len(nat.Output) == 0 {
		t.Fatalf("native: %v %v", nat.Stop, nat.Output)
	}
	res, err := RunDBT(p, Config{Technique: "RCF"}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop.Reason != cpu.StopHalt {
		t.Fatalf("dbt: %v", res.Stop)
	}
	if len(res.Output) != len(nat.Output) || res.Output[0] != nat.Output[0] {
		t.Error("instrumented output differs from native")
	}
	if _, err := Workload("nope", 1); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestAssembleFacade(t *testing.T) {
	p, err := Assemble("hello", "movi eax, 5\nout eax\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	if out := RunNative(p, 100).Output; len(out) != 1 || out[0] != 5 {
		t.Errorf("output = %v", out)
	}
	if Disassemble(p) == "" {
		t.Error("empty disassembly")
	}
	if _, err := Assemble("bad", "zork\n"); err == nil {
		t.Error("bad source should fail")
	}
}

func TestAnalyzeAndInjectFacade(t *testing.T) {
	p, err := Workload("164.gzip", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := AnalyzeErrors(p, 500_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Total == 0 {
		t.Error("no fault sites")
	}
	cfg := Config{Technique: "EdgCF", Style: "CMOVcc"}
	cfg.Workers = 2
	rep, err := InjectCtx(context.Background(), p, cfg, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Total == 0 {
		t.Error("no faults fired")
	}
	bad := Config{Technique: "zzz"}
	bad.Workers = 1
	if _, err := InjectCtx(context.Background(), p, bad, 1, 1); err == nil {
		t.Error("bad config should fail")
	}
}

func TestVerifySchemeFacade(t *testing.T) {
	for name, wantSufficient := range map[string]bool{
		"EdgCF": true, "RCF": true, "ECF": false, "CFCSS": false, "ECCA": false,
	} {
		res, err := VerifyScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Necessary {
			t.Errorf("%s: false positives", name)
		}
		if res.Sufficient != wantSufficient {
			t.Errorf("%s: sufficient = %v, want %v", name, res.Sufficient, wantSufficient)
		}
	}
	if _, err := VerifyScheme("zork"); err == nil {
		t.Error("unknown scheme should fail")
	}
}
