package ckpt

import (
	"bytes"
	"testing"

	"repro/internal/check"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// recordStaticStep is RecordStatic driven by the step oracle: the same
// capture schedule with Machine.Run advancing every interval chunk.
func recordStaticStep(p *isa.Program, interval, maxSteps uint64) *Log {
	m := cpu.New()
	m.Reset(p)
	l := &Log{Interval: interval}
	l.capture(m, dbt.Stats{})
	for {
		target := min(m.Steps+interval, maxSteps)
		stop := m.Run(p.Code, target)
		if stop.Reason != cpu.StopOutOfSteps || target >= maxSteps {
			l.finish(m, stop, dbt.Stats{}, 0)
			return l
		}
		l.capture(m, dbt.Stats{})
	}
}

// RecordStatic drives an adaptive compiled engine across interval chunks;
// its log must encode byte-identically to a step-driven recording for
// every workload, native and CFCSS-instrumented, at an odd interval that
// splits blocks and at the auto-sized one.
func TestRecordStaticMatchesStepRecording(t *testing.T) {
	for _, prof := range workloads.All() {
		base, err := prof.Build(0.05)
		if err != nil {
			t.Fatalf("%s: build: %v", prof.Name, err)
		}
		cfcss, err := check.InstrumentStatic(base, check.StaticCFCSS)
		if err != nil {
			t.Fatalf("%s: instrument: %v", prof.Name, err)
		}
		for label, p := range map[string]*isa.Program{"native": base, "CFCSS": cfcss} {
			ref := recordStaticStep(p, 997, maxSteps)
			if !ref.Complete() || len(ref.Points) < 3 {
				t.Fatalf("%s/%s: reference ended with %v after %d points", prof.Name, label, ref.Stop, len(ref.Points))
			}
			for _, iv := range []uint64{997, AutoInterval(-1, ref.Final.Steps)} {
				want := recordStaticStep(p, iv, maxSteps)
				got, err := RecordStatic(p, iv, maxSteps)
				if err != nil {
					t.Fatalf("%s/%s: %v", prof.Name, label, err)
				}
				if !bytes.Equal(got.Encode(testFingerprint), want.Encode(testFingerprint)) {
					t.Errorf("%s/%s interval %d: compiled recording differs from the step recording", prof.Name, label, iv)
				}
			}
		}
	}
}
