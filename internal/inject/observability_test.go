package inject

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestProgressSnapshotDeterminism: once a campaign completes, the
// progress tracker's deterministic fold (Done, Total, outcome tallies)
// must be identical for every worker count and engine.
func TestProgressSnapshotDeterminism(t *testing.T) {
	p := mustAssemble(t, workload)
	run := func(workers int, ckpt int64) obs.ProgressSnapshot {
		pr := obs.NewProgress()
		rep, err := Execute(context.Background(), p, Config{
			Samples: 200, Seed: 42,
			Options: Options{Workers: workers, CkptInterval: ckpt, Progress: pr},
		})
		if err != nil {
			t.Fatalf("workers=%d ckpt=%d: %v", workers, ckpt, err)
		}
		s := pr.Snapshot().Deterministic()
		if s.Done != int64(rep.Samples) || s.Total != int64(rep.Samples) {
			t.Fatalf("workers=%d: done/total = %d/%d, want %d", workers, s.Done, s.Total, rep.Samples)
		}
		if s.Tallies["not-fired"] != int64(rep.NotFired) {
			t.Fatalf("workers=%d: not-fired tally = %d, want %d", workers, s.Tallies["not-fired"], rep.NotFired)
		}
		return s
	}
	serial := run(1, 0)
	for _, w := range []int{4} {
		if got := run(w, 0); !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d progress %+v != serial %+v", w, got, serial)
		}
	}
	// The checkpoint engine counts the same samples, just in site order.
	if got := run(4, -1); !reflect.DeepEqual(got, serial) {
		t.Errorf("ckpt engine progress %+v != replay %+v", got, serial)
	}
}

// decodeDumps parses a flight recorder's JSONL output.
func decodeDumps(t *testing.T, buf *bytes.Buffer) []obs.FlightDump {
	t.Helper()
	var dumps []obs.FlightDump
	sc := bufio.NewScanner(buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var d obs.FlightDump
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad dump line: %v", err)
		}
		dumps = append(dumps, d)
	}
	return dumps
}

// checkDumps asserts the forensic invariants every dump must satisfy: the
// deterministic re-run reproduces the campaign's classification, the ring
// is non-empty, and its final event is the stop.
func checkDumps(t *testing.T, dumps []obs.FlightDump, rep *Report) {
	t.Helper()
	anomalies := rep.Totals.Count[OutSDC] + rep.Totals.Count[OutHang]
	if len(dumps) != anomalies {
		t.Fatalf("%d dumps for %d anomalous outcomes", len(dumps), anomalies)
	}
	for _, d := range dumps {
		if d.Replayed != d.Outcome {
			t.Errorf("sample %d: re-run classified %s, campaign %s", d.Sample, d.Replayed, d.Outcome)
		}
		if len(d.Events) == 0 {
			t.Errorf("sample %d: empty event ring", d.Sample)
			continue
		}
		if last := d.Events[len(d.Events)-1]; last.Kind != obs.EvStop {
			t.Errorf("sample %d: last event kind %q, want %q", d.Sample, last.Kind, obs.EvStop)
		}
		if d.SampleSeed == 0 {
			t.Errorf("sample %d: zero sample seed", d.Sample)
		}
	}
}

// TestFlightRecorderCampaign: an unprotected campaign produces SDCs, and
// every anomalous sample must yield a dump whose re-run agrees with the
// campaign classification — under both the replay and checkpoint engines.
func TestFlightRecorderCampaign(t *testing.T) {
	p := mustAssemble(t, workload)
	for _, ckpt := range []int64{0, -1} {
		var buf bytes.Buffer
		fr := obs.NewFlightRecorder(&buf, 16)
		rep, err := Execute(context.Background(), p, Config{
			Samples: 200, Seed: 42,
			Options: Options{Workers: 4, CkptInterval: ckpt, Flight: fr},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := fr.Close(); err != nil {
			t.Fatal(err)
		}
		if rep.Totals.Count[OutSDC] == 0 {
			t.Fatalf("ckpt=%d: unprotected campaign produced no SDCs", ckpt)
		}
		if fr.Dumps() == 0 {
			t.Fatalf("ckpt=%d: no flight dumps", ckpt)
		}
		checkDumps(t, decodeDumps(t, &buf), rep)
	}
}

// TestFlightRecorderStatic: same invariants for native campaigns.
func TestFlightRecorderStatic(t *testing.T) {
	p := mustAssemble(t, workload)
	var buf bytes.Buffer
	fr := obs.NewFlightRecorder(&buf, 16)
	rep, err := Execute(context.Background(), p, Config{
		Samples: 200, Seed: 42,
		Options: Options{Workers: 4, Flight: fr},
	}, AsStatic("none"))
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Count[OutSDC]+rep.Totals.Count[OutHang] == 0 {
		t.Skip("no anomalous outcomes in static campaign")
	}
	checkDumps(t, decodeDumps(t, &buf), rep)
}

// TestObservabilityLeavesReportsIdentical: enabling metrics, progress and
// the flight recorder together must not change the normalized report —
// the invariant the CI byte-identity gate asserts end to end.
func TestObservabilityLeavesReportsIdentical(t *testing.T) {
	p := mustAssemble(t, workload)
	run := func(workers int, instrumented bool) string {
		cfg := Config{Samples: 200, Seed: 42, Options: Options{Workers: workers}}
		if instrumented {
			cfg.Metrics = obs.NewRegistry()
			cfg.Progress = obs.NewProgress()
			cfg.Flight = obs.NewFlightRecorder(&bytes.Buffer{}, 8)
		}
		rep, err := Execute(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return FormatNormalized(rep)
	}
	plain := run(1, false)
	for _, w := range []int{1, 4} {
		if got := run(w, true); got != plain {
			t.Errorf("workers=%d instrumented report differs:\n%s\n---\n%s", w, got, plain)
		}
	}
}
