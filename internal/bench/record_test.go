package bench

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fakeTrials returns a trial function that yields recs in order and fails
// the test if it is called more often.
func fakeTrials(t *testing.T, recs ...record) trialFunc {
	n := 0
	return func(context.Context) (record, error) {
		if n == len(recs) {
			t.Fatalf("trial %d run after the runner should have stopped", n+1)
		}
		n++
		return recs[n-1], nil
	}
}

func readRecord(t *testing.T, path string) map[string]any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return m
}

// A trial that breaks identity is the written record at once, however
// fast it ran; no later trial runs.
func TestRecordWritesFailingTrial(t *testing.T) {
	for _, tc := range []struct {
		name   string
		recs   []record
		field  string
		header float64
	}{
		{"ckpt", []record{
			&ckptRecord{Speedup: 4, Identical: true},
			&ckptRecord{Speedup: 400, Identical: false},
		}, "identical", 400},
		{"inject", []record{
			&injectRecord{Speedup: 1.1, Deterministic: true},
			&injectRecord{Speedup: 90, Deterministic: false},
		}, "deterministic", 90},
		{"artifact", []record{
			&artifactRecord{Speedup: 3, Identical: true, FetchedRestores: 1},
			&artifactRecord{Speedup: 30, Identical: true, FetchedRestores: 0, FetchedWarmBuilds: 1},
		}, "", 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rec, err := writeRecord(context.Background(), dir, tc.name, fakeTrials(t, tc.recs...))
			if err != nil {
				t.Fatal(err)
			}
			if rec.correct() {
				t.Fatal("the failing trial was not the record")
			}
			m := readRecord(t, filepath.Join(dir, "BENCH_"+tc.name+".json"))
			if tc.field != "" && m[tc.field] != false {
				t.Errorf("%s = %v, want false", tc.field, m[tc.field])
			}
			if m["trials"] != 2.0 || m["speedup"] != tc.header {
				t.Errorf("trials %v speedup %v, want 2 and %v", m["trials"], m["speedup"], tc.header)
			}
			if m["speedup_min"] != tc.recs[0].headline() || m["speedup_max"] != tc.header {
				t.Errorf("range %v..%v, want %v..%v", m["speedup_min"], m["speedup_max"], tc.recs[0].headline(), tc.header)
			}
		})
	}
}

// With every trial correct, the record is the median-headline trial and
// its range spans all three.
func TestRecordPicksMedianTrial(t *testing.T) {
	rec, err := measure(context.Background(), fakeTrials(t,
		&serveRecord{Speedup: 5, ColdSec: 5, Identical: true},
		&serveRecord{Speedup: 2, ColdSec: 2, Identical: true},
		&serveRecord{Speedup: 9, ColdSec: 9, Identical: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	got := rec.(*serveRecord)
	if got.ColdSec != 5 || got.Trials != trials || got.SpeedupMin != 2 || got.SpeedupMax != 9 {
		t.Errorf("picked %+v, want the speedup-5 trial over 2..9 and %d trials", got, trials)
	}
	if got.GOMAXPROCS == 0 || got.NumCPU == 0 {
		t.Error("host fields not filled")
	}

	// scale's headline is best_speedup.
	rec, err = measure(context.Background(), fakeTrials(t,
		&scaleRecord{BestSpeedup: 7, Identical: true},
		&scaleRecord{BestSpeedup: 3, Identical: true},
		&scaleRecord{BestSpeedup: 4, Identical: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	if s := rec.(*scaleRecord); s.BestSpeedup != 4 || s.SpeedupMin != 3 || s.SpeedupMax != 7 {
		t.Errorf("scale picked best_speedup %v over %v..%v, want 4 over 3..7", s.BestSpeedup, s.SpeedupMin, s.SpeedupMax)
	}
}

// An unknown name fails before any record runs or any file is written.
func TestWriteRecordsRejectsUnknownName(t *testing.T) {
	dir := t.TempDir()
	var log strings.Builder
	err := WriteRecords(context.Background(), dir, "step,nosuch", &log)
	if err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Fatalf("err = %v, want an unknown-record error", err)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 || log.Len() != 0 {
		t.Errorf("wrote %d files and logged %q before rejecting the name", len(files), log.String())
	}
}

// The registered names are exactly the committed BENCH_<name>.json
// records, and each committed record was picked from three correct trials.
func TestRecordNamesMatchCommittedFiles(t *testing.T) {
	var want []string
	for _, r := range records {
		want = append(want, "BENCH_"+r.name+".json")
	}
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range paths {
		// The plain campaign's metrics snapshot, not a record.
		if filepath.Base(p) == "BENCH_metrics.json" {
			continue
		}
		got = append(got, filepath.Base(p))
		m := readRecord(t, p)
		if m["trials"] != float64(trials) {
			t.Errorf("%s: trials = %v, want %d", p, m["trials"], trials)
		}
		if m["identical"] != true && m["deterministic"] != true {
			t.Errorf("%s: neither identical nor deterministic is true", p)
		}
	}
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("committed records %v, registered %v", got, want)
	}
}
