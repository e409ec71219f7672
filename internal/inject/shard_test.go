package inject

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/dbt"
)

// shardRunner runs one campaign (dynamic technique or static label) so the
// offset/merge properties can be exercised uniformly across all six
// techniques.
type shardRunner struct {
	name string
	run  func(t *testing.T, cfg Config) *Report
}

func shardRunners(t *testing.T) []shardRunner {
	t.Helper()
	p := mustAssemble(t, workload)
	runners := []shardRunner{}
	for _, name := range []string{"none", "EdgCF", "RCF", "ECF"} {
		tech, err := check.New(name, dbt.UpdateCmov)
		if err != nil {
			t.Fatal(err)
		}
		runners = append(runners, shardRunner{name: name, run: func(t *testing.T, cfg Config) *Report {
			cfg.Technique = tech
			rep, err := Execute(context.Background(), p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}})
	}
	for _, s := range []struct {
		kind  check.StaticKind
		label string
	}{{check.StaticCFCSS, "CFCSS"}, {check.StaticECCA, "ECCA"}} {
		ip, err := check.InstrumentStatic(p, s.kind)
		if err != nil {
			t.Fatal(err)
		}
		label := s.label
		runners = append(runners, shardRunner{name: label, run: func(t *testing.T, cfg Config) *Report {
			rep, err := Execute(context.Background(), ip, cfg, AsStatic(label))
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}})
	}
	return runners
}

// A shard campaign over [offset, offset+n) must derive, for its local
// sample i, exactly the fault the unsharded campaign derives for global
// index offset+i — same splitmix64 stream, same firing telemetry, same
// classification — across all six techniques and both engines.
func TestSampleOffsetMatchesGlobalIndex(t *testing.T) {
	const (
		seed    = int64(9)
		total   = 60
		offset  = 20
		samples = 20
	)
	for _, r := range shardRunners(t) {
		for _, iv := range []int64{0, -1} {
			base := Config{
				Samples:     total,
				Seed:        seed,
				KeepRecords: true,
				MaxSteps:    2_000_000,
				Options:     Options{Workers: 1, CkptInterval: iv},
			}
			full := r.run(t, base)
			shardCfg := base
			shardCfg.SampleOffset = offset
			shardCfg.Samples = samples
			shard := r.run(t, shardCfg)
			if shard.SampleOffset != offset {
				t.Fatalf("%s iv=%d: report offset %d, want %d", r.name, iv, shard.SampleOffset, offset)
			}
			var want []Record
			for _, rec := range full.Records {
				if rec.Sample >= offset && rec.Sample < offset+samples {
					want = append(want, rec)
				}
			}
			if !reflect.DeepEqual(shard.Records, want) {
				t.Errorf("%s iv=%d: shard records differ from the unsharded slice\n got: %+v\nwant: %+v",
					r.name, iv, shard.Records, want)
			}
		}
	}
	// The derived seed itself is pinned: shard-local i is global offset+i.
	for i := 0; i < samples; i++ {
		local := Config{Seed: seed, SampleOffset: offset}
		rng := newSampleRNG(local.Seed, local.SampleOffset+i)
		if got, want := rng.state, sampleSeed(seed, offset+i); got != want {
			t.Fatalf("sample %d: derived state %#x, want %#x", i, got, want)
		}
	}
}

// Any contiguous partition of a campaign must merge back to a report whose
// FormatNormalized text is byte-identical to the unsharded run, for both
// engines, dynamic and static techniques, and worker counts 1 and 4 — and
// the engine telemetry must still account for every sample.
func TestMergeReportsPartition(t *testing.T) {
	p := mustAssemble(t, workload)
	ip, err := check.InstrumentStatic(p, check.StaticCFCSS)
	if err != nil {
		t.Fatal(err)
	}
	tech := &check.RCF{Style: dbt.UpdateCmov}
	run := func(t *testing.T, static bool, cfg Config) *Report {
		t.Helper()
		var rep *Report
		if static {
			rep, err = Execute(context.Background(), ip, cfg, AsStatic("CFCSS"))
		} else {
			cfg.Technique = tech
			rep, err = Execute(context.Background(), p, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	const total = 60
	partitions := [][]int{{total}, {30, 30}, {17, 20, 23}, {1, 59}}
	for _, static := range []bool{false, true} {
		kind := "dynamic"
		if static {
			kind = "static"
		}
		for _, iv := range []int64{0, -1} {
			base := Config{
				Samples:     total,
				Seed:        42,
				KeepRecords: true,
				MaxSteps:    2_000_000,
				Options:     Options{Workers: 1, CkptInterval: iv},
			}
			full := run(t, static, base)
			wantText := FormatNormalized(full)
			for _, sizes := range partitions {
				for _, w := range []int{1, 4} {
					parts := make([]*Report, 0, len(sizes))
					off := 0
					for _, n := range sizes {
						cfg := base
						cfg.SampleOffset = off
						cfg.Samples = n
						cfg.Workers = w
						parts = append(parts, run(t, static, cfg))
						off += n
					}
					// Merge must not depend on shard order.
					for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
						parts[i], parts[j] = parts[j], parts[i]
					}
					merged, err := MergeReports(parts)
					if err != nil {
						t.Fatalf("%s iv=%d workers=%d %v: %v", kind, iv, w, sizes, err)
					}
					if got := FormatNormalized(merged); got != wantText {
						t.Errorf("%s iv=%d workers=%d %v: merged normalized report differs\n got:\n%s\nwant:\n%s",
							kind, iv, w, sizes, got, wantText)
					}
					if merged.Executed+merged.ShortOffset+merged.ShortLive != merged.Samples {
						t.Errorf("%s iv=%d workers=%d %v: engine telemetry %d+%d+%d != %d samples",
							kind, iv, w, sizes,
							merged.Executed, merged.ShortOffset, merged.ShortLive, merged.Samples)
					}
					if !reflect.DeepEqual(merged.Records, full.Records) {
						t.Errorf("%s iv=%d workers=%d %v: merged records differ from the unsharded run",
							kind, iv, w, sizes)
					}
				}
			}
		}
	}
}

// Merge validation: gaps, overlaps and mismatched campaigns are rejected.
func TestMergeReportsValidation(t *testing.T) {
	mk := func(program string, offset, samples int) *Report {
		return &Report{Program: program, Technique: "RCF", Samples: samples, SampleOffset: offset}
	}
	if _, err := MergeReports(nil); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := MergeReports([]*Report{mk("a", 0, 10), mk("a", 20, 10)}); err == nil {
		t.Error("gap accepted")
	}
	if _, err := MergeReports([]*Report{mk("a", 0, 10), mk("a", 5, 10)}); err == nil {
		t.Error("overlap accepted")
	}
	if _, err := MergeReports([]*Report{mk("a", 0, 10), mk("b", 10, 10)}); err == nil {
		t.Error("mismatched program accepted")
	}
	if m, err := MergeReports([]*Report{mk("a", 10, 5), mk("a", 15, 5)}); err != nil {
		t.Errorf("contiguous non-zero-based shards rejected: %v", err)
	} else if m.SampleOffset != 10 || m.Samples != 10 {
		t.Errorf("merged range [%d,+%d), want [10,+10)", m.SampleOffset, m.Samples)
	}
}
