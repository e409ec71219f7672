// Command cfc-bench regenerates the paper's performance figures over the
// synthetic SPEC2000 suite:
//
//	-fig 12     per-benchmark slowdown of RCF/EdgCF/ECF (Figure 12)
//	-fig 14     Jcc vs CMOVcc update styles (Figure 14)
//	-fig 15     RCF under the four checking policies (Figure 15)
//	-fig dbt    uninstrumented translator overhead vs native (Section 6 text)
//	-fig ablate  design-choice ablations (chaining, traces, xor-vs-lea, DFC)
//	-fig dfc     register-fault coverage of data-flow checking (future work)
//	-fig latency policy trade-off: slowdown vs coverage vs report latency
//	-fig all     everything
//
// -workers fans the per-benchmark runs (and campaign samples) across a
// goroutine pool; results are identical for every worker count.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/graph"
	"repro/internal/obs"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "which figure: 12|14|15|dbt|all")
		scale    = flag.Float64("scale", 1.0, "workload dynamic scale")
		stepOut  = flag.String("step-json", "", "run the step-throughput microbench (step interpreter vs compiled) and write the record to this file")
		graphOut = flag.String("graph-json", "", "run the full coverage matrix cold then hot against a graph cell cache and write the record to this file")
	)
	app := cli.App{CkptInterval: -1}
	app.BindFlags(flag.CommandLine)
	flag.Parse()
	fatalIf(app.Open())
	if *stepOut != "" {
		fatalIf(writeStepJSON(*stepOut, *scale))
		fatalIf(app.Close())
		return
	}
	if *graphOut != "" {
		fatalIf(writeGraphJSON(*graphOut, minF(*scale, 0.05), app.Workers, app.CkptInterval))
		fatalIf(app.Close())
		return
	}
	reg := app.Registry()
	workers, ckptIv := &app.Workers, &app.CkptInterval

	run := func(name string) {
		// Figure-level section markers; the campaign-running figures do
		// not rebuild per-sample traces here (use cfc-inject for that).
		app.Tracer().Emit(obs.Event{Kind: obs.EvCampaignStart, Detail: "figure:" + name})
		defer app.Tracer().Emit(obs.Event{Kind: obs.EvCampaignEnd, Detail: "figure:" + name})
		switch name {
		case "12":
			t, err := bench.Figure12(*scale, *workers)
			fatalIf(err)
			fmt.Print(bench.FormatSlowdownTable(t))
			bench.PublishSlowdownTable(reg, "12", t)
		case "14":
			t, err := bench.Figure14(*scale, *workers)
			fatalIf(err)
			fmt.Print(bench.FormatFigure14(t))
			bench.PublishFigure14(reg, t)
		case "15":
			t, err := bench.Figure15(*scale, *workers)
			fatalIf(err)
			fmt.Print(bench.FormatSlowdownTable(t))
			bench.PublishSlowdownTable(reg, "15", t)
		case "dbt":
			rows, avg, err := bench.DBTBaseline(*scale, *workers)
			fatalIf(err)
			fmt.Print(bench.FormatBaseline(rows, avg))
			bench.PublishBaseline(reg, rows, avg)
		case "ablate":
			rows, err := bench.Ablations(*scale, *workers)
			fatalIf(err)
			fmt.Print(bench.FormatAblations(rows))
			bench.PublishAblations(reg, rows)
		case "dfc":
			reports, err := bench.DataFlowCoverage(minF(*scale, 0.1), 300, 1, *workers, *ckptIv)
			fatalIf(err)
			fmt.Print(bench.FormatDataFlowCoverage(reports))
			bench.PublishCoverage(reg, "dfc", reports)
		case "latency":
			rows, err := bench.PolicyLatency(minF(*scale, 0.3), 300, 1, *workers, *ckptIv)
			fatalIf(err)
			fmt.Print(bench.FormatPolicyLatency(rows))
			bench.PublishPolicyLatency(reg, rows)
		default:
			fmt.Fprintf(os.Stderr, "cfc-bench: unknown figure %q\n", name)
			os.Exit(2)
		}
		fmt.Println()
	}

	if *fig == "all" {
		for _, f := range []string{"dbt", "12", "14", "15", "ablate", "dfc", "latency"} {
			run(f)
		}
		fatalIf(app.Close())
		return
	}
	run(*fig)
	fatalIf(app.Close())
}

// stepRecord is the -step-json schema CI gates on: the block-compiled
// backend must beat the per-step interpreter by the committed factor with
// a byte-identical architectural outcome.
type stepRecord struct {
	Workload   string  `json:"workload"`
	Scale      float64 `json:"scale"`
	Steps      uint64  `json:"steps"`
	Reps       int     `json:"reps"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	RunSec     float64 `json:"run_sec"`
	CompileSec float64 `json:"compile_sec"`
	Speedup    float64 `json:"speedup"`
	Identical  bool    `json:"identical"`
}

func writeStepJSON(path string, scale float64) error {
	r, err := bench.StepThroughput("164.gzip", scale, 3)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatStep(r))
	return writeJSON(path, stepRecord{
		Workload: r.Workload, Scale: scale, Steps: r.Steps, Reps: r.Reps,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		RunSec: r.RunSec, CompileSec: r.CompileSec,
		Speedup: r.Speedup, Identical: r.Identical,
	})
}

// graphRecord is the BENCH_graph.json schema: the full coverage matrix
// run twice against one on-disk graph cell cache — the cold pass executes
// and stores every cell, the hot pass (a fresh registry and a fresh cache
// handle over the same directory, so hits come off disk, not memory)
// loads them — with the byte-identity verdict across the two matrices.
type graphRecord struct {
	Workloads    []string `json:"workloads"`
	Techniques   []string `json:"techniques"`
	Scale        float64  `json:"scale"`
	Samples      int      `json:"samples"`
	Seed         int64    `json:"seed"`
	CkptInterval int64    `json:"ckpt_interval"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	NumCPU       int      `json:"num_cpu"`
	Cells        int      `json:"cells"`
	ColdSec      float64  `json:"cold_sec"`
	HotSec       float64  `json:"hot_sec"`
	// Speedup is cold wall-clock over hot wall-clock: what a content-keyed
	// re-run saves when nothing invalidated. CI gates on >= 10.
	Speedup float64 `json:"speedup"`
	// Hot-pass cache accounting: every cell must hit, none may execute.
	HotHits   uint64 `json:"hot_hits"`
	HotMisses uint64 `json:"hot_misses"`
	// Identical reports the cold and hot formatted matrices matched byte
	// for byte.
	Identical bool `json:"identical"`
}

// writeGraphJSON times the cold and hot coverage-matrix passes over a
// temporary cache directory.
func writeGraphJSON(path string, scale float64, workers int, ckptInterval int64) error {
	dir, err := os.MkdirTemp("", "cfc-graph-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	const samples, seed = 200, 1
	pass := func() (string, uint64, uint64, time.Duration, error) {
		m := obs.NewRegistry()
		cfg := bench.CoverageConfig{
			Scale: scale, Samples: samples, Seed: seed,
			Graph: graph.New(dir),
		}
		cfg.Metrics, cfg.Workers, cfg.CkptInterval = m, workers, ckptInterval
		start := time.Now()
		reports, err := bench.CoverageMatrix(context.Background(), cfg)
		if err != nil {
			return "", 0, 0, 0, err
		}
		d := time.Since(start)
		snap := m.Snapshot()
		return bench.FormatCoverageMatrix(reports),
			snap.Counters["graph_cache_hits_total"], snap.Counters["graph_cache_misses_total"], d, nil
	}
	coldText, _, _, coldDur, err := pass()
	if err != nil {
		return err
	}
	hotText, hotHits, hotMisses, hotDur, err := pass()
	if err != nil {
		return err
	}
	fmt.Print(hotText)
	rec := graphRecord{
		Workloads:    bench.DefaultCoverageWorkloads,
		Techniques:   bench.CoverageTechniques,
		Scale:        scale,
		Samples:      samples,
		Seed:         seed,
		CkptInterval: ckptInterval,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Cells:        len(bench.DefaultCoverageWorkloads) * len(bench.CoverageTechniques),
		ColdSec:      coldDur.Seconds(),
		HotSec:       hotDur.Seconds(),
		HotHits:      hotHits,
		HotMisses:    hotMisses,
		Identical:    coldText == hotText,
	}
	if hotDur > 0 {
		rec.Speedup = coldDur.Seconds() / hotDur.Seconds()
	}
	return writeJSON(path, rec)
}

func writeJSON(path string, rec any) error {
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// minF caps the campaign scale: fault injection runs the program once per
// sample, so full-scale campaigns would take minutes for no extra insight.
func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfc-bench:", err)
		os.Exit(1)
	}
}
