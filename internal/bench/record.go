package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/front"
	"repro/internal/graph"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/session"
)

// trials is how many times every record is measured. The written record
// is the first trial that fails its correctness fields, or else the trial
// with the median headline speedup.
const trials = 3

// The campaign the engine records (inject, ckpt, scale) measure.
const (
	campaignWorkload = "164.gzip"
	campaignScale    = 0.05
	campaignSamples  = 1000
	campaignSeed     = 1
	campaignInterval = -1 // auto-sized checkpoint interval
)

// header is the part every record shares: what ran, on which host, and
// over how many trials the headline speedup spread.
type header struct {
	Workload   string  `json:"workload,omitempty"`
	Technique  string  `json:"technique,omitempty"`
	Samples    int     `json:"samples,omitempty"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Trials     int     `json:"trials"`
	SpeedupMin float64 `json:"speedup_min"`
	SpeedupMax float64 `json:"speedup_max"`
}

func (h *header) head() *header { return h }

// record is one trial's measurement.
type record interface {
	head() *header
	// headline is the speedup the record is gated on.
	headline() float64
	// correct reports whether every identity and accounting field holds.
	correct() bool
}

type trialFunc func(context.Context) (record, error)

type namedTrial struct {
	name  string // the record is written as BENCH_<name>.json
	trial trialFunc
}

// records is every record, in the order "all" runs them.
var records = []namedTrial{
	{"inject", injectTrial},
	{"ckpt", ckptTrial},
	{"scale", scaleTrial},
	{"serve", serveTrial},
	{"artifact", artifactTrial},
	{"step", stepTrial},
	{"graph", graphTrial},
	{"shard", shardTrial},
}

// WriteRecords measures the named records ("all", or a comma-separated
// list of inject, ckpt, scale, serve, artifact, step, graph, shard) and
// writes each as BENCH_<name>.json under dir, logging one summary line
// per record. An unknown name fails before anything runs.
func WriteRecords(ctx context.Context, dir, names string, log io.Writer) error {
	run := records
	if names != "all" {
		run = nil
		for _, n := range strings.Split(names, ",") {
			i := slices.IndexFunc(records, func(r namedTrial) bool { return r.name == n })
			if i < 0 {
				return fmt.Errorf("unknown record %q (want all or a comma-separated list of inject, ckpt, scale, serve, artifact, step, graph, shard)", n)
			}
			run = append(run, records[i])
		}
	}
	for _, r := range run {
		rec, err := writeRecord(ctx, dir, r.name, r.trial)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		h := rec.head()
		fmt.Fprintf(log, "BENCH_%s.json: speedup %.2f (%.2f..%.2f over %d trials), correct %v\n",
			r.name, rec.headline(), h.SpeedupMin, h.SpeedupMax, h.Trials, rec.correct())
	}
	return nil
}

// writeRecord measures one record and writes it.
func writeRecord(ctx context.Context, dir, name string, trial trialFunc) (record, error) {
	rec, err := measure(ctx, trial)
	if err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	return rec, os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), append(out, '\n'), 0o644)
}

// measure runs trial up to trials times. A trial that fails its
// correctness fields is the result at once, however fast it ran, so a
// lucky run cannot mask a broken one; otherwise the result is the trial
// with the median headline. Either way the header carries the headline's
// range over the trials run.
func measure(ctx context.Context, trial trialFunc) (record, error) {
	var done []record
	for len(done) < trials {
		rec, err := trial(ctx)
		if err != nil {
			return nil, err
		}
		done = append(done, rec)
		if !rec.correct() {
			break
		}
	}
	pick := done[len(done)-1]
	sort.SliceStable(done, func(i, j int) bool { return done[i].headline() < done[j].headline() })
	if pick.correct() {
		pick = done[len(done)/2]
	}
	h := pick.head()
	h.GOMAXPROCS, h.NumCPU = runtime.GOMAXPROCS(0), runtime.NumCPU()
	h.Trials = len(done)
	h.SpeedupMin, h.SpeedupMax = done[0].headline(), done[len(done)-1].headline()
	return pick, nil
}

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// sweep runs the fixed campaign under one engine (interval 0 is full
// replay, campaignInterval the checkpoint engine) at each worker count.
func sweep(ctx context.Context, interval int64, workers ...int) ([]*inject.Report, error) {
	p, err := core.Workload(campaignWorkload, campaignScale)
	if err != nil {
		return nil, err
	}
	reps := make([]*inject.Report, len(workers))
	for i, w := range workers {
		cfg := core.Config{Technique: "RCF", Style: "CMOVcc", Policy: "ALLBB"}
		cfg.CkptInterval, cfg.Workers = interval, w
		if reps[i], err = core.InjectCtx(ctx, p, cfg, campaignSamples, campaignSeed); err != nil {
			return nil, err
		}
	}
	return reps, nil
}

// sameReport compares everything a campaign classifies — including the
// merged per-sample translator statistics — ignoring the timing fields
// that legitimately differ between runs.
func sameReport(a, b *inject.Report) bool {
	return a.NotFired == b.NotFired &&
		a.LatencySum == b.LatencySum &&
		a.LatencyN == b.LatencyN &&
		a.Translator == b.Translator &&
		reflect.DeepEqual(a.Totals, b.Totals) &&
		reflect.DeepEqual(a.ByCat, b.ByCat)
}

// identicalReports is sameReport plus byte identity of the normalized
// rendering.
func identicalReports(a, b *inject.Report) bool {
	return sameReport(a, b) && inject.FormatNormalized(a) == inject.FormatNormalized(b)
}

var campaignHeader = header{Workload: campaignWorkload, Technique: "RCF", Samples: campaignSamples}

// injectRecord (BENCH_inject.json): the checkpoint-engine campaign at one
// and four workers, with the determinism verdict across the two.
type injectRecord struct {
	header
	Seed          int64       `json:"seed"`
	Runs          []injectRun `json:"runs"`
	Speedup       float64     `json:"speedup"`
	Deterministic bool        `json:"deterministic"`
}

type injectRun struct {
	Workers    int     `json:"workers"`
	ElapsedSec float64 `json:"elapsed_sec"`
	RunsPerSec float64 `json:"runs_per_sec"`
}

func (r *injectRecord) headline() float64 { return r.Speedup }
func (r *injectRecord) correct() bool     { return r.Deterministic }

func injectTrial(ctx context.Context) (record, error) {
	workers := []int{1, 4}
	reps, err := sweep(ctx, campaignInterval, workers...)
	if err != nil {
		return nil, err
	}
	rec := &injectRecord{header: campaignHeader, Seed: campaignSeed,
		Deterministic: identicalReports(reps[0], reps[1]),
		Speedup:       ratio(reps[0].Elapsed.Seconds(), reps[1].Elapsed.Seconds()),
	}
	for i, rep := range reps {
		rec.Runs = append(rec.Runs, injectRun{
			Workers: workers[i], ElapsedSec: rep.Elapsed.Seconds(), RunsPerSec: rep.Throughput(),
		})
	}
	return rec, nil
}

// engineRun is one worker count of the ckpt and scale records: the
// checkpoint engine against a full-replay baseline.
type engineRun struct {
	Workers   int     `json:"workers"`
	ReplaySec float64 `json:"replay_sec,omitempty"` // ckpt: replay at the same worker count
	CkptSec   float64 `json:"ckpt_sec"`
	Speedup   float64 `json:"speedup"` // replay wall-clock over checkpoint wall-clock
	Identical bool    `json:"identical"`
}

func newEngineRun(workers int, replay, ck *inject.Report) engineRun {
	return engineRun{
		Workers:   workers,
		ReplaySec: replay.Elapsed.Seconds(),
		CkptSec:   ck.Elapsed.Seconds(),
		Speedup:   ratio(replay.Elapsed.Seconds(), ck.Elapsed.Seconds()),
		Identical: identicalReports(replay, ck),
	}
}

// ckptRecord (BENCH_ckpt.json): the full-replay and the checkpoint engine
// at one and four workers, with the byte-identity verdict.
type ckptRecord struct {
	header
	Seed         int64       `json:"seed"`
	CkptInterval int64       `json:"ckpt_interval"`
	Runs         []engineRun `json:"runs"`
	// Speedup is the single-worker engine comparison, parallel scaling
	// factored out.
	Speedup   float64 `json:"speedup"`
	Identical bool    `json:"identical"`
}

func (r *ckptRecord) headline() float64 { return r.Speedup }
func (r *ckptRecord) correct() bool     { return r.Identical }

func ckptTrial(ctx context.Context) (record, error) {
	workers := []int{1, 4}
	replay, err := sweep(ctx, 0, workers...)
	if err != nil {
		return nil, err
	}
	ck, err := sweep(ctx, campaignInterval, workers...)
	if err != nil {
		return nil, err
	}
	rec := &ckptRecord{header: campaignHeader, Seed: campaignSeed, CkptInterval: campaignInterval, Identical: true}
	for i, w := range workers {
		run := newEngineRun(w, replay[i], ck[i])
		rec.Identical = rec.Identical && run.Identical
		rec.Runs = append(rec.Runs, run)
	}
	rec.Speedup = rec.Runs[0].Speedup
	return rec, nil
}

// scaleRecord (BENCH_scale.json): the replay engine at one worker as the
// baseline, then the checkpoint engine at growing worker counts, so each
// run's speedup composes worker scaling with checkpoint amortization
// (replay_1w / ckpt_Nw).
type scaleRecord struct {
	header
	Seed         int64       `json:"seed"`
	CkptInterval int64       `json:"ckpt_interval"`
	ReplaySec    float64     `json:"replay_sec"` // replay engine, 1 worker
	Runs         []engineRun `json:"runs"`
	// BestSpeedup is the largest composed factor across the worker sweep.
	BestSpeedup float64 `json:"best_speedup"`
	Identical   bool    `json:"identical"`
}

func (r *scaleRecord) headline() float64 { return r.BestSpeedup }
func (r *scaleRecord) correct() bool     { return r.Identical }

// scaleTrial sweeps the checkpoint engine from one to min(8, NumCPU)
// workers, doubling; beyond the core count sharding only adds
// scheduling noise.
func scaleTrial(ctx context.Context) (record, error) {
	replay, err := sweep(ctx, 0, 1)
	if err != nil {
		return nil, err
	}
	var workers []int
	for w := 1; w <= min(8, runtime.NumCPU()); w *= 2 {
		workers = append(workers, w)
	}
	ck, err := sweep(ctx, campaignInterval, workers...)
	if err != nil {
		return nil, err
	}
	rec := &scaleRecord{header: campaignHeader, Seed: campaignSeed, CkptInterval: campaignInterval,
		ReplaySec: replay[0].Elapsed.Seconds(), Identical: true}
	for i, w := range workers {
		run := newEngineRun(w, replay[0], ck[i])
		run.ReplaySec = 0 // the baseline is the record's replay_sec
		rec.BestSpeedup = max(rec.BestSpeedup, run.Speedup)
		rec.Identical = rec.Identical && run.Identical
		rec.Runs = append(rec.Runs, run)
	}
	return rec, nil
}

// listen serves h on a fresh loopback port and returns its base URL and
// a function that closes it.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close() }, nil
}

// startReplica starts a cold replica with no checkpoint cache and no
// cell cache on a loopback port, returning its URL, metrics and closer.
// A non-empty storeURL enables the warm-artifact tier against that
// store, with a memory-only local store.
func startReplica(storeURL string) (string, *obs.Registry, func(), error) {
	reg := obs.NewRegistry()
	cfg := session.Config{Metrics: reg}
	if storeURL != "" {
		cfg.Artifacts = &artifact.Client{BaseURL: storeURL, Local: artifact.NewStore(""), Metrics: reg}
	}
	url, closeFn, err := listen((&session.Server{Registry: session.NewRegistry(cfg), Metrics: reg}).Handler())
	return url, reg, closeFn, err
}

// postBatch posts a campaign batch to url and returns its decoded NDJSON
// records and the request's wall-clock. A non-200 answer, an undecodable
// stream or a record carrying an error is an error.
func postBatch(ctx context.Context, url string, req session.Request) ([]session.RecordJSON, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var e session.ErrorJSON
		dec.Decode(&e) // best effort: the status alone is the error
		return nil, 0, fmt.Errorf("POST %s: %s: %s", url, resp.Status, e.Error)
	}
	var recs []session.RecordJSON
	for {
		var rec session.RecordJSON
		if err := dec.Decode(&rec); err == io.EOF {
			return recs, time.Since(start), nil
		} else if err != nil {
			return nil, 0, fmt.Errorf("POST %s: %v", url, err)
		}
		if rec.Error != "" {
			return nil, 0, fmt.Errorf("POST %s: campaign error: %s", url, rec.Error)
		}
		recs = append(recs, rec)
	}
}

// normalizeRecord renders a record with its wall-clock zeroed, for the
// byte-identity verdicts.
func normalizeRecord(rec session.RecordJSON) string {
	rec.ElapsedSec = 0
	out, _ := json.Marshal(rec) // decoded from JSON, so it re-encodes
	return string(out)
}

func sameStream(a, b []session.RecordJSON) bool {
	return slices.EqualFunc(a, b, func(x, y session.RecordJSON) bool { return normalizeRecord(x) == normalizeRecord(y) })
}

// batch is a served request for n campaigns (seeds 1..n) of samples each
// on 164.gzip/RCF/CMOVcc/ALLBB under the checkpoint engine.
func batch(scale float64, n, samples, workers int) session.Request {
	req := session.Request{
		Workload: campaignWorkload, Scale: scale, Technique: "RCF", Style: "CMOVcc",
		Policy: "ALLBB", CkptInterval: campaignInterval, Workers: workers,
	}
	for i := 0; i < n; i++ {
		req.Campaigns = append(req.Campaigns, session.SpecJSON{Seed: int64(i + 1), Samples: samples})
	}
	return req
}

// serveRecord (BENCH_serve.json): the same batch served twice by one
// replica over loopback HTTP — cold (session build and recording on the
// first campaign) then warm — with the byte-identity verdict.
type serveRecord struct {
	header
	Campaigns    int     `json:"campaigns"`
	CkptInterval int64   `json:"ckpt_interval"`
	ColdSec      float64 `json:"cold_sec"`
	WarmSec      float64 `json:"warm_sec"`
	ColdPerSec   float64 `json:"cold_campaigns_per_sec"`
	WarmPerSec   float64 `json:"warm_campaigns_per_sec"`
	// Speedup is cold wall-clock over warm wall-clock: what the warm
	// session saves per batch.
	Speedup float64 `json:"speedup"`
	// Identical reports the cold and warm streams matched byte for byte
	// (elapsed_sec excluded).
	Identical bool `json:"identical"`
}

func (r *serveRecord) headline() float64 { return r.Speedup }
func (r *serveRecord) correct() bool     { return r.Identical }

func serveTrial(ctx context.Context) (record, error) {
	const campaigns, samples = 2, 100
	req := batch(0.05, campaigns, samples, 0)
	url, _, closeRep, err := startReplica("")
	if err != nil {
		return nil, err
	}
	defer closeRep()
	cold, coldDur, err := postBatch(ctx, url+"/v1/campaigns", req)
	if err != nil {
		return nil, err
	}
	warm, warmDur, err := postBatch(ctx, url+"/v1/campaigns", req)
	if err != nil {
		return nil, err
	}
	return &serveRecord{
		header:       header{Workload: req.Workload, Technique: req.Technique, Samples: samples},
		Campaigns:    campaigns,
		CkptInterval: req.CkptInterval,
		ColdSec:      coldDur.Seconds(),
		WarmSec:      warmDur.Seconds(),
		ColdPerSec:   ratio(campaigns, coldDur.Seconds()),
		WarmPerSec:   ratio(campaigns, warmDur.Seconds()),
		Speedup:      ratio(coldDur.Seconds(), warmDur.Seconds()),
		Identical:    sameStream(cold, warm),
	}, nil
}

// artifactRecord (BENCH_artifact.json): the same batch served by a
// replica that builds its warm state locally (and publishes it) and by a
// fresh replica that fetches it from the shared store, with the
// byte-identity verdict and the fetched replica's build accounting.
type artifactRecord struct {
	header
	Campaigns    int     `json:"campaigns"`
	CkptInterval int64   `json:"ckpt_interval"`
	ColdSec      float64 `json:"cold_sec"`
	FetchedSec   float64 `json:"fetched_sec"`
	// Speedup is cold wall-clock over fetched wall-clock: what fetching
	// the warm state saves a cold replica.
	Speedup   float64 `json:"speedup"`
	Identical bool    `json:"identical"`
	// The fetched replica must have restored (not built), recorded
	// nothing and translated nothing.
	FetchedRestores   uint64 `json:"fetched_restores"`
	FetchedWarmBuilds uint64 `json:"fetched_warm_builds"`
	FetchedRecordings uint64 `json:"fetched_recordings"`
}

func (r *artifactRecord) headline() float64 { return r.Speedup }
func (r *artifactRecord) correct() bool {
	return r.Identical && r.FetchedRestores == 1 && r.FetchedWarmBuilds == 0 && r.FetchedRecordings == 0
}

// serveOnce starts a replica against the store, serves req once and
// closes it, returning the stream, its wall-clock and the replica's
// counters.
func serveOnce(ctx context.Context, storeURL string, req session.Request) ([]session.RecordJSON, time.Duration, map[string]uint64, error) {
	url, reg, closeRep, err := startReplica(storeURL)
	if err != nil {
		return nil, 0, nil, err
	}
	defer closeRep()
	recs, dur, err := postBatch(ctx, url+"/v1/campaigns", req)
	if err != nil {
		return nil, 0, nil, err
	}
	return recs, dur, reg.Snapshot().Counters, nil
}

func artifactTrial(ctx context.Context) (record, error) {
	// Small campaigns on purpose: the tier's win is the one-time session
	// build (translator warm-up + reference recording), so the batch is
	// sized to the cold-start-dominated shape replicas actually see.
	const campaigns, samples = 2, 5
	req := batch(0.25, campaigns, samples, 0)
	storeURL, closeStore, err := listen(artifact.Handler(artifact.NewStore("")))
	if err != nil {
		return nil, err
	}
	defer closeStore()
	cold, coldDur, _, err := serveOnce(ctx, storeURL, req) // builds locally, publishes
	if err != nil {
		return nil, err
	}
	fetched, fetchedDur, counters, err := serveOnce(ctx, storeURL, req) // restores from the store
	if err != nil {
		return nil, err
	}
	var recordings uint64
	for name, v := range counters {
		if strings.HasPrefix(name, "ckpt_recordings_total") {
			recordings += v
		}
	}
	return &artifactRecord{
		header:            header{Workload: req.Workload, Technique: req.Technique, Samples: samples},
		Campaigns:         campaigns,
		CkptInterval:      req.CkptInterval,
		ColdSec:           coldDur.Seconds(),
		FetchedSec:        fetchedDur.Seconds(),
		Speedup:           ratio(coldDur.Seconds(), fetchedDur.Seconds()),
		Identical:         sameStream(cold, fetched),
		FetchedRestores:   counters["session_restores_total"],
		FetchedWarmBuilds: counters["session_warm_builds_total"],
		FetchedRecordings: recordings,
	}, nil
}

func stepTrial(context.Context) (record, error) {
	r, err := StepThroughput(campaignWorkload, 1.0)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// graphRecord (BENCH_graph.json): the full coverage matrix run twice
// against one on-disk graph cell cache — the cold pass executes and
// stores every cell, the hot pass (a fresh registry and a fresh cache
// handle over the same directory, so hits come off disk, not memory)
// loads them — with the byte-identity verdict across the two matrices.
type graphRecord struct {
	header
	Workloads    []string `json:"workloads"`
	Techniques   []string `json:"techniques"`
	Scale        float64  `json:"scale"`
	Seed         int64    `json:"seed"`
	CkptInterval int64    `json:"ckpt_interval"`
	Cells        int      `json:"cells"`
	ColdSec      float64  `json:"cold_sec"`
	HotSec       float64  `json:"hot_sec"`
	// Speedup is cold wall-clock over hot wall-clock: what a
	// content-keyed re-run saves when nothing invalidated.
	Speedup float64 `json:"speedup"`
	// Hot-pass cache accounting: every cell must hit, none may execute.
	HotHits   uint64 `json:"hot_hits"`
	HotMisses uint64 `json:"hot_misses"`
	Identical bool   `json:"identical"`
}

func (r *graphRecord) headline() float64 { return r.Speedup }
func (r *graphRecord) correct() bool {
	return r.Identical && r.HotMisses == 0 && r.HotHits == uint64(r.Cells)
}

func graphTrial(ctx context.Context) (record, error) {
	const scale, samples, seed = 0.05, 200, 1
	dir, err := os.MkdirTemp("", "cfc-graph-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pass := func() (string, map[string]uint64, time.Duration, error) {
		m := obs.NewRegistry()
		cfg := CoverageConfig{Scale: scale, Samples: samples, Seed: seed, Graph: graph.New(dir)}
		cfg.Metrics, cfg.CkptInterval = m, campaignInterval
		start := time.Now()
		reports, err := CoverageMatrix(ctx, cfg)
		if err != nil {
			return "", nil, 0, err
		}
		d := time.Since(start)
		return FormatCoverageMatrix(reports), m.Snapshot().Counters, d, nil
	}
	coldText, _, coldDur, err := pass()
	if err != nil {
		return nil, err
	}
	hotText, hot, hotDur, err := pass()
	if err != nil {
		return nil, err
	}
	return &graphRecord{
		header:       header{Samples: samples},
		Workloads:    DefaultCoverageWorkloads,
		Techniques:   CoverageTechniques,
		Scale:        scale,
		Seed:         seed,
		CkptInterval: campaignInterval,
		Cells:        len(DefaultCoverageWorkloads) * len(CoverageTechniques),
		ColdSec:      coldDur.Seconds(),
		HotSec:       hotDur.Seconds(),
		Speedup:      ratio(coldDur.Seconds(), hotDur.Seconds()),
		HotHits:      hot["graph_cache_hits_total"],
		HotMisses:    hot["graph_cache_misses_total"],
		Identical:    coldText == hotText,
	}, nil
}

// shardRecord (BENCH_shard.json): one campaign run whole on a single
// replica versus sharded across three replicas behind a front, with the
// byte-identity verdict on the front's merged record.
type shardRecord struct {
	header
	Shards       int       `json:"shards"`
	CkptInterval int64     `json:"ckpt_interval"`
	SingleSec    float64   `json:"single_sec"`
	ShardSecs    []float64 `json:"shard_secs"`
	// FanoutSec is the critical path: the slowest shard, each timed on
	// its replica in isolation — the fleet wall-clock with one shard per
	// machine, which a benchmark host running all three replicas on one
	// or two cores cannot exhibit directly.
	FanoutSec float64 `json:"fanout_sec"`
	// WallSec is the observed wall-clock of the front's real concurrent
	// fan-out on this host, informational: it converges to FanoutSec as
	// the host gives each replica its own core.
	WallSec float64 `json:"wall_sec"`
	// Speedup is SingleSec over FanoutSec: what sharding one campaign
	// across a fleet saves.
	Speedup float64 `json:"speedup"`
	// Identical reports the front's merged record matched the
	// single-server record byte for byte (elapsed/workers/cached
	// excluded).
	Identical bool `json:"identical"`
}

func (r *shardRecord) headline() float64 { return r.Speedup }
func (r *shardRecord) correct() bool     { return r.Identical }

// shardTrial takes the identity verdict from the front's real concurrent
// ?fanout=3 merge and the speedup from timing each shard on its replica
// in isolation (sequentially, so replicas sharing this host's cores do
// not contend), the slowest shard being the fleet's critical path. Each
// replica runs one worker, so the comparison isolates the horizontal
// effect from intra-replica parallelism.
func shardTrial(ctx context.Context) (record, error) {
	const shards, samples = 3, 6000
	req := batch(0.05, 1, samples, 1)
	var urls []string
	for i := 0; i < shards; i++ {
		url, _, closeRep, err := startReplica("")
		if err != nil {
			return nil, err
		}
		defer closeRep()
		urls = append(urls, url)
	}
	frontURL, closeFront, err := listen(front.New(front.Config{Replicas: urls}).Handler())
	if err != nil {
		return nil, err
	}
	defer closeFront()
	fanout := frontURL + "/v1/campaigns?fanout=" + strconv.Itoa(shards)

	// Warm every replica's session first (a tiny shard on each via the
	// front, plus the whole-campaign home), so the timed runs measure
	// steady-state injection, not translator warm-up.
	warm := req
	warm.Campaigns = []session.SpecJSON{{Seed: 1001, Samples: shards}}
	if _, _, err := postBatch(ctx, fanout, warm); err != nil {
		return nil, fmt.Errorf("warm fan-out: %w", err)
	}
	if _, _, err := postBatch(ctx, urls[0]+"/v1/campaigns", warm); err != nil {
		return nil, fmt.Errorf("warm single: %w", err)
	}
	single, singleDur, err := postBatch(ctx, urls[0]+"/v1/campaigns", req)
	if err != nil {
		return nil, fmt.Errorf("single run: %w", err)
	}
	fan, fanDur, err := postBatch(ctx, fanout, req)
	if err != nil {
		return nil, fmt.Errorf("fan-out run: %w", err)
	}

	// The critical path: the same campaign's shards, each timed alone on
	// its own replica (no cell cache, so every run executes).
	rec := &shardRecord{
		header:       header{Workload: req.Workload, Technique: req.Technique, Samples: samples},
		Shards:       shards,
		CkptInterval: req.CkptInterval,
		SingleSec:    singleDur.Seconds(),
		WallSec:      fanDur.Seconds(),
	}
	for i, sh := range front.ShardSpecs(req.Campaigns[0], shards) {
		sreq := req
		sreq.Campaigns = []session.SpecJSON{sh}
		_, dur, err := postBatch(ctx, urls[i%len(urls)]+"/v1/campaigns", sreq)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		rec.ShardSecs = append(rec.ShardSecs, dur.Seconds())
		rec.FanoutSec = max(rec.FanoutSec, dur.Seconds())
	}
	rec.Speedup = ratio(rec.SingleSec, rec.FanoutSec)
	if len(single) != 1 || len(fan) != 1 {
		return rec, nil // not identical: a one-campaign batch streams one record
	}
	// Fan-out legitimately changes the worker count and cache flag.
	a, b := single[0], fan[0]
	a.Workers, a.Cached, b.Workers, b.Cached = 0, false, 0, false
	rec.Identical = normalizeRecord(a) == normalizeRecord(b)
	return rec, nil
}
