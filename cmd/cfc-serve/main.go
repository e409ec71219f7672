// Command cfc-serve runs the batch injection service: an HTTP API over a
// warm-session registry, so repeated campaigns on the same configuration
// pay the translator warm-up and the checkpoint reference recording once —
// and, with -cache-dir, not even once per process.
//
//	POST /v1/campaigns   {"workload":"164.gzip","scale":0.05,"technique":"RCF",
//	                      "style":"CMOVcc","policy":"ALLBB","ckpt_interval":-1,
//	                      "campaigns":[{"seed":1,"samples":200}]}
//	                     → NDJSON, one record per campaign as it completes
//	                       ("progress_ms":N interleaves live progress frames)
//	GET  /v1/campaigns/{id}/progress   poll a running batch's progress
//	POST /v1/bench       run the bench suite (figures 12/14/15, baseline,
//	                     ablations, coverage matrix) through the warm
//	                     registry → NDJSON rows, tables and span timings
//	GET  /v1/sessions    warm-session inventory
//	GET  /v1/version     build and configuration info
//	GET  /v1/metrics     metrics snapshot as JSON (what cfc-front merges)
//	GET  /metrics        Prometheus text exposition (incl. Go runtime gauges)
//	GET  /healthz        readiness: {"status":"ok|draining|restoring"}, 503 while
//	                     draining so front doors and probes eject the replica
//
// -debug-addr serves net/http/pprof on a second loopback listener.
//
// The warm-artifact tier (see internal/artifact) distributes warm state
// across replicas: -artifact-dir keeps a local content-addressed store,
// -artifact-url fetches/publishes against a remote store (cfc-artifact
// or another replica's -artifact-addr), and -artifact-addr serves this
// process's store on a second listener. A cold replica pointed at a warm
// store builds sessions with zero reference recordings and zero block
// translations; any verification failure degrades to a local build.
//
// Reports are byte-identical to the equivalent cfc-inject invocation for
// every worker count and cache temperature. SIGINT/SIGTERM drains in-flight
// campaigns before exiting; a second signal cancels them.
//
// -bench-json runs the serving benchmark instead: the same batch against a
// cold and a warm registry over real HTTP, recording campaigns/sec for
// each and whether the two streams matched byte for byte. -artifact-json
// does the same for the artifact tier: replica A builds locally and
// publishes, a fresh replica B cold-starts against the warm store, and
// the record carries the cold-vs-fetched speedup and byte-identity.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr serves the default mux's profiles
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/session"
)

// readHeaderTimeout bounds how long a client may take to send request
// headers, so idle half-open connections cannot pin the server.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8321", "listen address")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off)")
		cacheDir     = flag.String("cache-dir", "", "persist checkpoint logs under this directory")
		maxSessions  = flag.Int("max-sessions", 64, "warm sessions kept before LRU eviction (<=0 unbounded)")
		benchOut     = flag.String("bench-json", "", "run the cold-vs-warm serving benchmark, write the record here, and exit")
		artifactDir  = flag.String("artifact-dir", "", "enable the warm-artifact tier with a local store under this directory")
		artifactURL  = flag.String("artifact-url", "", "fetch/publish warm artifacts against this remote store (enables the tier)")
		artifactAddr = flag.String("artifact-addr", "", "serve this process's artifact store on a second listener (enables the tier)")
		artifactOut  = flag.String("artifact-json", "", "run the cold-vs-fetched artifact benchmark, write the record here, and exit")
	)
	// The server defaults the campaign cell cache on, sharing -cache-dir
	// with the checkpoint logs (memory-only without one); -graph-cache
	// off/on/dir overrides.
	app := cli.App{GraphCache: "auto"}
	app.BindFlags(flag.CommandLine)
	flag.Parse()
	if app.GraphCache == "auto" {
		if *cacheDir != "" {
			app.GraphCache = *cacheDir
		} else {
			app.GraphCache = "on"
		}
	}
	fatalIf(app.Open())

	// The server always carries a live registry for /metrics; -metrics
	// additionally snapshots it to a file on exit.
	reg := app.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// The warm-artifact tier: any artifact flag enables the client; the
	// local store is memory-only unless -artifact-dir persists it.
	var artifacts *artifact.Client
	var store *artifact.Store
	if *artifactDir != "" || *artifactURL != "" || *artifactAddr != "" {
		store = artifact.NewStore(*artifactDir)
		artifacts = &artifact.Client{BaseURL: *artifactURL, Local: store, Metrics: reg}
	}
	registry := session.NewRegistry(session.Config{
		CacheDir:    *cacheDir,
		MaxSessions: *maxSessions,
		Metrics:     reg,
		Graph:       app.Graph(),
		Artifacts:   artifacts,
	})
	srv := &session.Server{Registry: registry, Metrics: reg}

	if *benchOut != "" {
		fatalIf(writeBenchJSON(*benchOut, *cacheDir, app.Workers))
		fatalIf(app.Close())
		return
	}
	if *artifactOut != "" {
		fatalIf(writeArtifactJSON(*artifactOut, app.Workers))
		fatalIf(app.Close())
		return
	}

	if *artifactAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "cfc-serve: artifact store on http://%s\n", *artifactAddr)
			if err := http.ListenAndServe(*artifactAddr, artifact.Handler(store)); err != nil {
				fmt.Fprintln(os.Stderr, "cfc-serve: artifact listener:", err)
			}
		}()
	}

	if *debugAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "cfc-serve: pprof on http://%s/debug/pprof/\n", *debugAddr)
			// http.DefaultServeMux carries the net/http/pprof handlers.
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "cfc-serve: debug listener:", err)
			}
		}()
	}

	// First signal: stop accepting and drain in-flight campaigns. Second:
	// cancel the campaigns themselves (every handler's request context is
	// derived from runCtx via BaseContext).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runCtx, cancelRuns := context.WithCancel(context.Background())
	defer cancelRuns()

	// One mux: the bench suite (package bench, which imports session)
	// mounts as an extra route on the session server's own mux, behind the
	// same request bounds, error shape and batch tracking.
	mux := srv.Handler(
		session.Route{Pattern: "POST /v1/bench", Handler: bench.Handler(srv)},
	)

	hs := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		BaseContext:       func(net.Listener) context.Context { return runCtx },
		ReadHeaderTimeout: readHeaderTimeout,
	}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "cfc-serve: listening on http://%s\n", *addr)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// The listener died on its own; still flush and close the
		// observability sinks before exiting.
		if cerr := app.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "cfc-serve:", cerr)
		}
		fatalIf(err)
	case <-ctx.Done():
		stop() // restore default handling: a second signal now cancels below
		fmt.Fprintln(os.Stderr, "cfc-serve: draining (signal again to abort campaigns)")
		second, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancel()
		go func() {
			<-second.Done()
			cancelRuns()
		}()
		// Drain in three steps: refuse new work with a JSON 503 while the
		// listener still accepts (so clients and the front door see a clean
		// fast-fail, never connection-refused, and /healthz flips to
		// draining), wait for admitted campaigns to finish, then close the
		// listener itself.
		srv.StartDrain()
		srv.DrainWait()
		if err := hs.Shutdown(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "cfc-serve: shutdown:", err)
		}
	}
	fatalIf(app.Close())
}

// benchRecord is the -bench-json schema: the same batch served by a cold
// registry (session build + recording on the first campaign) and a warm
// one, with the byte-identity verdict across the two streams.
type benchRecord struct {
	Workload     string  `json:"workload"`
	Technique    string  `json:"technique"`
	Samples      int     `json:"samples"`
	Campaigns    int     `json:"campaigns"`
	CkptInterval int64   `json:"ckpt_interval"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	ColdSec      float64 `json:"cold_sec"`
	WarmSec      float64 `json:"warm_sec"`
	ColdPerSec   float64 `json:"cold_campaigns_per_sec"`
	WarmPerSec   float64 `json:"warm_campaigns_per_sec"`
	// Speedup is cold wall-clock over warm wall-clock: how much the warm
	// session saves per batch. CI gates on >= 2.
	Speedup float64 `json:"speedup"`
	// Identical reports the cold and warm NDJSON streams matched byte for
	// byte (elapsed_sec, the only legitimately varying field, excluded).
	Identical bool `json:"identical"`
}

// writeBenchJSON starts a real server on a loopback port, posts the same
// batch twice — the first pays the session build, the second rides the
// warm session — and records both timings.
func writeBenchJSON(path, cacheDir string, workers int) error {
	reg := obs.NewRegistry()
	registry := session.NewRegistry(session.Config{CacheDir: cacheDir, Metrics: reg})
	srv := &session.Server{Registry: registry, Metrics: reg}
	hs := &http.Server{Handler: srv.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	const nCampaigns, nSamples = 2, 100
	req := session.Request{
		Workload: "164.gzip", Scale: 0.05, Technique: "RCF", Style: "CMOVcc",
		Policy: "ALLBB", CkptInterval: -1, Workers: workers,
	}
	for i := 0; i < nCampaigns; i++ {
		req.Campaigns = append(req.Campaigns, session.SpecJSON{Seed: int64(i + 1), Samples: nSamples})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	post := func() (string, time.Duration, error) {
		start := time.Now()
		resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", 0, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return "", 0, fmt.Errorf("POST /v1/campaigns: %s: %s", resp.Status, out)
		}
		return string(out), time.Since(start), nil
	}
	coldBody, coldDur, err := post()
	if err != nil {
		return err
	}
	warmBody, warmDur, err := post()
	if err != nil {
		return err
	}

	rec := benchRecord{
		Workload:     req.Workload,
		Technique:    req.Technique,
		Samples:      nSamples,
		Campaigns:    nCampaigns,
		CkptInterval: req.CkptInterval,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		ColdSec:      coldDur.Seconds(),
		WarmSec:      warmDur.Seconds(),
		Identical:    normalizeStream(coldBody) == normalizeStream(warmBody),
	}
	if coldDur > 0 {
		rec.ColdPerSec = float64(nCampaigns) / coldDur.Seconds()
	}
	if warmDur > 0 {
		rec.WarmPerSec = float64(nCampaigns) / warmDur.Seconds()
		rec.Speedup = coldDur.Seconds() / warmDur.Seconds()
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// artifactRecord is the -artifact-json schema: the same batch served by
// a replica that builds its warm state locally (and publishes it) and by
// a fresh replica that fetches it from the shared store, with the
// byte-identity verdict and the fetched replica's build accounting.
type artifactRecord struct {
	Workload     string  `json:"workload"`
	Technique    string  `json:"technique"`
	Samples      int     `json:"samples"`
	Campaigns    int     `json:"campaigns"`
	CkptInterval int64   `json:"ckpt_interval"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	ColdSec      float64 `json:"cold_sec"`
	FetchedSec   float64 `json:"fetched_sec"`
	// Speedup is cold wall-clock over fetched wall-clock: what fetching
	// the warm state saves a cold replica. CI gates on >= 2.
	Speedup float64 `json:"speedup"`
	// Identical reports the cold and fetched NDJSON streams matched byte
	// for byte (elapsed_sec excluded).
	Identical bool `json:"identical"`
	// The fetched replica's accounting: it must have restored (not
	// built), recorded nothing and translated nothing.
	FetchedRestores   uint64 `json:"fetched_restores"`
	FetchedWarmBuilds uint64 `json:"fetched_warm_builds"`
	FetchedRecordings uint64 `json:"fetched_recordings"`
}

// writeArtifactJSON measures the artifact tier end to end over real
// HTTP: an artifact store on one loopback listener, replica A building
// locally and publishing, then a fresh replica B cold-starting against
// the warm store. Both replicas serve the same batch; the record carries
// the wall-clock of each first batch and the byte-identity verdict.
func writeArtifactJSON(path string, workers int) error {
	// Small campaigns on purpose: the tier's win is the one-time session
	// build (translator warm-up + reference recording), so the batch is
	// sized to the cold-start-dominated shape replicas actually see.
	const nCampaigns, nSamples = 2, 5
	req := session.Request{
		Workload: "164.gzip", Scale: 0.25, Technique: "RCF", Style: "CMOVcc",
		Policy: "ALLBB", CkptInterval: -1, Workers: workers,
	}
	for i := 0; i < nCampaigns; i++ {
		req.Campaigns = append(req.Campaigns, session.SpecJSON{Seed: int64(i + 1), Samples: nSamples})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}

	// replica starts a campaign server wired to the shared store and posts
	// the batch once, returning the stream, its wall-clock and the
	// replica's metrics registry.
	replica := func(storeURL string) (string, time.Duration, *obs.Registry, error) {
		reg := obs.NewRegistry()
		registry := session.NewRegistry(session.Config{
			Metrics:   reg,
			Artifacts: &artifact.Client{BaseURL: storeURL, Local: artifact.NewStore(""), Metrics: reg},
		})
		srv := &session.Server{Registry: registry, Metrics: reg}
		hs := &http.Server{Handler: srv.Handler()}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", 0, nil, err
		}
		go hs.Serve(ln)
		defer hs.Close()
		start := time.Now()
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/campaigns",
			"application/json", bytes.NewReader(body))
		if err != nil {
			return "", 0, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", 0, nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return "", 0, nil, fmt.Errorf("POST /v1/campaigns: %s: %s", resp.Status, out)
		}
		return string(out), time.Since(start), reg, nil
	}

	// attempt runs one full cold-then-fetched pair against a fresh store.
	attempt := func() (artifactRecord, error) {
		var rec artifactRecord
		storeLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return rec, err
		}
		storeSrv := &http.Server{Handler: artifact.Handler(artifact.NewStore(""))}
		go storeSrv.Serve(storeLn)
		defer storeSrv.Close()
		storeURL := "http://" + storeLn.Addr().String()

		coldBody, coldDur, _, err := replica(storeURL) // builds locally, publishes
		if err != nil {
			return rec, err
		}
		fetchedBody, fetchedDur, fetchedReg, err := replica(storeURL) // restores from the store
		if err != nil {
			return rec, err
		}

		counters := fetchedReg.Snapshot().Counters
		recordings := uint64(0)
		for name, v := range counters {
			if strings.HasPrefix(name, "ckpt_recordings_total") {
				recordings += v
			}
		}
		rec = artifactRecord{
			Workload:          req.Workload,
			Technique:         req.Technique,
			Samples:           nSamples,
			Campaigns:         nCampaigns,
			CkptInterval:      req.CkptInterval,
			GOMAXPROCS:        runtime.GOMAXPROCS(0),
			NumCPU:            runtime.NumCPU(),
			ColdSec:           coldDur.Seconds(),
			FetchedSec:        fetchedDur.Seconds(),
			Identical:         normalizeStream(coldBody) == normalizeStream(fetchedBody),
			FetchedRestores:   counters["session_restores_total"],
			FetchedWarmBuilds: counters["session_warm_builds_total"],
			FetchedRecordings: recordings,
		}
		if fetchedDur > 0 {
			rec.Speedup = coldDur.Seconds() / fetchedDur.Seconds()
		}
		return rec, nil
	}

	// Best of three for the timing; the correctness fields (identity,
	// restore/build/recording counters) must hold on every attempt, so
	// a lucky fast run cannot mask a broken one.
	var best artifactRecord
	for i := 0; i < 3; i++ {
		rec, err := attempt()
		if err != nil {
			return err
		}
		if i == 0 || rec.Speedup > best.Speedup {
			identical := best.Identical || i == 0
			best = rec
			best.Identical = rec.Identical && identical
		} else {
			best.Identical = best.Identical && rec.Identical
		}
		if rec.FetchedRestores != 1 || rec.FetchedWarmBuilds != 0 || rec.FetchedRecordings != 0 {
			best = rec // a broken attempt is the record: fail loudly downstream
			break
		}
	}
	out, err := json.MarshalIndent(best, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// normalizeStream zeroes the wall-clock field of every NDJSON record so
// the cold and warm streams compare byte for byte.
func normalizeStream(s string) string {
	var b bytes.Buffer
	dec := json.NewDecoder(bytes.NewReader([]byte(s)))
	for {
		var rec session.RecordJSON
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return b.String()
			}
			return s // not a clean stream; compare raw
		}
		rec.ElapsedSec = 0
		out, err := json.Marshal(rec)
		if err != nil {
			return s
		}
		b.Write(out)
		b.WriteByte('\n')
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfc-serve:", err)
		os.Exit(1)
	}
}
