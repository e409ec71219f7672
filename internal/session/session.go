// Package session implements the warm-session registry behind the batch
// injection service: one session per (workload, scale, technique, style,
// policy, checkpoint-interval) configuration, holding the lazily built
// program, the warmed translator snapshot and the recorded checkpoint log
// so that repeated campaigns pay the warm-up and reference-run cost once.
// Checkpoint logs persist to disk in a versioned, checksummed format (see
// internal/ckpt), so even a fresh process skips the reference recording
// when a valid cache file exists; files are fingerprinted by the session
// key and validated against the clean-run geometry, falling back to
// re-recording on any mismatch.
//
// Warm-up, fault derivation and recording are all deterministic, so a
// campaign served from a session is byte-identical to the same campaign
// run cold by cfc-inject — the registry changes only where the time goes.
package session

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/fp"
	"repro/internal/graph"
	"repro/internal/inject"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// Key identifies one warm session: everything that shapes the snapshot and
// the checkpoint log. Campaign-level knobs (samples, seed, workers) are
// deliberately absent — they vary per request over the same session.
type Key struct {
	Workload     string
	Scale        float64
	Technique    string
	Style        string
	Policy       string
	CkptInterval int64
}

// String renders the key as the canonical fingerprint written into cache
// files and reported by the sessions endpoint.
func (k Key) String() string {
	return fmt.Sprintf("%s|%g|%s|%s|%s|%d",
		k.Workload, k.Scale, k.Technique, k.Style, k.Policy, k.CkptInterval)
}

// fileName maps the key to a cache file name: the readable fields
// sanitized plus a hash of the exact fingerprint, so distinct keys never
// share a file even when sanitizing collides.
func (k Key) fileName() string {
	return fp.FileName(k.String(), ".ckpt")
}

// Session is one warm configuration: the built (and, for the static
// baselines, instrumented) program, the stabilized translator snapshot,
// the clean-run geometry and — when the checkpoint engine is selected —
// the recorded reference log.
type Session struct {
	Key Key

	prog       *isa.Program
	static     bool
	tech       dbt.Technique // nil for static baselines
	pol        dbt.Policy
	label      string        // canonical technique label ("RCF", "CFCSS", ...)
	snap       *dbt.Snapshot // nil for static baselines
	cleanSteps uint64
	maxSteps   uint64    // the registry's step budget, used by every run
	log        *ckpt.Log // nil when CkptInterval == 0

	// FromDisk reports that the checkpoint log was loaded from the cache
	// directory rather than recorded by this process.
	FromDisk bool

	mu        sync.Mutex
	campaigns int64
	// images holds a static session's native-campaign image per resolved
	// backend, built on the first static campaign that needs it — never
	// during session build — and shared read-only by every later one.
	images map[comp.Backend]*staticImage
}

// staticImage is one lazily built entry of Session.images.
type staticImage struct {
	once sync.Once
	im   *inject.StaticImage
}

// Campaigns returns how many campaigns this session has served.
func (s *Session) Campaigns() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns
}

// Log returns the session's checkpoint log (nil for full-replay sessions).
func (s *Session) Log() *ckpt.Log { return s.log }

// Label returns the canonical technique label campaigns report under.
func (s *Session) Label() string { return s.label }

// CleanSteps returns the length of the clean reference run in steps.
func (s *Session) CleanSteps() uint64 { return s.cleanSteps }

// Spec is one campaign request against a session.
type Spec struct {
	Samples int
	Seed    int64
	// SampleOffset shifts the campaign onto global sample range
	// [SampleOffset, SampleOffset+Samples) — one shard of a fanned-out
	// campaign (see inject.Config.SampleOffset).
	SampleOffset int
}

// Run executes one campaign on the warm session. opts carries the
// per-request execution surface; its CkptInterval is overridden by the
// session key's (the log was recorded for that interval). Every sample
// runs under the registry's step budget, the one the clean run and the
// log were made with. The report is byte-identical to a cold cfc-inject
// run of the same configuration.
func (s *Session) Run(ctx context.Context, spec Spec, opts core.Options) (*inject.Report, error) {
	cfg := inject.Config{
		Samples:      spec.Samples,
		Seed:         spec.Seed,
		SampleOffset: spec.SampleOffset,
		MaxSteps:     s.maxSteps,
		Options:      opts,
	}
	cfg.CkptInterval = s.Key.CkptInterval
	var rep *inject.Report
	var err error
	if s.static {
		cfg.Policy = s.pol
		rep, err = inject.Execute(ctx, s.prog, cfg, inject.AsStatic(s.label),
			inject.WithRecording(s.log), inject.WithStaticImage(s.staticImage(opts.Backend)))
	} else {
		cfg.Technique, cfg.Policy = s.tech, s.pol
		rep, err = inject.Execute(ctx, s.prog, cfg,
			inject.WithSnapshot(s.snap, s.cleanSteps), inject.WithRecording(s.log))
	}
	if err == nil {
		s.mu.Lock()
		s.campaigns++
		s.mu.Unlock()
	}
	return rep, err
}

// staticImage returns the session's static image for backend, building it
// on first use under the session's step budget.
func (s *Session) staticImage(backend comp.Backend) *inject.StaticImage {
	b := backend.Resolve()
	s.mu.Lock()
	e := s.images[b]
	if e == nil {
		if s.images == nil {
			s.images = map[comp.Backend]*staticImage{}
		}
		e = &staticImage{}
		s.images[b] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.im = inject.NewStaticImage(s.prog, b, s.maxSteps) })
	return e.im
}

// Config parameterizes a Registry.
type Config struct {
	// CacheDir persists checkpoint logs across processes; "" keeps them
	// in memory only.
	CacheDir string
	// MaxSessions bounds the warm set; the least recently used session is
	// evicted when a build would exceed it. <= 0 means unbounded.
	MaxSessions int
	// MaxSteps bounds every clean and reference run (0 =
	// inject.DefaultMaxSteps).
	MaxSteps uint64
	// Metrics, when non-nil, receives the registry's cache accounting
	// (session_{hits,misses,evictions}_total, ckpt_disk_{hits,rerecords}_
	// total) plus the recording counters of every build.
	Metrics *obs.Registry
	// Graph, when non-nil, caches whole campaign cells by content key:
	// RunCell consults it before building a session, so a hit skips the
	// warm/record/inject pipeline entirely (see internal/graph).
	Graph *graph.Cache
	// Artifacts, when non-nil, is the warm-artifact tier: before building a
	// session locally the registry tries to fetch a published artifact
	// (snapshot + reference log) for the exact fingerprint, and after a
	// local build it publishes one back, so a cold replica pointed at a
	// warm store performs zero recordings and zero translations. Every
	// verification failure degrades to a local build (see internal/artifact).
	Artifacts *artifact.Client
}

// Registry builds sessions on demand, deduplicates concurrent builds of
// the same key, keeps the warm set under an LRU bound and shares program
// builds across sessions of the same (workload, scale).
type Registry struct {
	cfg Config

	// restoring counts in-flight artifact-tier restores, surfaced by the
	// health endpoint so a front door can tell "warming from the store"
	// apart from plain readiness.
	restoring atomic.Int64

	mu       sync.Mutex
	sessions map[Key]*entry
	order    []Key // LRU, least recently used first
	programs map[progKey]*progEntry
}

type entry struct {
	ready chan struct{} // closed when sess/err are set
	sess  *Session
	err   error
}

type progKey struct {
	workload string
	scale    float64
}

type progEntry struct {
	ready chan struct{}
	prog  *isa.Program
	err   error

	hashOnce sync.Once
	hash     string
}

// programHash is the content hash progEntry memoizes; tests wrap it to
// count how often a program is hashed.
var programHash = fp.Program

// contentHash returns fp.Program of the built program, computed on first
// use and at most once per entry: the program is immutable once built,
// so every cell key and artifact fingerprint over it shares one hash.
// It stays lazy because a registry without a graph cache or artifact
// tier never needs it.
func (pe *progEntry) contentHash() string {
	pe.hashOnce.Do(func() { pe.hash = programHash(pe.prog) })
	return pe.hash
}

// NewRegistry returns an empty registry.
func NewRegistry(cfg Config) *Registry {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = inject.DefaultMaxSteps
	}
	return &Registry{
		cfg:      cfg,
		sessions: map[Key]*entry{},
		programs: map[progKey]*progEntry{},
	}
}

// count bumps a registry accounting counter.
func (r *Registry) count(name string) {
	if r.cfg.Metrics != nil {
		r.cfg.Metrics.Counter(name).Add(1)
	}
}

// Session returns the warm session for k, building it on first use. A
// concurrent second request for the same key waits for the in-flight
// build instead of duplicating it. ctx bounds the wait and the build.
func (r *Registry) Session(ctx context.Context, k Key) (*Session, error) {
	r.mu.Lock()
	if e, ok := r.sessions[k]; ok {
		r.touchLocked(k)
		r.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err == nil {
			r.count("session_hits_total")
		}
		return e.sess, e.err
	}
	e := &entry{ready: make(chan struct{})}
	r.sessions[k] = e
	r.order = append(r.order, k)
	evicted := r.evictLocked()
	r.mu.Unlock()
	r.sweepEvicted(evicted)
	r.count("session_misses_total")

	e.sess, e.err = r.build(ctx, k)
	close(e.ready)
	if e.err != nil {
		// A failed build must not poison the key forever (the failure may
		// be a canceled context).
		r.mu.Lock()
		if r.sessions[k] == e {
			delete(r.sessions, k)
			r.dropOrderLocked(k)
		}
		r.mu.Unlock()
	}
	return e.sess, e.err
}

// Graph returns the registry's cell cache (nil when disabled).
func (r *Registry) Graph() *graph.Cache { return r.cfg.Graph }

// RunCell resolves one campaign cell — Session+Run fused behind the
// graph cache. With no cache configured it builds the session and runs as
// always. With one, the cell's content key (program bytes, configuration,
// engine identity) is looked up first: a hit returns the cached
// normalized report without even building the session; a miss builds,
// runs, and stores the result for next time. cached reports which path
// answered. Reports are byte-identical either way, except that cached
// reports carry zero Workers/Elapsed (wall clock was not spent).
func (r *Registry) RunCell(ctx context.Context, k Key, spec Spec, opts core.Options) (*inject.Report, bool, error) {
	g := r.cfg.Graph
	if g == nil {
		sess, err := r.Session(ctx, k)
		if err != nil {
			return nil, false, err
		}
		rep, err := sess.Run(ctx, spec, opts)
		return rep, false, err
	}
	pe, err := r.program(k.Workload, k.Scale)
	if err != nil {
		return nil, false, err
	}
	ck := graph.KeyForHash(pe.prog.Name, pe.contentHash(), k.Technique, k.Style, k.Policy,
		spec.Samples, spec.Seed, spec.SampleOffset, k.CkptInterval, opts.Backend, r.cfg.MaxSteps)
	return g.Run(ck, opts.Metrics, func(m *obs.Registry) (*inject.Report, error) {
		sess, err := r.Session(ctx, k)
		if err != nil {
			return nil, err
		}
		copts := opts
		copts.Metrics = m
		return sess.Run(ctx, spec, copts)
	})
}

// Validate checks a key's campaign-independent fields — workload name,
// technique, style, policy — without building anything, so the batch API
// can reject a bad request with a status code before the stream (and any
// graph-cache consultation) starts.
func (r *Registry) Validate(k Key) error {
	if _, err := workloads.ByName(k.Workload); err != nil {
		return err
	}
	if _, err := core.ParsePolicy(k.Policy); err != nil {
		return err
	}
	if _, ok := staticKind(k.Technique); ok {
		return nil
	}
	style, err := core.ParseStyle(k.Style)
	if err != nil {
		return err
	}
	_, err = check.New(k.Technique, style)
	return err
}

// touchLocked moves k to the most-recently-used end.
func (r *Registry) touchLocked(k Key) {
	r.dropOrderLocked(k)
	r.order = append(r.order, k)
}

func (r *Registry) dropOrderLocked(k Key) {
	for i, o := range r.order {
		if o == k {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
}

// evictLocked drops least-recently-used completed sessions until the warm
// set fits the bound, returning the evicted keys for the disk sweep (the
// file I/O must not run under the lock). In-flight builds are never
// evicted.
func (r *Registry) evictLocked() []Key {
	if r.cfg.MaxSessions <= 0 {
		return nil
	}
	var evicted []Key
	for i := 0; len(r.sessions) > r.cfg.MaxSessions && i < len(r.order); {
		k := r.order[i]
		e := r.sessions[k]
		select {
		case <-e.ready:
			delete(r.sessions, k)
			r.order = append(r.order[:i], r.order[i+1:]...)
			r.count("session_evictions_total")
			evicted = append(evicted, k)
		default:
			i++ // in flight; try the next oldest
		}
	}
	return evicted
}

// sweepEvicted inspects each evicted session's on-disk checkpoint log and
// deletes it when it is version-stale (decodes cleanly under a different
// fingerprint): such a file can never satisfy a future load, so leaving
// it would accumulate dead bytes in the cache directory. Valid files stay
// — the next build of the same key is exactly who they serve — and
// corrupt files stay too, to be overwritten in place by that build's
// re-record.
func (r *Registry) sweepEvicted(evicted []Key) {
	if r.cfg.CacheDir == "" {
		return
	}
	for _, k := range evicted {
		if k.CkptInterval == 0 {
			continue // replay sessions have no log
		}
		path := filepath.Join(r.cfg.CacheDir, k.fileName())
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		_, err = ckpt.DecodeLog(f, k.String())
		f.Close()
		if errors.Is(err, ckpt.ErrStale) {
			if os.Remove(path) == nil {
				r.count("ckpt_disk_stale_deleted_total")
			}
		}
	}
}

// Program returns the built workload for (workload, scale), deduplicated
// with the sessions that use it. The bench suite builds its workloads
// through the registry so HTTP-driven benchmarks and campaigns share one
// program build per configuration.
func (r *Registry) Program(workload string, scale float64) (*isa.Program, error) {
	pe, err := r.program(workload, scale)
	if err != nil {
		return nil, err
	}
	return pe.prog, nil
}

// program returns the entry of the built workload, shared across every
// session (and technique) using the same (workload, scale).
func (r *Registry) program(workload string, scale float64) (*progEntry, error) {
	pk := progKey{workload, scale}
	r.mu.Lock()
	pe, ok := r.programs[pk]
	if !ok {
		pe = &progEntry{ready: make(chan struct{})}
		r.programs[pk] = pe
	}
	r.mu.Unlock()
	if ok {
		<-pe.ready
		return pe, pe.err
	}
	pe.prog, pe.err = core.Workload(workload, scale)
	close(pe.ready)
	if pe.err != nil {
		r.mu.Lock()
		if r.programs[pk] == pe {
			delete(r.programs, pk)
		}
		r.mu.Unlock()
	}
	return pe, pe.err
}

// staticKind resolves a static-baseline technique name.
func staticKind(name string) (check.StaticKind, bool) {
	switch strings.ToUpper(name) {
	case "CFCSS":
		return check.StaticCFCSS, true
	case "ECCA":
		return check.StaticECCA, true
	}
	return 0, false
}

// build constructs the session for k: program, warm snapshot (DBT) or
// native clean run (static), and — for the checkpoint engine — the
// reference log, from disk when a valid cache file exists.
func (r *Registry) build(ctx context.Context, k Key) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pe, err := r.program(k.Workload, k.Scale)
	if err != nil {
		return nil, err
	}
	base := pe.prog
	pol, err := core.ParsePolicy(k.Policy)
	if err != nil {
		return nil, err
	}
	s := &Session{Key: k, pol: pol, maxSteps: r.cfg.MaxSteps}

	if kind, ok := staticKind(k.Technique); ok {
		s.static = true
		s.label = kind.String()
		if s.prog, err = check.InstrumentStatic(base, kind); err != nil {
			return nil, err
		}
		afp := r.artifactFingerprint(s, pe)
		if r.restoreSession(s, afp, base) {
			return s, nil
		}
		m := cpu.New()
		m.Reset(s.prog)
		stop := comp.NewEngine(s.prog.Code, m.Costs, 0).Run(m, r.cfg.MaxSteps)
		if stop.Reason != cpu.StopHalt {
			return nil, fmt.Errorf("%s: clean run ended with %v", s.prog.Name, stop)
		}
		s.cleanSteps = m.Steps
		if k.CkptInterval != 0 {
			s.log, s.FromDisk, err = r.referenceLog(k, s.label, m.Steps, m.DirectBranches, m.Output,
				func(interval uint64) (*ckpt.Log, error) {
					return ckpt.RecordStatic(s.prog, interval, r.cfg.MaxSteps)
				})
			if err != nil {
				return nil, err
			}
		}
		r.count("session_warm_builds_total")
		r.publishArtifact(s, afp, pe)
		return s, nil
	}

	style, err := core.ParseStyle(k.Style)
	if err != nil {
		return nil, err
	}
	if s.tech, err = check.New(k.Technique, style); err != nil {
		return nil, err
	}
	s.label = "none"
	if s.tech != nil {
		s.label = s.tech.Name()
	}
	s.prog = base
	afp := r.artifactFingerprint(s, pe)
	if r.restoreSession(s, afp, base) {
		return s, nil
	}
	wcfg := inject.Config{Technique: s.tech, Policy: pol, MaxSteps: r.cfg.MaxSteps}
	snap, clean, err := inject.Warm(base, wcfg)
	if err != nil {
		return nil, err
	}
	s.snap = snap
	s.cleanSteps = clean.Steps
	if k.CkptInterval != 0 {
		s.log, s.FromDisk, err = r.referenceLog(k, s.label, clean.Steps, clean.DirectBranches, clean.Output,
			func(interval uint64) (*ckpt.Log, error) {
				return ckpt.Record(snap, interval, r.cfg.MaxSteps)
			})
		if err != nil {
			return nil, err
		}
	}
	r.count("session_warm_builds_total")
	r.publishArtifact(s, afp, pe)
	return s, nil
}

// artifactFingerprint derives the warm-artifact identity for the session
// under construction: the session key plus everything that shapes the
// warm state but is not in the key (program content, step budget, engine
// and technique versions). "" disables the tier for this build.
func (r *Registry) artifactFingerprint(s *Session, pe *progEntry) string {
	if r.cfg.Artifacts == nil {
		return ""
	}
	return artifact.Fingerprint(s.Key.String(), s.label, pe.contentHash(), r.cfg.MaxSteps)
}

// restoreSession hydrates s from a fetched warm artifact. It reports true
// only when every piece the session needs restored cleanly — any
// shortfall (no artifact, backend mismatch, missing log, inconsistent
// snapshot) reports false and the caller builds locally, so a bad
// artifact can never poison the registry. A restored session performs
// zero reference recordings and zero block translations; its campaigns
// are byte-identical to a locally built session's.
func (r *Registry) restoreSession(s *Session, afp string, base *isa.Program) bool {
	if afp == "" {
		return false
	}
	r.restoring.Add(1)
	defer r.restoring.Add(-1)
	a := r.cfg.Artifacts.Fetch(afp)
	if a == nil {
		return false
	}
	if a.Static != s.static || a.CleanSteps == 0 {
		return false
	}
	if s.Key.CkptInterval != 0 && (a.Log == nil || !a.Log.Complete()) {
		return false
	}
	if !s.static {
		// Zero Backend mirrors the wcfg the local build would have used, so
		// the restored snapshot executes on the same engine tier.
		snap, err := dbt.RestoreSnapshot(base, dbt.Options{Technique: s.tech, Policy: s.pol}, a.Snapshot)
		if err != nil {
			return false
		}
		s.snap = snap
	}
	s.cleanSteps = a.CleanSteps
	if s.Key.CkptInterval != 0 {
		s.log = a.Log
	}
	r.count("session_restores_total")
	return true
}

// publishArtifact ships the locally built session to the artifact tier,
// best effort: an unexportable snapshot or a store failure degrades to
// not publishing, never to a build error.
func (r *Registry) publishArtifact(s *Session, afp string, pe *progEntry) {
	if afp == "" {
		return
	}
	a := &artifact.Artifact{
		Key:         s.Key.String(),
		ProgramHash: pe.contentHash(),
		MaxSteps:    r.cfg.MaxSteps,
		CleanSteps:  s.cleanSteps,
		Static:      s.static,
		Log:         s.log,
	}
	if s.snap != nil {
		st, err := s.snap.State()
		if err != nil {
			return
		}
		a.Snapshot = st
	}
	r.cfg.Artifacts.Publish(a, afp)
}

// referenceLog produces the session's checkpoint log: a disk hit when the
// cache file decodes under k's fingerprint and matches the clean-run
// geometry, otherwise a fresh recording (persisted back when a cache
// directory is configured). record runs the engine-appropriate recorder.
func (r *Registry) referenceLog(k Key, label string, cleanSteps, cleanBranches uint64,
	cleanOutput []int32, record func(interval uint64) (*ckpt.Log, error)) (*ckpt.Log, bool, error) {
	interval := ckpt.AutoInterval(k.CkptInterval, cleanSteps)
	if l := r.loadLog(k, interval, cleanSteps, cleanBranches, cleanOutput); l != nil {
		r.count("ckpt_disk_hits_total")
		return l, true, nil
	}
	l, err := record(interval)
	if err != nil {
		return nil, false, err
	}
	if l.Stop.Reason != cpu.StopHalt {
		return nil, false, fmt.Errorf("%s: clean run ended with %v", k.Workload, l.Stop)
	}
	inject.PublishRecording(r.cfg.Metrics, label)
	r.count("ckpt_disk_rerecords_total")
	r.saveLog(k, l)
	return l, false, nil
}

// loadLog tries the cache file for k, validating the decode (magic,
// checksum, fingerprint) and the geometry against the just-measured clean
// run. Any failure returns nil: the caller re-records and overwrites.
func (r *Registry) loadLog(k Key, interval, cleanSteps, cleanBranches uint64, cleanOutput []int32) *ckpt.Log {
	if r.cfg.CacheDir == "" {
		return nil
	}
	f, err := os.Open(filepath.Join(r.cfg.CacheDir, k.fileName()))
	if err != nil {
		return nil
	}
	defer f.Close()
	l, err := ckpt.DecodeLog(f, k.String())
	if err != nil {
		if !errors.Is(err, ckpt.ErrStale) {
			r.count("ckpt_disk_corrupt_total")
		}
		return nil
	}
	if !l.Complete() ||
		l.Interval != interval ||
		l.Final.Steps != cleanSteps ||
		l.Final.DirectBranches != cleanBranches ||
		len(l.Output) != len(cleanOutput) {
		r.count("ckpt_disk_stale_total")
		return nil
	}
	for i := range l.Output {
		if l.Output[i] != cleanOutput[i] {
			r.count("ckpt_disk_stale_total")
			return nil
		}
	}
	return l
}

// saveLog persists the recording, best effort: a full disk or read-only
// cache directory degrades to memory-only sessions, never to an error.
// The write goes through a temp file + rename so a crash mid-write leaves
// either the old file or the new one, not a torn hybrid.
func (r *Registry) saveLog(k Key, l *ckpt.Log) {
	if r.cfg.CacheDir == "" {
		return
	}
	if err := os.MkdirAll(r.cfg.CacheDir, 0o755); err != nil {
		return
	}
	dst := filepath.Join(r.cfg.CacheDir, k.fileName())
	tmp, err := os.CreateTemp(r.cfg.CacheDir, ".ckpt-*")
	if err != nil {
		return
	}
	err = l.EncodeTo(tmp, k.String())
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
}

// Info describes one warm session for the sessions endpoint.
type Info struct {
	Workload     string  `json:"workload"`
	Scale        float64 `json:"scale"`
	Technique    string  `json:"technique"`
	Style        string  `json:"style,omitempty"`
	Policy       string  `json:"policy,omitempty"`
	CkptInterval int64   `json:"ckpt_interval"`
	Campaigns    int64   `json:"campaigns"`
	CleanSteps   uint64  `json:"clean_steps"`
	Points       int     `json:"ckpt_points,omitempty"`
	LogBytes     uint64  `json:"ckpt_bytes,omitempty"`
	FromDisk     bool    `json:"from_disk,omitempty"`
}

// List snapshots the warm set, sorted by key fingerprint so the output is
// stable across calls and internal map order.
func (r *Registry) List() []Info {
	r.mu.Lock()
	var ready []*Session
	for _, e := range r.sessions {
		select {
		case <-e.ready:
			if e.err == nil && e.sess != nil {
				ready = append(ready, e.sess)
			}
		default:
		}
	}
	r.mu.Unlock()
	sort.Slice(ready, func(a, b int) bool {
		return ready[a].Key.String() < ready[b].Key.String()
	})
	infos := make([]Info, 0, len(ready))
	for _, s := range ready {
		in := Info{
			Workload:     s.Key.Workload,
			Scale:        s.Key.Scale,
			Technique:    s.Key.Technique,
			Style:        s.Key.Style,
			Policy:       s.Key.Policy,
			CkptInterval: s.Key.CkptInterval,
			Campaigns:    s.Campaigns(),
			CleanSteps:   s.cleanSteps,
			FromDisk:     s.FromDisk,
		}
		if s.log != nil {
			in.Points = len(s.log.Points)
			in.LogBytes = s.log.Bytes
		}
		infos = append(infos, in)
	}
	return infos
}

// Restoring reports whether any session build is currently pulling a warm
// artifact from the tier (populating the warm set from the store).
func (r *Registry) Restoring() bool { return r.restoring.Load() > 0 }

// Len returns the number of warm (or building) sessions.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}
