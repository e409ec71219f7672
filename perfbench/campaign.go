package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/session"
)

// campaignSystem runs campaigns in process on warm sessions, the way a
// sweep does: Registry.Session to find the session, Session.Run to run.
type campaignSystem struct {
	reg     *session.Registry
	metrics *obs.Registry
	workers int
}

// newCampaignSystem builds every session of keys (programs, warm
// snapshots, checkpoint logs) with the graph cache off.
func newCampaignSystem(ctx context.Context, tr *tracer, keys []session.Key, workers int) (*campaignSystem, error) {
	m := obs.NewRegistry()
	s := &campaignSystem{reg: session.NewRegistry(session.Config{Metrics: m}), metrics: m, workers: workers}
	root := tr.begin("bench.setup", 0, "")
	defer root.end()
	for _, k := range keys {
		sp := tr.begin("session.build", root.id(), "")
		_, err := s.reg.Session(ctx, k)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("session %s: %w", k, err)
		}
	}
	return s, nil
}

func (s *campaignSystem) do(ctx context.Context, tr *tracer, r request) (result, error) {
	id := r.id()
	root := tr.begin("bench.request", 0, id)
	defer root.end()
	sp := tr.begin("session.lookup", root.id(), id)
	sess, err := s.reg.Session(ctx, r.key)
	sp.end()
	if err != nil {
		return result{}, err
	}
	opts := core.Options{Workers: s.workers}
	if tr != nil {
		opts.Metrics = obs.NewRegistry() // per campaign, for its worker spans
	}
	sp = tr.begin("inject.campaign", root.id(), id)
	var rep *inject.Report
	labelled(ctx, func(ctx context.Context) {
		rep, err = sess.Run(ctx, session.Spec{Samples: r.samples, Seed: r.seed}, opts)
	})
	end := time.Now()
	sp.end()
	if err != nil {
		return result{}, err
	}
	tr.record("inject.samples", sp.id(), id, end.Add(-rep.Elapsed), end)
	return result{
		samples:  rep.Samples,
		report:   inject.FormatNormalized(rep),
		elapsed:  rep.Elapsed,
		executed: rep.Executed,
		compiled: rep.Compiled,
		skew:     workerSkew(opts.Metrics),
	}, nil
}

func (s *campaignSystem) snapshot() *obs.Snapshot { return s.metrics.Snapshot() }

func (s *campaignSystem) close() {}

// workerSkew is the slowest inject/workerN span over their median, read
// from a campaign's own registry (0 without one).
func workerSkew(m *obs.Registry) float64 {
	if m == nil {
		return 0
	}
	var secs []float64
	for name, sp := range m.Snapshot().Spans {
		if strings.Contains(name, `phase="inject/worker`) {
			secs = append(secs, sp.Seconds)
		}
	}
	if len(secs) == 0 {
		return 0
	}
	sort.Float64s(secs)
	return ratio(secs[len(secs)-1], median(secs))
}
