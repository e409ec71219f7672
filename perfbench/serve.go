package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/front"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/session"
)

// Trace propagation headers between the benchmark's own wrappers. The
// program forwards none of them; the wrappers around the front's replica
// client copy them from the request context.
const (
	hdrRequest = "X-Bench-Request"
	hdrSpan    = "X-Bench-Span"
)

// fleet is the served system: an artifact store, replicas sharing it, and
// the front door, each on its own loopback listener in this process.
type fleet struct {
	cancel   context.CancelFunc
	servers  []*http.Server
	wg       sync.WaitGroup
	metrics  []*obs.Registry
	storeURL string
	frontURL string
	client   *http.Client
	inner    []*http.Transport // transports to close on shutdown
}

// newFleet starts the store, seeds it with every key's artifact, starts
// the replicas and the front and waits until the front reports healthy.
// With tr set, every hop records spans.
func newFleet(ctx context.Context, tr *tracer, keys []session.Key, replicas, maxSessions int) (*fleet, error) {
	f := &fleet{}
	ctx, f.cancel = context.WithCancel(ctx)
	root := tr.begin("bench.setup", 0, "")
	defer root.end()

	var err error
	if f.storeURL, err = f.serve(artifact.Handler(artifact.NewStore(""))); err != nil {
		f.close()
		return nil, err
	}
	// A store kept from an earlier deployment holds every session; the
	// replicas start cold and restore what they need from it.
	seeder := session.NewRegistry(session.Config{Artifacts: &artifact.Client{BaseURL: f.storeURL}})
	for _, k := range keys {
		sp := tr.begin("session.build", root.id(), "")
		_, err := seeder.Session(ctx, k)
		sp.end()
		if err != nil {
			f.close()
			return nil, fmt.Errorf("seeding %s: %w", k, err)
		}
	}
	urls := make([]string, replicas)
	for i := range urls {
		m := obs.NewRegistry()
		f.metrics = append(f.metrics, m)
		client := &artifact.Client{BaseURL: f.storeURL, HTTP: &http.Client{
			Timeout: 30 * time.Second, Transport: &spanTransport{tr: tr, base: f.transport(), name: "artifact.http"},
		}, Metrics: m}
		reg := session.NewRegistry(session.Config{
			MaxSessions: maxSessions, Metrics: m, Graph: graph.New(""), Artifacts: client,
		})
		srv := &session.Server{Registry: reg, Metrics: m}
		if urls[i], err = f.serve(&replicaSpans{tr: tr, next: srv.Handler()}); err != nil {
			f.close()
			return nil, err
		}
	}
	fr := front.New(front.Config{
		Replicas:     urls,
		Client:       &http.Client{Transport: &spanTransport{tr: tr, base: f.transport(), name: "front.replica_call", propagate: true}},
		PollInterval: 250 * time.Millisecond,
	})
	fr.Start(ctx)
	if f.frontURL, err = f.serve(&frontSpans{tr: tr, next: fr.Handler()}); err != nil {
		f.close()
		return nil, err
	}
	f.client = &http.Client{Transport: f.transport()}
	if err := f.healthy(ctx); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) transport() *http.Transport {
	t := &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute}
	f.inner = append(f.inner, t)
	return t
}

// serve starts h on a fresh loopback listener and returns its base URL.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// healthy polls the front's /healthz until every replica is ready.
func (f *fleet) healthy(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h front.FrontHealth
		resp, err := f.client.Get(f.frontURL + "/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
		}
		if err == nil && resp.StatusCode == http.StatusOK && h.Ready == len(f.metrics) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("front not healthy: %v (ready %d)", err, h.Ready)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (f *fleet) close() {
	f.cancel()
	for _, s := range f.servers {
		s.Close()
	}
	f.wg.Wait()
	for _, t := range f.inner {
		t.CloseIdleConnections()
	}
}

func (f *fleet) snapshot() *obs.Snapshot {
	s := &obs.Snapshot{}
	for _, m := range f.metrics {
		s.Merge(m.Snapshot())
	}
	return s
}

// do posts one single-campaign batch to the front and reads its record.
func (f *fleet) do(ctx context.Context, tr *tracer, r request) (result, error) {
	body, err := json.Marshal(session.Request{
		Workload: r.key.Workload, Scale: r.key.Scale, Technique: r.key.Technique,
		Style: r.key.Style, Policy: r.key.Policy, CkptInterval: r.key.CkptInterval,
		Workers: 1, Campaigns: []session.SpecJSON{{Seed: r.seed, Samples: r.samples}},
	})
	if err != nil {
		return result{}, err
	}
	url := f.frontURL + "/v1/campaigns"
	if r.fanout > 1 {
		url += "?fanout=" + strconv.Itoa(r.fanout)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return result{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	root := tr.begin("bench.request", 0, r.id())
	defer root.end()
	if tr != nil {
		req.Header.Set(hdrRequest, r.id())
		req.Header.Set(hdrSpan, strconv.FormatInt(root.id(), 10))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return result{}, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return result{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return result{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	recs := records(out)
	if len(recs) != 1 {
		return result{}, fmt.Errorf("want one record, got %d", len(recs))
	}
	rec := recs[0]
	if rec.Error != "" {
		return result{}, errors.New(rec.Error)
	}
	return result{
		samples:  rec.Samples,
		report:   rec.Report,
		elapsed:  time.Duration(rec.ElapsedSec * float64(time.Second)),
		executed: rec.Executed,
		cached:   rec.Cached,
	}, nil
}

// records parses the NDJSON campaign records of a response body.
func records(b []byte) []session.RecordJSON {
	var out []session.RecordJSON
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var rec session.RecordJSON
		if json.Unmarshal(sc.Bytes(), &rec) == nil && (rec.Report != "" || rec.Error != "") {
			out = append(out, rec)
		}
	}
	return out
}

// traceCtx carries the request id and the caller's span id from a
// handler wrapper to the outgoing calls made under its request context.
type traceCtx struct {
	request string
	span    int64
}

type traceKey struct{}

func fromHeaders(h http.Header) (string, int64) {
	parent, _ := strconv.ParseInt(h.Get(hdrSpan), 10, 64)
	return h.Get(hdrRequest), parent
}

// frontSpans records front.handle around every front request and hands
// the ids to the replica calls the front makes under its context.
type frontSpans struct {
	tr   *tracer
	next http.Handler
}

func (h *frontSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, parent := fromHeaders(r.Header)
	if h.tr == nil || id == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	sp := h.tr.begin("front.handle", parent, id)
	defer sp.end()
	ctx := context.WithValue(r.Context(), traceKey{}, traceCtx{id, sp.id()})
	h.next.ServeHTTP(w, r.WithContext(ctx))
}

// spanTransport records one span per outgoing call, ending when the
// response body is drained or closed. With propagate it forwards the
// request and span ids to the callee as headers.
type spanTransport struct {
	tr        *tracer
	base      http.RoundTripper
	name      string
	propagate bool
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.tr == nil {
		return t.base.RoundTrip(req)
	}
	tc, _ := req.Context().Value(traceKey{}).(traceCtx)
	if t.propagate && tc.request == "" {
		return t.base.RoundTrip(req) // health probes and metric polls
	}
	sp := t.tr.begin(t.name, tc.span, tc.request)
	if t.propagate {
		req = req.Clone(req.Context())
		req.Header.Set(hdrRequest, tc.request)
		req.Header.Set(hdrSpan, strconv.FormatInt(sp.id(), 10))
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	sp   *open
	once sync.Once
}

func (b *endOnClose) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.sp.end)
	}
	return n, err
}

func (b *endOnClose) Close() error {
	b.once.Do(b.sp.end)
	return b.ReadCloser.Close()
}

// replicaSpans records session.serve around every traced replica
// request, plus an inject.samples child per campaign record holding the
// sample-loop time the record states.
type replicaSpans struct {
	tr   *tracer
	next http.Handler
}

func (h *replicaSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, parent := fromHeaders(r.Header)
	if h.tr == nil || id == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	sp := h.tr.begin("session.serve", parent, id)
	cw := &captureWriter{ResponseWriter: w}
	labelled(r.Context(), func(ctx context.Context) { h.next.ServeHTTP(cw, r.WithContext(ctx)) })
	end := time.Now()
	for _, rec := range records(cw.buf.Bytes()) {
		if d := time.Duration(rec.ElapsedSec * float64(time.Second)); d > 0 {
			h.tr.record("inject.samples", sp.id(), id, end.Add(-d), end)
		}
	}
	sp.end()
}

// captureWriter keeps a copy of the response body and stays flushable,
// as the campaign stream requires.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.buf.Write(p)
	return c.ResponseWriter.Write(p)
}

func (c *captureWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
