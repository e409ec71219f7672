package session

import (
	"context"
	"sync"
	"testing"

	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/inject"
)

// coldStatic runs the campaign a static session serves the cold way: a
// fresh inject.Execute that builds its own static image.
func coldStatic(t *testing.T, s *Session, spec Spec, opts core.Options) *inject.Report {
	t.Helper()
	cfg := inject.Config{Samples: spec.Samples, Seed: spec.Seed, Policy: s.pol, Options: opts}
	cfg.CkptInterval = s.Key.CkptInterval
	rep, err := inject.Execute(context.Background(), s.prog, cfg, inject.AsStatic(s.label))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// sameReport checks that a session report matches the cold one in every
// classified field and in the compiled-backend work, which the cold
// campaign's own image build must reproduce.
func sameReport(t *testing.T, what string, got, want *inject.Report) {
	t.Helper()
	if g, w := inject.FormatNormalized(got), inject.FormatNormalized(want); g != w {
		t.Errorf("%s: report differs from a cold campaign\n got: %s\nwant: %s", what, g, w)
	}
	if got.Compiled != want.Compiled {
		t.Errorf("%s: compiled work %+v, cold campaign %+v", what, got.Compiled, want.Compiled)
	}
}

// A static session builds its image on the first campaign, not during
// session build, and concurrent campaigns share it: under -race this
// also checks the lazy build and the shared read-only image.
func TestStaticImageSharedByConcurrentCampaigns(t *testing.T) {
	for _, iv := range []int64{-1, 0} {
		s := mustSession(t, NewRegistry(Config{}), testKey("CFCSS", iv))
		if len(s.images) != 0 {
			t.Fatalf("interval %d: session build made %d static images", iv, len(s.images))
		}
		opts := core.Options{Workers: 2}
		reps := make([]*inject.Report, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := range reps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				reps[i], errs[i] = s.Run(context.Background(), Spec{Samples: testSamples, Seed: int64(i + 1)}, opts)
			}(i)
		}
		wg.Wait()
		for i := range reps {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			sameReport(t, "concurrent campaign", reps[i], coldStatic(t, s, Spec{Samples: testSamples, Seed: int64(i + 1)}, opts))
		}
		if len(s.images) != 1 {
			t.Errorf("interval %d: %d static images after two campaigns on one backend, want 1", iv, len(s.images))
		}
	}
}

// Each resolved backend gets its own image (auto and compile share one),
// and every backend's report matches its cold campaign.
func TestStaticImagePerBackend(t *testing.T) {
	s := mustSession(t, NewRegistry(Config{}), testKey("CFCSS", -1))
	spec := Spec{Samples: testSamples, Seed: 5}
	for _, b := range []comp.Backend{comp.BackendAuto, comp.BackendStep, comp.BackendCompile} {
		opts := core.Options{Workers: 2, Backend: b}
		rep, err := s.Run(context.Background(), spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, b.String(), rep, coldStatic(t, s, spec, opts))
	}
	if len(s.images) != 2 {
		t.Fatalf("%d static images, want one each for step and compile", len(s.images))
	}
	if s.staticImage(comp.BackendAuto) != s.staticImage(comp.BackendCompile) {
		t.Error("auto and compile campaigns use different images")
	}
	if s.staticImage(comp.BackendStep) == s.staticImage(comp.BackendCompile) {
		t.Error("step and compile campaigns share an image")
	}
}
