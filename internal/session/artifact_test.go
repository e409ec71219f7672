package session

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/artifact"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/mem"
	"repro/internal/obs"
)

// artifactRegistry builds a registry wired to the artifact tier.
func artifactRegistry(store *artifact.Store, baseURL string) (*Registry, *obs.Registry) {
	reg := obs.NewRegistry()
	r := NewRegistry(Config{
		Metrics:   reg,
		Artifacts: &artifact.Client{BaseURL: baseURL, Local: store, Metrics: reg},
	})
	return r, reg
}

// The tentpole contract: a cold replica pointed at a warm artifact store
// builds nothing — zero reference recordings, zero block translations —
// and serves campaigns byte-identical to the replica that built the
// state locally. Exercised over HTTP for both a translator technique and
// a static baseline, under the checkpoint engine.
func TestArtifactColdRestoreOverHTTP(t *testing.T) {
	for _, tech := range []string{"RCF", "CFCSS"} {
		t.Run(tech, func(t *testing.T) {
			srv := httptest.NewServer(artifact.Handler(artifact.NewStore("")))
			defer srv.Close()
			k := testKey(tech, -1)

			rA, regA := artifactRegistry(artifact.NewStore(""), srv.URL)
			sA := mustSession(t, rA, k)
			if got := counter(regA, "session_warm_builds_total"); got != 1 {
				t.Fatalf("replica A warm builds = %d, want 1", got)
			}
			if got := counter(regA, "artifact_publish_total"); got != 1 {
				t.Fatalf("replica A publishes = %d, want 1", got)
			}

			rB, regB := artifactRegistry(artifact.NewStore(""), srv.URL)
			sB := mustSession(t, rB, k)
			if got := counter(regB, "session_restores_total"); got != 1 {
				t.Errorf("replica B restores = %d, want 1", got)
			}
			if got := counter(regB, "session_warm_builds_total"); got != 0 {
				t.Errorf("replica B warm builds = %d, want 0", got)
			}
			if got := counter(regB, "artifact_fetch_hits_total"); got != 1 {
				t.Errorf("replica B fetch hits = %d, want 1", got)
			}
			if got := recordings(regB); got != 0 {
				t.Errorf("replica B recordings = %d, want 0", got)
			}

			opts := core.Options{Workers: 2}
			repA, err := sA.Run(context.Background(), Spec{Samples: testSamples, Seed: 7}, opts)
			if err != nil {
				t.Fatal(err)
			}
			repB, err := sB.Run(context.Background(), Spec{Samples: testSamples, Seed: 7}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := inject.FormatNormalized(repB), inject.FormatNormalized(repA); got != want {
				t.Errorf("restored report differs from local build\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// A shared local store (two replicas on one disk) restores without any
// HTTP server, for the replay engine too (artifact carries the snapshot
// but no log).
func TestArtifactSharedLocalStore(t *testing.T) {
	store := artifact.NewStore(t.TempDir())
	k := testKey("RCF", 0)

	rA, _ := artifactRegistry(store, "")
	sA := mustSession(t, rA, k)

	rB, regB := artifactRegistry(store, "")
	sB := mustSession(t, rB, k)
	if got := counter(regB, "session_restores_total"); got != 1 {
		t.Errorf("restores = %d, want 1", got)
	}
	if got := counter(regB, "session_warm_builds_total"); got != 0 {
		t.Errorf("warm builds = %d, want 0", got)
	}

	repA, err := sA.Run(context.Background(), Spec{Samples: testSamples, Seed: 3}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	repB, err := sB.Run(context.Background(), Spec{Samples: testSamples, Seed: 3}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inject.FormatNormalized(repB), inject.FormatNormalized(repA); got != want {
		t.Errorf("restored report differs from local build\n got: %s\nwant: %s", got, want)
	}
}

// Verification failures must degrade to a local build that then serves
// correct campaigns — a bad artifact never poisons the registry.
func TestArtifactFailureFallsBackToLocalBuild(t *testing.T) {
	k := testKey("RCF", -1)

	// Warm a store, then change the step bound: the fingerprint differs,
	// so the fetch misses and the registry builds (and republishes).
	store := artifact.NewStore(t.TempDir())
	rA, _ := artifactRegistry(store, "")
	mustSession(t, rA, k)

	regB := obs.NewRegistry()
	rB := NewRegistry(Config{
		MaxSteps:  inject.DefaultMaxSteps / 2,
		Metrics:   regB,
		Artifacts: &artifact.Client{Local: store, Metrics: regB},
	})
	sB := mustSession(t, rB, k)
	if got := counter(regB, "session_restores_total"); got != 0 {
		t.Errorf("mismatched fingerprint restored: restores = %d, want 0", got)
	}
	if got := counter(regB, "session_warm_builds_total"); got != 1 {
		t.Errorf("warm builds = %d, want 1", got)
	}
	if got := counter(regB, "artifact_fetch_misses_total"); got != 1 {
		t.Errorf("fetch misses = %d, want 1", got)
	}

	rep, err := sB.Run(context.Background(), Spec{Samples: testSamples, Seed: 7}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != testSamples {
		t.Errorf("fallback session served %d samples, want %d", rep.Samples, testSamples)
	}

	// A corrupt blob behind a valid ref: corrupt counter, local build.
	badStore := artifact.NewStore("")
	blob := []byte("not an artifact")
	badStore.Put(blob)
	regC := obs.NewRegistry()
	rC := NewRegistry(Config{Metrics: regC, Artifacts: &artifact.Client{Local: badStore, Metrics: regC}})
	// Plant the garbage blob behind the exact fingerprint the registry
	// will derive for k, so the fetch resolves and fails verification.
	pe, err := rC.program(k.Workload, k.Scale)
	if err != nil {
		t.Fatal(err)
	}
	afp := rC.artifactFingerprint(&Session{Key: k, label: "RCF"}, pe)
	if err := badStore.Link(artifact.RefID(afp), artifact.Digest(blob)); err != nil {
		t.Fatal(err)
	}
	sC := mustSession(t, rC, k)
	if got := counter(regC, "artifact_fetch_corrupt_total"); got != 1 {
		t.Errorf("corrupt fetches = %d, want 1", got)
	}
	if got := counter(regC, "session_warm_builds_total"); got != 1 {
		t.Errorf("warm builds after corrupt fetch = %d, want 1", got)
	}
	rep, err = sC.Run(context.Background(), Spec{Samples: testSamples, Seed: 7}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != testSamples {
		t.Errorf("post-corruption session served %d samples, want %d", rep.Samples, testSamples)
	}
}

// An artifact whose embedded log frames correctly — valid checksums and
// fingerprint all the way down — but carries a page index past the
// machine's memory must fail verification, and the registry must build
// the session locally and serve the same campaigns as an honest build.
// Without the decode-time geometry check the restore would write that
// page into a reused machine and panic the replica.
func TestArtifactCraftedLogFallsBackToLocalBuild(t *testing.T) {
	for _, tech := range []string{"RCF", "CFCSS"} {
		t.Run(tech, func(t *testing.T) {
			k := testKey(tech, -1)
			rA, _ := artifactRegistry(artifact.NewStore(""), "")
			sA := mustSession(t, rA, k)
			pe, err := rA.program(k.Workload, k.Scale)
			if err != nil {
				t.Fatal(err)
			}
			afp := rA.artifactFingerprint(sA, pe)
			a := rA.cfg.Artifacts.Fetch(afp)
			if a == nil || a.Log == nil {
				t.Fatal("published artifact with a log not fetched back")
			}
			pts := a.Log.Points
			pts[len(pts)-1].Pages = append(pts[len(pts)-1].Pages,
				ckpt.Page{Index: a.Log.MemWords>>mem.PageShift + 1, Words: []int32{1}})
			bad := artifact.NewStore("")
			if err := bad.Link(artifact.RefID(afp), bad.Put(a.Encode(afp))); err != nil {
				t.Fatal(err)
			}

			rC, regC := artifactRegistry(bad, "")
			sC := mustSession(t, rC, k)
			if got := counter(regC, "artifact_fetch_corrupt_total"); got != 1 {
				t.Errorf("corrupt fetches = %d, want 1", got)
			}
			if got := counter(regC, "session_restores_total"); got != 0 {
				t.Errorf("restores = %d, want 0", got)
			}
			if got := counter(regC, "session_warm_builds_total"); got != 1 {
				t.Errorf("warm builds = %d, want 1", got)
			}
			spec, opts := Spec{Samples: testSamples, Seed: 11}, core.Options{Workers: 2}
			repA, err := sA.Run(context.Background(), spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			repC, err := sC.Run(context.Background(), spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := inject.FormatNormalized(repC), inject.FormatNormalized(repA); got != want {
				t.Errorf("rebuilt session's report differs\n got: %s\nwant: %s", got, want)
			}
		})
	}
}
