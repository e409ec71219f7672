package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The reference digests: for each workload, the sha256 of the
// inject.FormatNormalized report of each of client 0's first digestN
// requests at goldenSeed. Client 0's stream depends only on the seed, and
// the normalized reports depend neither on the worker count nor on how the
// front routes or shards a campaign, so the digests hold on any host and
// must hold across commits that do not mean to change campaign outcomes.
// Rewrite them with
//
//	bash perfbench/run.sh --workload <name> --write-golden
const (
	goldenSeed = 20261017
	goldenFile = "golden.json"
)

//go:embed golden.json
var goldenJSON []byte

type goldenEntry struct {
	Seed    int64    `json:"seed"`
	Digests []string `json:"digests"`
}

// goldenDigests answers client 0's first digestN requests at goldenSeed,
// one at a time.
func goldenDigests(ctx context.Context, wl *workload, sys system) ([]string, error) {
	ph := runPhase(ctx, sys, nil, []func() request{wl.gen(goldenSeed, 0)}, 0, []int{wl.digestN}, false)
	var out []string
	for _, o := range ph.done[0] {
		if o.err != nil {
			return nil, fmt.Errorf("reference request %s: %w", o.req.id(), o.err)
		}
		out = append(out, o.digest)
	}
	return out, nil
}

// checkGolden compares the reference digests with the committed ones and
// returns the number that differ (every one when they cannot be computed).
func checkGolden(ctx context.Context, wl *workload, sys system) int {
	all := map[string]goldenEntry{}
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", goldenFile+":", err)
		return wl.digestN
	}
	want, ok := all[wl.name]
	if !ok || want.Seed != goldenSeed || len(want.Digests) != wl.digestN {
		fmt.Fprintf(os.Stderr, "perfbench: %s holds no reference digests for %s at seed %d\n", goldenFile, wl.name, goldenSeed)
		return wl.digestN
	}
	got, err := goldenDigests(ctx, wl, sys)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return wl.digestN
	}
	bad := 0
	for i, d := range got {
		if d != want.Digests[i] {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: reference request 0/%d of %s at seed %d: report digest %s, want %s\n",
				i, wl.name, goldenSeed, d, want.Digests[i])
		}
	}
	return bad
}

// writeGolden records the workload's reference digests in the source
// tree's golden.json; run.sh's checkout root is the working directory.
func writeGolden(ctx context.Context, wl *workload, sys system) int {
	defer sys.close()
	all := map[string]goldenEntry{}
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		all = map[string]goldenEntry{}
	}
	t0 := time.Now()
	got, err := goldenDigests(ctx, wl, sys)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	all[wl.name] = goldenEntry{Seed: goldenSeed, Digests: got}
	b, err := json.MarshalIndent(all, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join("perfbench", goldenFile), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("perfbench: %d reference digests of %s in %v\n", len(got), wl.name, time.Since(t0).Round(time.Millisecond))
	return 0
}
