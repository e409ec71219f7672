package main

import (
	"context"
	"math/rand"
	"runtime"
	"strings"

	"repro/internal/session"
)

// The three workloads. README.md gives the reason for each.
func workloads() map[string]*workload {
	nproc := runtime.NumCPU()
	short := []session.Key{
		key("164.gzip", 0.05, "RCF"),
		key("183.equake", 0.05, "EdgCF"),
		key("181.mcf", 0.05, "CFCSS"),
	}
	// A static CFCSS sample costs about three translated ones, so its
	// campaigns are shorter: all three then take about as long, and the
	// latency percentiles fall inside one cluster rather than between two,
	// where contention would make them jump.
	shortSamples := []int{2000, 2000, 600}
	long := []session.Key{
		key("181.mcf", 1, "ECF"),
		key("171.swim", 1, "EdgCF"),
	}
	// ECCA is left out: its campaigns hang about one sample in forty, and
	// each hang runs to the 50M-step budget, so one ECCA request would
	// cost fifty ordinary ones. RCF with CMOVcc updates takes its place.
	var churn []session.Key
	for _, w := range []string{"164.gzip", "181.mcf", "183.equake", "171.swim"} {
		for _, t := range []string{"RCF", "EdgCF", "ECF", "none", "CFCSS", "RCF/CMOVcc"} {
			k := key(w, 0.05, t)
			k.Technique, k.Style, _ = strings.Cut(t, "/")
			churn = append(churn, k)
		}
	}
	return map[string]*workload{
		"campaign-short": campaignWorkload("campaign-short", short, shortSamples, nproc, 6, 21),
		"campaign-long":  campaignWorkload("campaign-long", long, []int{500, 500}, nproc, 4, 9),
		"serve-churn": {
			name: "serve-churn", clients: nproc, setups: 9, digestN: 16, warmup: 200, keys: churn,
			gen: func(seed int64, client int) func() request {
				return churnGen(seed, client, churn)
			},
			setup: func(ctx context.Context, tr *tracer) (system, error) {
				return newFleet(ctx, tr, churn, churnReplicas, churnMaxSessions)
			},
			oracle: churnOracle,
		},
	}
}

func key(workload string, scale float64, technique string) session.Key {
	return session.Key{Workload: workload, Scale: scale, Technique: technique, CkptInterval: -1}
}

// campaignWorkload is one client cycling over warm in-process sessions,
// each campaign with a fresh seed and workers = nproc; samples[i] is the
// campaign size on keys[i]. Short set-ups run more often per run, so the
// median that setup_s reports settles.
func campaignWorkload(name string, keys []session.Key, samples []int, workers, digestN, setups int) *workload {
	return &workload{
		name: name, clients: 1, setups: setups, digestN: digestN, warmup: digestN, keys: keys,
		gen: func(seed int64, client int) func() request {
			j := 0
			return func() request {
				r := request{client: client, seq: j, key: keys[j%len(keys)],
					seed: mix(seed, int64(client), int64(j)), samples: samples[j%len(keys)]}
				j++
				return r
			}
		},
		setup: func(ctx context.Context, tr *tracer) (system, error) {
			return newCampaignSystem(ctx, tr, keys, workers)
		},
		// One campaign per session: the first cycle.
		oracle: func(first []request) []int {
			out := make([]int, len(keys))
			for i := range out {
				out[i] = i
			}
			return out
		},
	}
}

// serve-churn traffic shape.
const (
	churnReplicas    = 2
	churnMaxSessions = 4  // per replica, below its share of the 24 keys
	churnSamples     = 50 // per campaign, workers = 1
	churnPoolSeeds   = 4  // repeated seeds, so some cells hit the graph cache
	churnZipfS       = 1.2
)

// churnGen returns client's request stream: session keys under a Zipf
// popularity (rank = position in keys); every other seed from a small
// shared pool, the rest fresh; every eighth request fanned out over both
// replicas.
func churnGen(seed int64, client int, keys []session.Key) func() request {
	rng := rand.New(rand.NewSource(mix(seed, int64(client), -1)))
	zipf := rand.NewZipf(rng, churnZipfS, 1, uint64(len(keys)-1))
	pool := make([]int64, churnPoolSeeds)
	for i := range pool {
		pool[i] = mix(seed, -2, int64(i))
	}
	type cell struct {
		key    session.Key
		seed   int64
		fanout int
	}
	seen := map[cell]bool{}
	j := 0
	return func() request {
		r := request{client: client, seq: j, key: keys[zipf.Uint64()], samples: churnSamples,
			fanout: 1, seed: mix(seed, int64(client), int64(j))}
		if j%8 == 7 {
			r.fanout = churnReplicas
		}
		if j%2 == 1 {
			r.seed = pool[rng.Intn(len(pool))]
		}
		c := cell{r.key, r.seed, r.fanout}
		r.repeat = seen[c]
		seen[c] = true
		j++
		return r
	}
}

// churnOracle checks the first two routed, fanned-out and repeated
// (graph-cached) requests of client 0.
func churnOracle(first []request) []int {
	var out []int
	var routed, fanned, repeated int
	for i, r := range first {
		switch {
		case r.repeat && repeated < 2:
			repeated++
		case !r.repeat && r.fanout > 1 && fanned < 2:
			fanned++
		case !r.repeat && r.fanout == 1 && routed < 2:
			routed++
		default:
			continue
		}
		out = append(out, i)
	}
	return out
}

// mix derives a seed from the workload seed and two indices (splitmix64
// finalizer), kept positive.
func mix(seed, a, b int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(a)*0xBF58476D1CE4E5B9 + uint64(b)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}
