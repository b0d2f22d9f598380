package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// catalog is the part of pland's GET /v1/catalog the generator draws
// from.
type catalog struct {
	Models  []string `json:"models"`
	GPUs    []string `json:"gpus"`
	Regions []string `json:"regions"`
	Tiers   []string `json:"tiers"`
}

// corner is one (region, GPU) cell the provider offers.
type corner struct{ Region, GPU string }

// corners lists the catalog's (region, GPU) cells that offers accepts,
// in catalog order.
func (c catalog) corners(offers func(region, gpu string) bool) []corner {
	var out []corner
	for _, r := range c.Regions {
		for _, g := range c.GPUs {
			if offers(r, g) {
				out = append(out, corner{r, g})
			}
		}
	}
	return out
}

// Request classes of the pland_mix steady phase. A measure reply is
// classified by its "cached" field after the fact.
const (
	classEstimate = "estimate"
	classMeasure  = "measure" // a measure answered by a fresh simulation
	classCached   = "cached"  // a measure answered from the cache
	classGrid     = "grid"
)

// request is one generated HTTP request.
type request struct {
	Class string
	Path  string
	Body  []byte
}

// mix sizes one steady pass. Its shape follows the in-repo client,
// examples/costplanner: a session scans one model's candidate clusters
// in one region with /v1/estimate (every offered GPU × 1, 2, 4, 8
// workers × every tier: 24 estimates in us-central1), then validates
// one candidate with three /v1/measure sessions under distinct seeds.
// Every session is sent a second time after all the first runs, as
// costplanner's "repeat this run to watch hits climb" does, so each
// validation is one cache miss and one hit. costplanner sends no
// /v1/cheapest; GridSessions of the sessions also ask it for the
// cheapest of the validated GPU's cluster sizes n and 2n on every tier,
// the server-side form of the same search.
//
// Only the counts are chosen. steadyMix, the traced cycle's, meets the
// tail floor of every reported percentile in one pass: p99 needs 1000
// samples (estimates, misses, hits), p90 needs 100 (grids, half of them
// repeats). timedMix, the untraced passes', is a quarter of it in the
// same proportions, so a run holds 16 passes to take each segment's
// median from.
type mix struct {
	Sessions     int
	GridSessions int
}

var (
	steadyMix = mix{Sessions: 340, GridSessions: 60}
	timedMix  = mix{Sessions: 85, GridSessions: 15}
)

const (
	validations = 3     // costplanner's replicated measured sessions
	targetSteps = 16000 // a miss is a full simulation of this many steps
)

var scanSizes = []int{1, 2, 4, 8} // costplanner's cluster sizes

// session is one client session: requests sent in order, each after
// the previous reply.
type session []request

// scenarioQuery mirrors pland's single-scenario request body.
type scenarioQuery struct {
	Model       string `json:"model"`
	GPU         string `json:"gpu"`
	Region      string `json:"region"`
	Tier        string `json:"tier"`
	Workers     int    `json:"workers"`
	TargetSteps int64  `json:"target_steps"`
	Seed        int64  `json:"seed"`
}

// cheapestQuery mirrors pland's /v1/cheapest request body.
type cheapestQuery struct {
	Model       string   `json:"model"`
	Sizes       []int    `json:"sizes"`
	GPUs        []string `json:"gpus"`
	Regions     []string `json:"regions"`
	Tiers       []string `json:"tiers"`
	TargetSteps int64    `json:"target_steps"`
	Seed        int64    `json:"seed"`
}

// setupRequests is one transient /v1/estimate per offered corner: the
// requests that pay pland's lazy model fits and lifetime campaigns.
func setupRequests(cat catalog, offers func(region, gpu string) bool) ([]request, error) {
	cs := cat.corners(offers)
	if len(cs) == 0 || len(cat.Models) == 0 {
		return nil, fmt.Errorf("catalog offers no (region, GPU) corner")
	}
	out := make([]request, len(cs))
	for i, c := range cs {
		out[i] = mustRequest(classEstimate, "/v1/estimate", scenarioQuery{
			Model: cat.Models[0], GPU: c.GPU, Region: c.Region, Tier: "transient", Workers: 1, TargetSteps: 16000,
		})
	}
	return out, nil
}

// maxPasses and maxSessions keep the measure seeds that generate
// derives distinct: seed·10⁶ + pass·10⁴ + 10·session + request.
const (
	maxPasses   = 100
	maxSessions = 1000
)

// generate builds one steady pass's sessions from the seed: every
// session once, then every session again in a shuffled order. It draws
// scenarios only from cells the catalog lists and offers accepts, and
// the same (catalog, seed, pass) always yields the same sessions. Each
// session's measures carry seeds of their own, derived from the
// benchmark seed and the pass, so no two sessions share a cache line
// and a new seed means new simulations as well as new sessions. Passes
// of one seed send the same requests in the same order and differ only
// in those measure seeds: a later pass on the same pland process meets
// the same mix of cache misses and hits as the first.
func generate(cat catalog, offers func(region, gpu string) bool, seed int64, pass int, m mix) ([]session, error) {
	cs := cat.corners(offers)
	if len(cs) == 0 || len(cat.Models) == 0 || len(cat.Tiers) == 0 {
		return nil, fmt.Errorf("catalog offers no (region, GPU) corner")
	}
	if pass < 0 || pass >= maxPasses || m.Sessions >= maxSessions {
		return nil, fmt.Errorf("pass %d of %d sessions: measure seeds would collide", pass, m.Sessions)
	}
	gpusIn := make(map[string][]string)
	var regions []string
	for _, c := range cs {
		if gpusIn[c.Region] == nil {
			regions = append(regions, c.Region)
		}
		gpusIn[c.Region] = append(gpusIn[c.Region], c.GPU)
	}
	rng := rand.New(rand.NewSource(seed))
	first := make([]session, m.Sessions)
	for i := range first {
		// The region, and the validated candidate's size and tier, go
		// round in turn, so every seed sends as many requests and
		// simulates as many workers; the seed draws the model, the
		// validated GPU and the measures' seeds.
		region := regions[i%len(regions)]
		pickSize := scanSizes[i/len(regions)%len(scanSizes)]
		pickTier := cat.Tiers[i/(len(regions)*len(scanSizes))%len(cat.Tiers)]
		model := cat.Models[rng.Intn(len(cat.Models))]
		var scan []scenarioQuery
		for _, g := range gpusIn[region] {
			for _, n := range scanSizes {
				for _, tier := range cat.Tiers {
					scan = append(scan, scenarioQuery{Model: model, GPU: g, Region: region, Tier: tier, Workers: n, TargetSteps: targetSteps})
				}
			}
		}
		var s session
		for _, q := range scan {
			s = append(s, mustRequest(classEstimate, "/v1/estimate", q))
		}
		base := seed*1_000_000 + int64(pass)*10_000 + 10*int64(i)
		gpus := gpusIn[region]
		pick := scenarioQuery{Model: model, GPU: gpus[rng.Intn(len(gpus))], Region: region, Tier: pickTier, Workers: pickSize, TargetSteps: targetSteps}
		for r := 0; r < validations; r++ {
			q := pick
			q.Seed = base + int64(r)
			s = append(s, mustRequest(classMeasure, "/v1/measure", q))
		}
		if i < m.GridSessions {
			s = append(s, mustRequest(classGrid, "/v1/cheapest", cheapestQuery{
				Model: model, Sizes: []int{pick.Workers, 2 * pick.Workers}, GPUs: []string{pick.GPU},
				Regions: []string{region}, Tiers: cat.Tiers, TargetSteps: targetSteps, Seed: base + validations,
			}))
		}
		first[i] = s
	}
	repeat := append([]session(nil), first...)
	rng.Shuffle(len(repeat), func(i, j int) { repeat[i], repeat[j] = repeat[j], repeat[i] })
	return append(first, repeat...), nil
}

func mustRequest(class, path string, body any) request {
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // only plain structs of strings and numbers are marshaled
	}
	return request{Class: class, Path: path, Body: b}
}
