package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/train"
)

// ladder collects the per-layer metrics of one traced run.
type ladder struct {
	b  *bench
	t  *tally
	tr *tracer
	m  map[string]metric

	// engineSeconds totals the in-process engine runs' wall time, the
	// base of campaign.idle_share.
	engineSeconds float64
}

func (l *ladder) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// timeIt runs fn reps times, each call inside a span, and returns the
// median seconds per call. A failed call counts as a failed operation.
func (l *ladder) timeIt(name string, parent, reps int, fn func() error) float64 {
	var secs []float64
	for i := 0; i < reps; i++ {
		id := l.tr.begin(name, "", parent)
		start := time.Now()
		err := fn()
		secs = append(secs, time.Since(start).Seconds())
		l.tr.end(id)
		l.t.op(err)
	}
	return stats.Median(secs)
}

// traced runs the ladder: every layer with spans, and returns the
// per-layer metrics. The ladder is the same on every workload, so each
// traced run reports every layer. The workload's own work also runs
// untraced: once as the real programs (the base of process.cpu_s and of
// the rendering check) and once right before its traced run, on the
// same work in the same process state (the base of trace.overhead).
func (b *bench) traced(ctx context.Context, t *tally) (map[string]metric, error) {
	l := &ladder{b: b, t: t, tr: newTracer(), m: make(map[string]metric)}

	var baseCPU float64
	var baseOut []byte
	if b.workload != "pland_mix" {
		p := b.runBatchPass(ctx)
		for _, e := range p.errs {
			t.note(e)
		}
		want, err := b.goldenBlocks()
		if err != nil {
			return nil, err
		}
		for _, e := range checkSections(p.stdout, batchIDs(b.workload), want, "the golden snapshot") {
			t.op(e)
		}
		baseCPU, baseOut = p.cpu, p.stdout
	}

	root := l.tr.begin("ladder", b.workload, 0)
	l.regressAndCore(root)
	l.trainAndSim(root)
	l.measureAndFleet(root)

	var baseWall, tracedWall float64
	pr := newPlandRun(steadyMix)
	if b.workload == "pland_mix" {
		c, err := b.plandCycle(ctx, t, pr, nil, 0, 1)
		if err != nil {
			return nil, err
		}
		baseWall, baseCPU = c.steady, c.cpu
	}
	c, err := b.plandCycle(ctx, t, pr, l.tr, root, 1)
	if err != nil {
		return nil, err
	}
	tracedWall = c.steady
	l.plandMetrics(c)
	l.plannerDirect(ctx, root, pr)

	for _, set := range []string{"paper_all", "extras"} {
		runners := batchRunners(set)
		if set == b.workload {
			_, baseWall = l.campaignSet(nil, 0, set, runners)
		}
		out, wall := l.campaignSet(l.tr, root, set, runners)
		if set == b.workload {
			tracedWall = wall
			l.compareRendering(out, baseOut, batchIDs(set))
		}
	}
	l.campaignMetrics()
	l.tr.end(root)

	l.set("trace.overhead", tracedWall/baseWall-1, "ratio")
	l.set("process.cpu_s", baseCPU, "s")

	path := filepath.Join(b.bin, fmt.Sprintf("spans-%s-%d.ndjson", b.workload, b.seed))
	if err := l.tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(l.tr.snapshot()), path)
	return l.m, nil
}

func (l *ladder) compareRendering(traced, untraced []byte, ids []string) {
	_, want := splitSections(untraced)
	for _, e := range checkSections(traced, ids, want, "the untraced run") {
		l.t.op(e)
	}
}

// rbfCandidates are Tables II and IV's RBF bandwidth candidates.
var rbfCandidates = []regress.Kernel{
	regress.RBF{Sigma: 0.05}, regress.RBF{Sigma: 0.1},
	regress.RBF{Sigma: 0.2}, regress.RBF{Sigma: 0.35}, regress.RBF{Sigma: 0.5},
}

// checkpointObservations is a fixed Zoo-derived checkpoint dataset:
// perModel noisy timings of every model, as Table IV and pland collect.
func checkpointObservations(perModel int, cov float64, seed int64) []core.CheckpointObservation {
	rng := stats.NewRng(seed)
	var out []core.CheckpointObservation
	for _, m := range model.Zoo() {
		for i := 0; i < perModel; i++ {
			out = append(out, core.CheckpointObservation{
				DataBytes: m.CkptDataBytes, MetaBytes: m.CkptMetaBytes, IndexBytes: m.CkptIndexBytes,
				Seconds: rng.LogNormal(train.CheckpointSeconds(m), cov),
			})
		}
	}
	return out
}

// regressAndCore times the regression layer (one grid search, single
// SVR fits) and core's model fits and Eq. 4/5 estimate.
func (l *ladder) regressAndCore(parent int) {
	// Table IV's SVR row: total checkpoint size, min-max normalized,
	// 4:1 train/test split.
	obs := checkpointObservations(5, 0.025, 1)
	X := make([][]float64, len(obs))
	y := make([]float64, len(obs))
	for i, o := range obs {
		X[i] = []float64{float64(o.DataBytes+o.MetaBytes+o.IndexBytes) / 1e6}
		y[i] = o.Seconds
	}
	var scaler regress.MinMaxScaler
	X, err := scaler.FitTransform(X)
	l.t.op(err)
	trX, trY, _, _, err := regress.TrainTestSplit(X, y, 0.8, stats.NewRng(2))
	l.t.op(err)

	var best regress.Factory
	l.set("regress.grid_search_s", l.timeIt("regress.grid_search", parent, 1, func() error {
		var err error
		best, _, _, _, _, err = regress.GridSearchSVRKernels(rbfCandidates, regress.PaperSVRGrid(), trX, trY, 5, stats.NewRng(3))
		return err
	}), "s")
	if best == nil {
		best = func() regress.Regressor { return &regress.SVR{Kernel: regress.RBF{Sigma: 0.2}, C: 50, Epsilon: 0.05} }
	}
	l.set("regress.svr_fit_ms", 1000*l.timeIt("regress.svr_fit", parent, 31, func() error {
		return best().Fit(trX, trY)
	}), "ms")

	// pland's and the fleet's calibrated models.
	var speedObs []core.SpeedObservation
	for _, g := range model.AllGPUs() {
		for _, m := range model.Zoo() {
			speedObs = append(speedObs, core.SpeedObservation{GPU: g, GFLOPs: m.GFLOPs, StepSeconds: model.StepTimeModel(g, m)})
		}
	}
	var speed *core.SpeedModel
	l.set("core.fit_speed_s", l.timeIt("core.fit_speed", parent, 3, func() error {
		var err error
		speed, err = core.FitSpeedModel(speedObs, core.KindSVRRBF)
		return err
	}), "s")
	ckptObs := checkpointObservations(5, 0.04, 3)
	var ckpt *core.CheckpointModel
	l.set("core.fit_checkpoint_s", l.timeIt("core.fit_checkpoint", parent, 3, func() error {
		var err error
		ckpt, err = core.FitCheckpointModel(ckptObs, core.FeatTotalSize, core.KindSVRRBF)
		return err
	}), "s")
	if speed == nil || ckpt == nil {
		l.set("core.estimate_us", 0, "us") // the failed fit is already counted
		return
	}

	// A warm Eq. 4/5 estimate of a 4-worker transient plan.
	region, g := cloud.USCentral1, model.K80
	rev := core.NewRevocationEstimator()
	rng := stats.NewRng(4)
	lifetimes := make([]float64, 300)
	for i := range lifetimes {
		lifetimes[i] = rng.LogNormal(12, 0.6)
	}
	l.t.op(rev.SetLifetimes(region.String(), g, lifetimes))
	m := model.ResNet32()
	pred := &core.Predictor{Speed: speed, Checkpoint: ckpt, Revocation: rev,
		ProvisionSeconds: 70, ReplacementSeconds: train.ReplacementSeconds(m, true)}
	workers := make([]core.Placement, 4)
	for i := range workers {
		workers[i] = core.Placement{GPU: g, Region: region.String(), Transient: true}
	}
	plan := core.Plan{Model: m, Workers: workers, ParameterServers: 1, TargetSteps: 64000, CheckpointInterval: 1000}
	const batch = 200
	l.set("core.estimate_us", 1e6/batch*l.timeIt("core.estimate", parent, 25, func() error {
		for i := 0; i < batch; i++ {
			if _, err := pred.Estimate(plan); err != nil {
				return err
			}
		}
		return nil
	}), "us")
}

// trainAndSim times whole training sessions on the event kernel: the
// asynchronous parameter-server loop and the synchronous-batch loop.
func (l *ladder) trainAndSim(parent int) {
	session := func(name string, cfg train.Config) (stepsPerS, eventsPerS, eventsPerStep float64) {
		var sps, eps []float64
		l.timeIt(name, parent, 5, func() error {
			k := &sim.Kernel{}
			c, err := train.NewCluster(k, cfg)
			if err != nil {
				return err
			}
			start := time.Now()
			c.Start()
			k.Run()
			secs := time.Since(start).Seconds()
			res := c.Result()
			if !res.Done || res.GlobalSteps < cfg.TargetSteps {
				return fmt.Errorf("%s: session stopped at step %d of %d", name, res.GlobalSteps, cfg.TargetSteps)
			}
			sps = append(sps, float64(res.GlobalSteps)/secs)
			eps = append(eps, float64(k.FiredEvents())/secs)
			eventsPerStep = float64(k.FiredEvents()) / float64(res.GlobalSteps)
			return nil
		})
		if len(sps) == 0 {
			return 0, 0, 0 // every session failed, and each is counted
		}
		return stats.Median(sps), stats.Median(eps), eventsPerStep
	}
	async := train.Config{Model: model.ResNet32(), Workers: train.Homogeneous(model.K80, 4),
		TargetSteps: 1000000, CheckpointInterval: 1000, Seed: 1}
	steps, events, perStep := session("train.async", async)
	l.set("train.async_steps_per_s", steps, "1/s")
	l.set("sim.events_per_s", events, "1/s")
	l.set("sim.events_per_step", perStep, "count")

	sync := train.Config{Model: model.ResNet32(), Workers: train.Mixed(2, 1, 1),
		TargetSteps: 200000, CheckpointInterval: 1000, Seed: 1,
		Batch: &train.BatchPolicy{GlobalBatch: 4 * model.ReferenceBatch, Dynamic: true}}
	steps, _, _ = session("train.sync", sync)
	l.set("train.sync_steps_per_s", steps, "1/s")
}

// measureAndFleet times one transient scenario measurement (what a
// pland cache miss runs) and whole fleet simulations.
func (l *ladder) measureAndFleet(parent int) {
	sc := experiments.Scenario{Model: model.ResNet32(), GPU: model.K80, Region: cloud.USCentral1, Tier: cloud.Transient, Workers: 4}
	l.set("experiments.measure_scenario_ms", 1000*l.timeIt("experiments.measure_scenario", parent, 31, func() error {
		_, err := experiments.MeasureScenario(sc, 16000, 1000, experiments.SessionOptions{}, 1)
		return err
	}), "ms")

	// The fleet experiment's scarce regime: 2 transient slots per
	// offered cell, bursty arrivals.
	capacity := cloud.Capacity{}
	for _, g := range model.AllGPUs() {
		for _, r := range cloud.OfferedRegions(g) {
			capacity[cloud.PoolKey{Region: r, GPU: g}] = 2
		}
	}
	cfg := fleet.Config{
		Workload: fleet.WorkloadSpec{Jobs: 10, Arrival: fleet.ArrivalBursty, RatePerHour: 2,
			StepsPerWorker: 30000, CheckpointInterval: 1000},
		Scheduler: "deadline-aware", Capacity: capacity, HorizonHours: 48, WorkloadSeed: 7,
	}
	runFleet := func(name string, cfg fleet.Config) float64 {
		return l.timeIt(name, parent, 3, func() error {
			_, err := fleet.Run(cfg, 11)
			return err
		})
	}
	l.set("fleet.run_s", runFleet("fleet.run", cfg), "s")
	cfg.Scheduler = "predictive"
	l.set("fleet.run_predictive_s", runFleet("fleet.run_predictive", cfg), "s")
}

// plandMetrics reports the traced pland pass: per-class client
// latencies and the planner's own counters from /v1/stats.
func (l *ladder) plandMetrics(c cycle) {
	l.set("pland.req_per_s", float64(c.requests)/c.steady, "1/s")
	for _, q := range []struct {
		class string
		p     float64
		name  string
	}{
		{classEstimate, 0.5, "pland.estimate_p50_ms"}, {classEstimate, 0.99, "pland.estimate_p99_ms"},
		{classMeasure, 0.5, "pland.measure_p50_ms"}, {classMeasure, 0.99, "pland.measure_p99_ms"},
		{classCached, 0.5, "pland.cached_p50_ms"}, {classCached, 0.99, "pland.cached_p99_ms"},
		{classGrid, 0.5, "pland.grid_p50_ms"}, {classGrid, 0.9, "pland.grid_p90_ms"},
	} {
		v, err := percentile(c.latMS[q.class], q.p)
		l.t.op(err)
		l.set(q.name, v, "ms")
	}
	fmt.Fprintf(os.Stderr, "perfbench: pland samples: estimate=%d measure=%d cached=%d grid=%d\n",
		len(c.latMS[classEstimate]), len(c.latMS[classMeasure]), len(c.latMS[classCached]), len(c.latMS[classGrid]))

	s := c.stats
	l.set("planner.hits", s.Hits, "count")
	l.set("planner.misses", s.Misses, "count")
	l.set("planner.coalesced", s.Coalesced, "count")
	l.set("planner.hit_ratio", s.Hits/max(s.Hits+s.Misses, 1), "ratio")
	l.set("planner.pool_jobs", s.PoolJobsRun, "count")
	l.set("planner.pool_wait_s", s.PoolWaitSeconds, "s")
	l.set("planner.pool_busy_s", s.PoolBusySeconds, "s")
	l.set("planner.rejections", s.Rejections, "count")
	l.set("planner.first_estimate_s", c.firstEstimate, "s")
}

// plannerDirect calls Planner.Estimate in-process on the pass's
// estimate queries; its gap to the HTTP latency is HTTP and JSON.
func (l *ladder) plannerDirect(ctx context.Context, parent int, pr *plandRun) {
	p := planner.New(planner.Config{Workers: batchWorkers})
	defer p.Close()
	setup, err := setupRequests(*pr.cat, offers)
	if err != nil {
		l.t.op(err)
		return
	}
	estimate := func(r request) error {
		var q planner.ScenarioQuery
		if err := json.Unmarshal(r.Body, &q); err != nil {
			return err
		}
		_, err := p.Estimate(ctx, q)
		return err
	}
	id := l.tr.begin("planner.setup", "", parent)
	for _, r := range setup {
		l.t.op(estimate(r))
	}
	l.tr.end(id)

	id = l.tr.begin("planner.estimate_direct", "", parent)
	var us []float64
	for _, s := range pr.passes[0] {
		for _, r := range s {
			if r.Class != classEstimate {
				continue
			}
			start := time.Now()
			err := estimate(r)
			us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
			l.t.op(err)
		}
	}
	l.tr.end(id)
	l.set("planner.estimate_direct_us", stats.Median(us), "us")
}

// campaignSet runs experiments in-process through campaign.Engine with
// batchWorkers workers. With a tracer, spans wrap plan building, every
// unit and every reduce; a nil tracer runs the same plans untraced. It
// returns the rendering (repro's stdout format) and the wall seconds
// from the first plan to the last reduce.
func (l *ladder) campaignSet(tr *tracer, parent int, name string, runners []experiments.Runner) ([]byte, float64) {
	root := tr.begin("campaign.run", name, parent)
	defer tr.end(root)
	start := time.Now()
	plans := make([]*campaign.Plan, len(runners))
	for i, r := range runners {
		sid := tr.begin("campaign.plan", r.ID, root)
		p := r.Plan(l.b.seed)
		tr.end(sid)
		if tr != nil {
			p = spanPlan(p, tr, root, r.ID)
		}
		plans[i] = p
	}
	var out bytes.Buffer
	engineStart := time.Now()
	dropped := campaign.Engine{Workers: batchWorkers}.RunEach(plans, func(i int, o campaign.Outcome) bool {
		if o.Err != nil {
			l.t.op(fmt.Errorf("%s: %v", runners[i].ID, o.Err))
			return true
		}
		fmt.Fprintf(&out, "== %s — %s\n\n", runners[i].ID, runners[i].Title)
		fmt.Fprintln(&out, o.Value.(experiments.Result).String())
		return true
	})
	if dropped != nil {
		l.t.op(dropped)
	}
	if tr != nil {
		l.engineSeconds += time.Since(engineStart).Seconds()
	}
	return out.Bytes(), time.Since(start).Seconds()
}

// spanPlan wraps every unit and the reduce of p in spans tagged with
// the experiment id. Unit keys, and so derived seeds, are unchanged.
func spanPlan(p *campaign.Plan, tr *tracer, parent int, id string) *campaign.Plan {
	units := make([]campaign.Unit, len(p.Units))
	for i, u := range p.Units {
		if run := u.RunScratch; run != nil {
			u.RunScratch = func(seed int64, s *campaign.Scratch) (any, error) {
				sid := tr.begin("campaign.unit", id, parent)
				defer tr.end(sid)
				return run(seed, s)
			}
		} else if run := u.Run; run != nil {
			u.Run = func(seed int64) (any, error) {
				sid := tr.begin("campaign.unit", id, parent)
				defer tr.end(sid)
				return run(seed)
			}
		}
		units[i] = u
	}
	out := *p
	out.Units = units
	if reduce := p.Reduce; reduce != nil {
		out.Reduce = func(outs []any) (any, error) {
			sid := tr.begin("campaign.reduce", id, parent)
			defer tr.end(sid)
			return reduce(outs)
		}
	}
	return &out
}

// campaignMetrics sums the campaign spans of both in-process sets.
func (l *ladder) campaignMetrics() {
	spans := l.tr.snapshot()
	unit := sumSeconds(spans, "campaign.unit", "")
	reduce := sumSeconds(spans, "campaign.reduce", "")
	units := 0
	for _, s := range spans {
		if s.Name == "campaign.unit" {
			units++
		}
	}
	l.set("campaign.plan_s", sumSeconds(spans, "campaign.plan", ""), "s")
	l.set("campaign.unit_s", unit, "s")
	l.set("campaign.reduce_s", reduce, "s")
	l.set("campaign.units", float64(units), "count")
	l.set("campaign.idle_share", 1-(unit+reduce)/(l.engineSeconds*batchWorkers), "ratio")
	for _, id := range append(batchIDs("paper_all"), batchIDs("extras")...) {
		l.set("experiments."+id+".unit_s", sumSeconds(spans, "campaign.unit", id), "s")
		l.set("experiments."+id+".reduce_s", sumSeconds(spans, "campaign.reduce", id), "s")
	}
}
