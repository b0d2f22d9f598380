package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/train"
)

// trial is one Fig. 10 or Fig. 11 session, built and not yet run. It
// reads its result off the first n events of one kind on its private
// recorder. Those land long before its horizon, which only bounds a
// trial whose events never come.
type trial struct {
	k       *sim.Kernel
	rec     *obs.Recorder
	kind    string
	n       int
	horizon sim.Time
	read    func(events []obs.Event) (float64, error)
}

// trialSlice is how many simulated seconds a trial runs between looks
// at its recorder.
const trialSlice = 10

// run advances the trial in slices of trialSlice seconds until its
// recorder holds n events of its kind, or to its horizon, and reads
// the events of that kind recorded by then. The slices fire the same
// events in the same order as one run to the horizon: a slice ends
// between two events, and nothing outside the events schedules any.
func (t *trial) run() (float64, error) {
	for t.k.Now() < t.horizon && len(t.rec.EventsOf(t.kind)) < t.n {
		t.k.RunUntil(min(t.k.Now()+trialSlice, t.horizon))
	}
	return t.read(t.rec.EventsOf(t.kind))
}

// trialSpec declares one trial: its unit key and the builder of its
// session for a unit seed.
type trialSpec struct {
	key   string
	build func(seed int64) (*trial, error)
}

// trials declares one unit per spec, each running its trial to the
// events it reads.
func (p *plan) trials(specs []trialSpec) {
	for _, s := range specs {
		p.unit(s.key, func(seed int64) (any, error) {
			t, err := s.build(seed)
			if err != nil {
				return nil, err
			}
			return t.run()
		})
	}
}

// Figure10Result reproduces Fig. 10: worker replacement overhead for
// cold starts (new server) vs. warm starts (existing server), for the
// four canonical models.
type Figure10Result struct {
	// Seconds[modelName] = {cold mean, warm mean} over the trials.
	Seconds map[string][2]float64
}

// paperFigure10 holds approximate published values (seconds).
var paperFigure10 = map[string][2]float64{
	"ResNet-15":       {75.6, 14.8},
	"ResNet-32":       {79, 18},
	"ShakeShakeSmall": {81, 20},
	"ShakeShakeBig":   {90.6, 29.8},
}

// figure10Trials is how many trials average into each bar.
const figure10Trials = 20

func planFigure10(p *plan) *campaign.Plan {
	p.trials(figure10Specs())
	return p.build(func(outs []any) (Result, error) {
		res := &Figure10Result{Seconds: make(map[string][2]float64)}
		i := 0
		for _, m := range model.CanonicalModels() {
			var vals [2]float64
			for ci := range vals {
				var sum float64
				for range figure10Trials {
					sum += outs[i].(float64)
					i++
				}
				vals[ci] = sum / figure10Trials
			}
			res.Seconds[m.Name] = vals
		}
		return res, nil
	})
}

// figure10Specs lists Fig. 10's trials in declaration order.
func figure10Specs() []trialSpec {
	var specs []trialSpec
	for _, m := range model.CanonicalModels() {
		for _, cold := range []bool{true, false} {
			for i := range figure10Trials {
				specs = append(specs, trialSpec{
					key:   fmt.Sprintf("fig10/%s/cold=%v/%d", m.Name, cold, i),
					build: func(seed int64) (*trial, error) { return newFigure10Trial(m, cold, seed) },
				})
			}
		}
	}
	return specs
}

// newFigure10Trial builds one replacement trial: a single-K80 session
// with a worker requested five seconds in. It reads the
// request-to-join latency off the session's private timeline.
func newFigure10Trial(m model.Model, cold bool, seed int64) (*trial, error) {
	k := &sim.Kernel{}
	rec := obs.NewRecorder()
	c, err := train.NewCluster(k, train.Config{
		Model:         m,
		Workers:       train.Homogeneous(model.K80, 1),
		DisableWarmup: true,
		Seed:          seed,
		Trace:         rec,
	})
	if err != nil {
		return nil, err
	}
	c.Start()
	k.RunUntil(sim.Time(5))
	requestedAt := k.Now().Seconds()
	if _, err := c.AddWorker(train.WorkerSpec{GPU: model.K80}, train.JoinMode{Cold: cold}); err != nil {
		return nil, err
	}
	return &trial{k: k, rec: rec, kind: train.EventJoin, n: 1, horizon: sim.Time(400),
		read: func(joins []obs.Event) (float64, error) {
			if len(joins) != 1 {
				return 0, fmt.Errorf("figure10: expected one join, got %d", len(joins))
			}
			return joins[0].T - requestedAt, nil
		}}, nil
}

// String renders the cold/warm bars.
func (r *Figure10Result) String() string {
	t := newTable("Fig. 10 — worker replacement overhead (seconds)",
		"model", "cold start", "warm start", "paper cold/warm")
	for _, m := range model.CanonicalModels() {
		v := r.Seconds[m.Name]
		p := paperFigure10[m.Name]
		t.addRow(m.Name, fmt.Sprintf("%.1f", v[0]), fmt.Sprintf("%.1f", v[1]),
			fmt.Sprintf("%.1f/%.1f", p[0], p[1]))
	}
	t.addNote("cold = newly requested server (adds dataset download); warm = existing server")
	return t.String()
}

// Figure11Result reproduces Fig. 11: the recomputation overhead of
// unmodified TensorFlow when a replacement reuses the revoked chief's
// IP address, versus CM-DARE's chief handoff, as a function of how
// many steps had accumulated since the last checkpoint.
type Figure11Result struct {
	// StepsSince lists the x axis (steps since last checkpoint at the
	// replacement's join).
	StepsSince []int64
	// OverheadSeconds is the extra time to reach the next designated
	// checkpoint when reusing the chief's IP (rollback) relative to a
	// new IP (no rollback).
	OverheadSeconds []float64
}

// figure11JoinAts are Fig. 11's x axis: how many steps past the
// checkpoint the replacement joins.
var figure11JoinAts = []int64{1500, 2000, 2500, 3000, 3500}

func planFigure11(p *plan) *campaign.Plan {
	p.trials(figure11Specs())
	return p.build(func(outs []any) (Result, error) {
		res := &Figure11Result{}
		for i, joinAt := range figure11JoinAts {
			reuse := outs[2*i].(float64)
			fresh := outs[2*i+1].(float64)
			res.StepsSince = append(res.StepsSince, joinAt)
			res.OverheadSeconds = append(res.OverheadSeconds, reuse-fresh)
		}
		return res, nil
	})
}

// figure11Specs lists Fig. 11's trials in declaration order: for each
// join point, the IP-reusing trial, then the fresh-IP one.
func figure11Specs() []trialSpec {
	var specs []trialSpec
	for _, joinAt := range figure11JoinAts {
		for _, reuseIP := range []bool{true, false} {
			specs = append(specs, trialSpec{
				key:   fmt.Sprintf("fig11/%d/reuse=%v", joinAt, reuseIP),
				build: func(seed int64) (*trial, error) { return newFigure11Trial(seed, joinAt, reuseIP) },
			})
		}
	}
	return specs
}

// newFigure11Trial builds one 2×K80 ResNet-15 session: checkpoint at
// ckptInterval, chief revoked revokeAfter steps later, replacement
// joining when the session has advanced joinAt steps past the
// checkpoint. It reads the time from the first checkpoint to the
// second (the "time to reach the next designated checkpoint") off the
// session's private timeline.
func newFigure11Trial(seed, joinAt int64, reuseIP bool) (*trial, error) {
	const (
		ckptInterval = 4000
		revokeAfter  = 1000 // chief revoked 1k steps past the checkpoint (§V-A)
	)
	k := &sim.Kernel{}
	rec := obs.NewRecorder()
	c, err := train.NewCluster(k, train.Config{
		Model:              model.ResNet15(),
		Workers:            train.Homogeneous(model.K80, 2),
		CheckpointInterval: ckptInterval,
		DisableWarmup:      true,
		Seed:               seed,
		Trace:              rec,
	})
	if err != nil {
		return nil, err
	}
	// Unmodified TensorFlow for the IP-reuse variant: no handoff.
	c.SetChiefHandoff(!reuseIP)
	chief := c.Chief()
	c.WhenStep(ckptInterval+revokeAfter, func() {
		if err := c.KillWorker(chief); err != nil {
			panic(fmt.Sprintf("figure11: kill: %v", err))
		}
	})
	c.WhenStep(ckptInterval+joinAt, func() {
		mode := train.JoinMode{Cold: true, ReuseChiefIP: reuseIP}
		if _, err := c.AddWorker(train.WorkerSpec{GPU: model.K80}, mode); err != nil {
			panic(fmt.Sprintf("figure11: join: %v", err))
		}
	})
	c.Start()
	// The trial stops at the second checkpoint; the 4 h horizon only
	// keeps a logic bug from hanging the experiment.
	return &trial{k: k, rec: rec, kind: train.EventCheckpoint, n: 2, horizon: sim.Time(4 * 3600),
		read: func(ckpts []obs.Event) (float64, error) {
			if len(ckpts) < 2 {
				return 0, fmt.Errorf("figure11: only %d checkpoints completed", len(ckpts))
			}
			return ckpts[1].T - ckpts[0].T, nil
		}}, nil
}

// String renders the overhead curve.
func (r *Figure11Result) String() string {
	t := newTable("Fig. 11 — recomputation overhead of reusing the chief's IP (ResNet-15, 2×K80, Ic=4k)",
		"steps since last checkpoint", "overhead (s)")
	for i, s := range r.StepsSince {
		t.addRow(fmt.Sprintf("%d", s), fmt.Sprintf("%.0f", r.OverheadSeconds[i]))
	}
	t.addNote("paper: overhead grows with steps since the checkpoint (up to ≈300 s); CM-DARE's takeover avoids it")
	return t.String()
}
