package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/train"
)

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

func planFigure10(p *plan) *campaign.Plan {
	const trials = 20
	for _, m := range model.CanonicalModels() {
		for _, cold := range []bool{true, false} {
			for trial := 0; trial < trials; trial++ {
				p.unit(fmt.Sprintf("fig10/%s/cold=%v/%d", m.Name, cold, trial), func(s int64) (any, error) {
					return figure10Trial(m, cold, s)
				})
			}
		}
	}
	return p.build(func(outs []any) (Result, error) {
		res := &Figure10Result{Seconds: make(map[string][2]float64)}
		i := 0
		for _, m := range model.CanonicalModels() {
			var vals [2]float64
			for ci := range vals {
				var sum float64
				for trial := 0; trial < trials; trial++ {
					sum += outs[i].(float64)
					i++
				}
				vals[ci] = sum / trials
			}
			res.Seconds[m.Name] = vals
		}
		return res, nil
	})
}

// figure10Trial runs one replacement trial: a single-K80 session with
// a worker joining five seconds in, returning the request-to-join
// latency read off the session's private timeline.
func figure10Trial(m model.Model, cold bool, seed int64) (float64, error) {
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
		return 0, err
	}
	c.Start()
	k.RunUntil(sim.Time(5))
	requestedAt := k.Now().Seconds()
	if _, err := c.AddWorker(train.WorkerSpec{GPU: model.K80}, train.JoinMode{Cold: cold}); err != nil {
		return 0, err
	}
	k.RunUntil(sim.Time(400))
	joins := rec.EventsOf(train.EventJoin)
	if len(joins) != 1 {
		return 0, fmt.Errorf("figure10: expected one join, got %d", len(joins))
	}
	return joins[0].T - requestedAt, nil
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

func planFigure11(p *plan) *campaign.Plan {
	const (
		ckptInterval = 4000
		revokeAfter  = 1000 // chief revoked 1k steps past the checkpoint (§V-A)
	)
	joinAts := []int64{1500, 2000, 2500, 3000, 3500}
	for _, joinAt := range joinAts {
		for _, reuseIP := range []bool{true, false} {
			p.unit(fmt.Sprintf("fig11/%d/reuse=%v", joinAt, reuseIP), func(s int64) (any, error) {
				return figure11Trial(s, joinAt, reuseIP, ckptInterval, revokeAfter)
			})
		}
	}
	return p.build(func(outs []any) (Result, error) {
		res := &Figure11Result{}
		for i, joinAt := range joinAts {
			reuse := outs[2*i].(float64)
			fresh := outs[2*i+1].(float64)
			res.StepsSince = append(res.StepsSince, joinAt)
			res.OverheadSeconds = append(res.OverheadSeconds, reuse-fresh)
		}
		return res, nil
	})
}

// figure11Trial runs one 2×K80 ResNet-15 session: checkpoint at
// ckptInterval, chief revoked revokeAfter steps later, replacement
// joining when the session has advanced joinAt steps past the
// checkpoint. It returns the time from the first checkpoint to the
// next one (the "time to reach the next designated checkpoint"), read
// off the session's private timeline.
func figure11Trial(seed, joinAt int64, reuseIP bool, ckptInterval, revokeAfter int64) (float64, error) {
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
		return 0, err
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
	// Run until the second checkpoint lands (bounded horizon keeps a
	// logic bug from hanging the experiment).
	k.RunUntil(sim.Time(4 * 3600))
	ckpts := rec.EventsOf(train.EventCheckpoint)
	if len(ckpts) < 2 {
		return 0, fmt.Errorf("figure11: only %d checkpoints completed", len(ckpts))
	}
	return ckpts[1].T - ckpts[0].T, nil
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
