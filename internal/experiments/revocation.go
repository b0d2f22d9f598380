package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// newCloud builds a fresh kernel + provider pair for a campaign.
func newCloud(seed int64) (*sim.Kernel, *cloud.Provider) {
	k := &sim.Kernel{}
	return k, cloud.NewProvider(k, stats.NewRng(seed))
}

// Figure6Result reproduces Fig. 6: startup-stage breakdown for
// transient vs. on-demand K80/P100 in us-east1 and us-west1.
type Figure6Result struct {
	Summaries []trace.StartupSummary
}

func planFigure6(p *plan) *campaign.Plan {
	// One unit per (GPU, region, tier) cell, declared in the order the
	// legacy single-kernel study reported them.
	for _, g := range []model.GPU{model.K80, model.P100} {
		for _, region := range []cloud.Region{cloud.USEast1, cloud.USWest1} {
			for _, tier := range []cloud.Tier{cloud.Transient, cloud.OnDemand} {
				p.unit(fmt.Sprintf("fig6/%v/%v/%v", g, region, tier), func(s int64) (any, error) {
					k, prov := newCloud(s)
					sums, err := trace.RunStartupStudy(k, prov,
						[]model.GPU{g}, []cloud.Tier{tier}, []cloud.Region{region}, 30)
					if err != nil {
						return nil, err
					}
					return sums[0], nil
				})
			}
		}
	}
	return p.build(func(outs []any) (Result, error) {
		res := &Figure6Result{}
		for _, o := range outs {
			res.Summaries = append(res.Summaries, o.(trace.StartupSummary))
		}
		return res, nil
	})
}

// String renders the stage breakdown.
func (r *Figure6Result) String() string {
	t := newTable("Fig. 6 — startup time breakdown (seconds, mean of 30 launches)",
		"region", "GPU", "tier", "provisioning", "staging", "booting", "total")
	for _, s := range r.Summaries {
		t.addRow(s.Region.String(), s.GPU.String(), s.Tier.String(),
			fmt.Sprintf("%.1f", s.MeanProvisioning),
			fmt.Sprintf("%.1f", s.MeanStaging),
			fmt.Sprintf("%.1f", s.MeanBooting),
			fmt.Sprintf("%.1f", s.MeanTotal))
	}
	t.addNote("paper: all under 100 s; transient P100 ≈8.7%% slower than transient K80; transient vs. on-demand Δ ≈11 s (K80) / ≈21 s (P100)")
	return t.String()
}

// Figure7Result reproduces Fig. 7: startup time for requests issued
// immediately after a revocation vs. delayed.
type Figure7Result struct {
	Immediate []trace.PostRevocationResult
	Delayed   []trace.PostRevocationResult
}

func planFigure7(p *plan) *campaign.Plan {
	for _, timing := range []trace.AcquisitionTiming{trace.Immediate, trace.Delayed} {
		p.unit(fmt.Sprintf("fig7/%v", timing), func(s int64) (any, error) {
			k, prov := newCloud(s)
			return trace.RunPostRevocationStudy(k, prov, timing, 20)
		})
	}
	return p.build(func(outs []any) (Result, error) {
		return &Figure7Result{
			Immediate: outs[0].([]trace.PostRevocationResult),
			Delayed:   outs[1].([]trace.PostRevocationResult),
		}, nil
	})
}

// String renders both regimes.
func (r *Figure7Result) String() string {
	t := newTable("Fig. 7 — startup time after a revocation (seconds)",
		"requested GPU", "timing", "N", "mean total", "CoV")
	for _, set := range [][]trace.PostRevocationResult{r.Immediate, r.Delayed} {
		for _, res := range set {
			t.addRow(res.Requested.String(), res.Timing.String(),
				fmt.Sprintf("%d", res.N),
				fmt.Sprintf("%.1f", res.MeanTotal),
				fmt.Sprintf("%.3f", res.CoVTotal))
		}
	}
	t.addNote("paper: means within ≈4 s across timings and GPU types; immediate requests ≈4× the CoV (12%% vs 3%%)")
	return t.String()
}

// TableVResult reproduces Table V from a fresh twelve-day campaign.
type TableVResult struct {
	Study *trace.RevocationStudy
}

// paperTableV holds the published revocation fractions for reference.
var paperTableV = map[model.GPU]map[cloud.Region]float64{
	model.K80: {
		cloud.USEast1: 0.4667, cloud.USCentral1: 0.5625,
		cloud.USWest1: 0.2292, cloud.EuropeWest1: 0.6667,
	},
	model.P100: {
		cloud.USEast1: 0.70, cloud.USCentral1: 0.5333,
		cloud.USWest1: 0.6667, cloud.EuropeWest1: 0.2667,
	},
	model.V100: {
		cloud.USCentral1: 0.6667, cloud.USWest1: 0.7333,
		cloud.EuropeWest4: 0.43, cloud.AsiaEast1: 0.47,
	},
}

func planTableV(p *plan) *campaign.Plan {
	declareRevocationStudy(p, "revstudy/paper-campaign")
	return p.build(func(outs []any) (Result, error) {
		return &TableVResult{Study: outs[0].(*trace.RevocationStudy)}, nil
	})
}

// declareRevocationStudy adds one twelve-day paper-campaign unit.
// Table V and Fig. 8 declare the same key at the same position, so —
// as in the paper, where both artifacts come from one trace — they
// render the same campaign for a given seed.
func declareRevocationStudy(p *plan, key string) int {
	return p.unit(key, func(s int64) (any, error) {
		k, prov := newCloud(s)
		return trace.RunRevocationStudy(k, prov, trace.PaperCampaign(), 12)
	})
}

// String renders the per-cell revocation table.
func (r *TableVResult) String() string {
	t := newTable("Table V — transient GPU revocations by region (12 virtual days)",
		"region", "GPU", "launched", "revoked", "fraction", "paper")
	for _, c := range r.Study.TableV() {
		t.addRow(c.Region.String(), c.GPU.String(),
			fmt.Sprintf("%d", c.Launched),
			fmt.Sprintf("%d", c.Revoked),
			fmt.Sprintf("%.2f%%", 100*c.Fraction()),
			fmt.Sprintf("%.2f%%", 100*paperTableV[c.GPU][c.Region]))
	}
	totals := r.Study.Totals()
	for _, g := range model.AllGPUs() {
		c := totals[g]
		t.addNote("%v total: %d launched, %d revoked (%.2f%%)", g, c.Launched, c.Revoked, 100*c.Fraction())
	}
	idle, stressed := r.Study.WorkloadSplit()
	t.addNote("workload independence: %d idle vs %d stressed revocations", idle, stressed)
	return t.String()
}

// Figure8Result reproduces Fig. 8: per-(GPU, region) lifetime CDFs.
type Figure8Result struct {
	Study *trace.RevocationStudy
}

func planFigure8(p *plan) *campaign.Plan {
	declareRevocationStudy(p, "revstudy/paper-campaign")
	return p.build(func(outs []any) (Result, error) {
		return &Figure8Result{Study: outs[0].(*trace.RevocationStudy)}, nil
	})
}

// String renders each cell's CDF at fixed horizons plus its MTTR.
func (r *Figure8Result) String() string {
	horizons := []float64{1, 2, 4, 8, 12, 16, 20, 24}
	headers := []string{"GPU", "region"}
	for _, h := range horizons {
		headers = append(headers, fmt.Sprintf("≤%gh", h))
	}
	headers = append(headers, "MTTR(h)")
	t := newTable("Fig. 8 — lifetime CDFs (conditional on revocation)", headers...)
	for _, g := range model.AllGPUs() {
		for _, region := range cloud.AllRegions() {
			cdf, ok := r.Study.LifetimeCDF(g, region)
			if !ok {
				continue
			}
			cells := []string{g.String(), region.String()}
			for _, h := range horizons {
				cells = append(cells, fmt.Sprintf("%.2f", cdf.Eval(h)))
			}
			mttr, _ := r.Study.MeanTimeToRevocation(g, region)
			cells = append(cells, fmt.Sprintf("%.1f", mttr))
			t.addRow(cells...)
		}
	}
	t.addNote("paper: europe-west1 K80 front-loaded (>50%% of revocations in 2 h), us-west1 K80 back-loaded (<5%%); V100 MTTR short (us-central1 ≈7.7 h)")
	return t.String()
}

// Figure9Result reproduces Fig. 9: revocations by local hour of day
// per GPU type.
type Figure9Result struct {
	Histograms map[model.GPU]*stats.HourHistogram
}

func planFigure9(p *plan) *campaign.Plan {
	// Aggregate three campaigns for less noisy hour-of-day structure
	// (the paper aggregates twelve days of launches).
	for i := 0; i < 3; i++ {
		declareRevocationStudy(p, fmt.Sprintf("fig9/study-%d", i))
	}
	return p.build(func(outs []any) (Result, error) {
		res := &Figure9Result{Histograms: make(map[model.GPU]*stats.HourHistogram)}
		for _, g := range model.AllGPUs() {
			res.Histograms[g] = &stats.HourHistogram{}
		}
		for _, o := range outs {
			study := o.(*trace.RevocationStudy)
			for _, g := range model.AllGPUs() {
				for h, c := range study.HourHistogram(g).Counts {
					for j := 0; j < c; j++ {
						res.Histograms[g].Add(h)
					}
				}
			}
		}
		return res, nil
	})
}

// String renders each GPU's 24-hour histogram.
func (r *Figure9Result) String() string {
	var out string
	out += "Fig. 9 — revocations by local hour of day\n"
	out += "hour:     0         6         12        18        23\n"
	for _, g := range model.AllGPUs() {
		h := r.Histograms[g]
		vals := make([]float64, 24)
		for i, c := range h.Counts {
			vals[i] = float64(c)
		}
		peak, count := h.Peak()
		out += fmt.Sprintf("%-5s  [%s]  peak %02d:00 (%d events, %d total)\n",
			g, sparkline(vals), peak, count, h.Total())
	}
	out += "note: paper sees the K80 peak at 10:00 and no V100 revocations 16:00–20:00\n"
	return out
}
