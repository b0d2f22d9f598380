// Package experiments regenerates every table and figure of the
// paper's evaluation. Each runner declares its measurement campaign as
// a grid of independent replications — one simulated session or study
// per unit, each on its own single-threaded kernel — plus a reduce
// that renders the result in the same rows/series the paper reports,
// so shapes can be compared side by side. The campaign engine
// schedules the grid on a worker pool; output is identical at any
// worker count.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/train"
)

// Result is a rendered experiment outcome.
type Result interface {
	fmt.Stringer
}

// Runner executes one experiment end to end.
type Runner struct {
	// ID is the short name used by cmd/repro (-exp flag) and the
	// benchmark harness, e.g. "table1", "fig8", "endtoend".
	ID string
	// Title describes the paper artifact being reproduced.
	Title string
	// declare adds the experiment's replication grid to p and
	// finalizes it.
	declare func(p *plan) *campaign.Plan
}

// Run executes the experiment sequentially (one worker).
func (r Runner) Run(seed int64) (Result, error) {
	return r.RunWorkers(seed, 1)
}

// Plan declares the experiment's replication grid for the given
// campaign seed, untraced.
func (r Runner) Plan(seed int64) *campaign.Plan {
	return r.PlanTraced(seed, nil)
}

// PlanTraced builds the runner's plan with sim-plane tracing attached:
// every traceable unit gets a recorder registered in col under
// "<id>/<unit index> <unit key>". Unit recorders are created here, at
// declaration time, and each is written only by its own unit's
// goroutine — so the collector's exported stream is deterministic at
// any worker count. A nil col plans untraced.
func (r Runner) PlanTraced(seed int64, col *obs.Collector) *campaign.Plan {
	return r.declare(&plan{seed: seed, col: col, prefix: r.ID})
}

// RunWorkers executes the experiment's campaign on a pool of the given
// size. The result is identical for every worker count.
func (r Runner) RunWorkers(seed int64, workers int) (Result, error) {
	v, err := campaign.Engine{Workers: workers}.Run(r.Plan(seed))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.ID, err)
	}
	return v.(Result), nil
}

// All lists every experiment in paper order, plus the scenario sweep.
func All() []Runner {
	return []Runner{
		{ID: "table1", Title: "Table I: training speed, simplest cluster (4 models × 3 GPUs)", declare: planTableI},
		{ID: "fig2", Title: "Fig. 2: training speed vs. steps on K80 (warm-up and stability)", declare: planFigure2},
		{ID: "fig3", Title: "Fig. 3: step time vs. normalized computation and model complexity", declare: planFigure3},
		{ID: "table2", Title: "Table II: step-time prediction models (k-fold and test MAE)", declare: planTableII},
		{ID: "table3", Title: "Table III: per-worker step time in homogeneous/heterogeneous clusters", declare: planTableIII},
		{ID: "fig4", Title: "Fig. 4: cluster training speed vs. number of P100 workers", declare: planFigure4},
		{ID: "fig5", Title: "Fig. 5: checkpoint duration vs. checkpoint size", declare: planFigure5},
		{ID: "ckptseq", Title: "§IV-B: checkpoint overhead is additive (sequential with training)", declare: planCheckpointSequential},
		{ID: "table4", Title: "Table IV: checkpoint-time prediction models", declare: planTableIV},
		{ID: "fig6", Title: "Fig. 6: startup time breakdown (transient vs. on-demand)", declare: planFigure6},
		{ID: "fig7", Title: "Fig. 7: startup time after revocations (immediate vs. delayed)", declare: planFigure7},
		{ID: "table5", Title: "Table V: transient revocations by region and GPU", declare: planTableV},
		{ID: "fig8", Title: "Fig. 8: lifetime CDFs by region and GPU", declare: planFigure8},
		{ID: "fig9", Title: "Fig. 9: time-of-day impact on revocations", declare: planFigure9},
		{ID: "fig10", Title: "Fig. 10: worker replacement overhead (cold vs. warm)", declare: planFigure10},
		{ID: "fig11", Title: "Fig. 11: TensorFlow-specific recomputation overhead", declare: planFigure11},
		{ID: "fig12", Title: "Fig. 12: parameter-server bottleneck detection and mitigation", declare: planFigure12},
		{ID: "endtoend", Title: "§VI-A: end-to-end training time prediction (Eqs. 4–5)", declare: planEndToEnd},
		{ID: "sweep", Title: "Scenario sweep: cluster size × GPU × region × tier (measured sessions)", declare: DefaultSweep().declare},
	}
}

// Extras lists experiments that go beyond the paper's artifact set.
// They run via `repro -exp <id>` and appear in the catalog, but are
// deliberately not part of "all": the golden snapshot pins the paper
// reproduction's exact stdout, and these explore scenario axes the
// paper did not publish numbers for.
func Extras() []Runner {
	return []Runner{
		{ID: "revmodels", Title: "Revocation-model comparison: cost/time under each lifetime regime (same grid)", declare: planRevModels},
		{ID: "fleet", Title: "Fleet scheduler comparison: multi-job contention on a capacity-constrained transient pool", declare: planFleet},
		{ID: "providers", Title: "Cross-provider arbitrage: single-market fleets vs. scheduling across gce+aws+serverless markets", declare: planProviders},
		{ID: "regret", Title: "Scheduler regret: every policy scored against a clairvoyant per-job oracle across contention regimes", declare: planRegret},
		{ID: "elastic", Title: "Elastic clusters: static vs. risk-driven resizing of a mixed-GPU cluster under each revocation regime", declare: planElastic},
	}
}

// ByID finds a runner among the paper artifacts and the extras.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	for _, r := range Extras() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// IDs lists all experiment IDs in order, paper artifacts first.
func IDs() []string {
	runners := All()
	extras := Extras()
	out := make([]string, 0, len(runners)+len(extras))
	for _, r := range runners {
		out = append(out, r.ID)
	}
	for _, r := range extras {
		out = append(out, r.ID)
	}
	return out
}

// plan accumulates a runner's campaign units in declaration order.
// Declaration order is the unit index, which fixes each unit's derived
// seed and the order reduce sees outputs in.
type plan struct {
	seed  int64
	units []campaign.Unit

	// col, when non-nil, receives one recorder per traced unit, keyed
	// under prefix.
	col    *obs.Collector
	prefix string
}

// unit declares one replication and returns its index into the reduce
// outputs.
func (p *plan) unit(key string, run func(seed int64) (any, error)) int {
	p.units = append(p.units, campaign.Unit{Key: key, Run: run})
	return len(p.units) - 1
}

// tunit declares one traceable replication: run receives the unit's
// recorder, nil when the plan is untraced. The recorder key embeds the
// unit index, so collector keys are unique and sort in declaration
// order.
func (p *plan) tunit(key string, run func(seed int64, rec *obs.Recorder) (any, error)) int {
	var rec *obs.Recorder
	if p.col != nil {
		rec = p.col.Unit(fmt.Sprintf("%s/%04d %s", p.prefix, len(p.units), key))
	}
	return p.unit(key, func(seed int64) (any, error) { return run(seed, rec) })
}

// session declares one training session on a fresh kernel; the engine
// supplies the session seed. The unit output is the train.Result.
func (p *plan) session(key string, cfg train.Config) int {
	return p.tunit(key, func(seed int64, rec *obs.Recorder) (any, error) {
		cfg := cfg
		cfg.Seed = seed
		cfg.Trace = rec
		return runSession(cfg)
	})
}

// build finalizes the plan with a reduce over the declared units.
func (p *plan) build(reduce func(outs []any) (Result, error)) *campaign.Plan {
	return &campaign.Plan{
		Seed:   p.seed,
		Units:  p.units,
		Reduce: func(outs []any) (any, error) { return reduce(outs) },
	}
}

// then finalizes the plan with a second stage instead of a reduce:
// next turns the declared units' outputs into a follow-up plan whose
// units run on the same workers (see campaign.Plan.Then). next builds
// its plan as &plan{seed: seed}, untraced: follow-up units hold
// analysis, not simulated sessions, and have nothing to trace.
func (p *plan) then(next func(outs []any) (*campaign.Plan, error)) *campaign.Plan {
	return &campaign.Plan{Seed: p.seed, Units: p.units, Then: next}
}

// collect casts a plan's unit outputs, in declaration order, to T.
func collect[T any](outs []any) []T {
	runs := make([]T, len(outs))
	for i, o := range outs {
		runs[i] = o.(T)
	}
	return runs
}

// replications is how many independent draws each extra averages per
// (regime, entrant) cell; revocation arrival is the dominant noise
// source, and a single run can get lucky.
const replications = 2

// row is one rendered line of a replicated comparison: the runs that
// share a cell, in declaration order.
type row[T any] struct{ runs []T }

// rowsOf groups runs by cell key into rows, in order of each cell's
// first run.
func rowsOf[T any](runs []T, key func(T) string) []row[T] {
	var rows []row[T]
	index := make(map[string]int)
	for _, r := range runs {
		k := key(r)
		i, ok := index[k]
		if !ok {
			i = len(rows)
			index[k] = i
			rows = append(rows, row[T]{})
		}
		rows[i].runs = append(rows[i].runs, r)
	}
	return rows
}

// mean averages f over the row's runs: summed in declaration order,
// then divided once, so every rendered digit is reproducible.
func (r row[T]) mean(f func(T) float64) float64 {
	var sum float64
	for _, run := range r.runs {
		sum += f(run)
	}
	return sum / float64(len(r.runs))
}

// table is a minimal text-table builder used by all renderers.
type table struct {
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

func newTable(title string, headers ...string) *table {
	return &table{title: title, headers: headers}
}

func (t *table) addRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) addNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

func (t *table) String() string {
	// Size columns to the widest cell across headers and rows; ragged
	// rows (shorter or longer than the header row) widen the grid
	// rather than panic.
	cols := len(t.headers)
	for _, row := range t.rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteString("\n")
	}
	return b.String()
}

// sparkline renders values as a compact unicode bar series, used for
// histogram/CDF figures.
func sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	levels := []rune(" ▁▂▃▄▅▆▇█")
	max := values[0]
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return strings.Repeat(" ", len(values))
	}
	var b strings.Builder
	for _, v := range values {
		idx := int(v / max * float64(len(levels)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}

// sortedKeys returns map keys in sorted order for deterministic
// rendering.
func sortedKeys[K ~int, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
