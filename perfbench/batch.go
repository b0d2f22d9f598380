package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// batchRunners is the experiment set of a batch workload, from the
// experiment registry: `repro -exp all` renders experiments.All() in
// order, and extras runs one `repro -exp <id>` per experiments.Extras().
func batchRunners(workload string) []experiments.Runner {
	if workload == "extras" {
		return experiments.Extras()
	}
	return experiments.All()
}

// batchIDs is the experiment list of a batch workload, in rendering
// order.
func batchIDs(workload string) []string {
	var ids []string
	for _, r := range batchRunners(workload) {
		ids = append(ids, r.ID)
	}
	return ids
}

// goldens maps each golden snapshot (seed 42, relative to the checkout
// root) to the workload it pins.
var goldens = map[string][]string{
	"paper_all": {"cmd/repro/testdata/all.golden"},
	"extras": {"cmd/repro/testdata/fleet.golden", "cmd/repro/testdata/providers.golden",
		"cmd/repro/testdata/regret.golden", "cmd/repro/testdata/elastic.golden"},
}

const (
	goldenSeed = 42
	// batchWorkers is the campaign pool size of every batch run, sized
	// to a 2-core machine.
	batchWorkers = 2
)

// procRun is one finished child process.
type procRun struct {
	wall     float64 // seconds from start to exit
	firstOut float64 // seconds from start to the first stdout write; 0 if none
	cpu      float64 // user + system seconds
	rssKB    int64   // peak resident set
	stdout   []byte
	err      error
}

// stampedBuffer collects a child's stdout and notes when the first
// bytes arrived. It has only Write, so io.Copy cannot bypass it.
type stampedBuffer struct {
	buf   bytes.Buffer
	first time.Time
}

func (b *stampedBuffer) Write(p []byte) (int, error) {
	if b.first.IsZero() && len(p) > 0 {
		b.first = time.Now()
	}
	return b.buf.Write(p)
}

// runProc runs one program to completion and collects its output and
// resource usage.
func runProc(ctx context.Context, name string, args ...string) procRun {
	cmd := exec.CommandContext(ctx, name, args...)
	var stdout stampedBuffer
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := procRun{wall: time.Since(start).Seconds(), stdout: stdout.buf.Bytes()}
	if !stdout.first.IsZero() {
		r.firstOut = stdout.first.Sub(start).Seconds()
	}
	if err != nil {
		r.err = fmt.Errorf("%s %s: %v: %s", filepath.Base(name), strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	r.cpu, r.rssKB = usage(cmd.ProcessState)
	return r
}

// usage reads user+system seconds and peak RSS (KiB) of an exited
// process.
func usage(ps *os.ProcessState) (cpu float64, rssKB int64) {
	if ps == nil {
		return 0, 0
	}
	cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssKB = ru.Maxrss
	}
	return cpu, rssKB
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// batchPass is one pass over a batch workload's experiments.
type batchPass struct {
	wall, cpu float64
	// firstOut is the seconds from launching the pass's first repro
	// process until it rendered its first experiment.
	firstOut float64
	walls    []float64 // per repro process, in invocation order
	rssKB    int64
	stdout   []byte
	errs     []error // process failures
}

// runBatchPass renders every experiment of a batch workload once with
// the repro binary.
func (b *bench) runBatchPass(ctx context.Context) batchPass {
	seed := fmt.Sprint(b.seed)
	par := fmt.Sprint(batchWorkers)
	var invocations [][]string
	switch b.workload {
	case "paper_all":
		invocations = [][]string{{"-exp", "all", "-seed", seed, "-parallel", par}}
	case "extras":
		for _, id := range batchIDs(b.workload) {
			invocations = append(invocations, []string{"-exp", id, "-seed", seed, "-parallel", par})
		}
	}
	var p batchPass
	for i, args := range invocations {
		r := runProc(ctx, b.binPath("repro"), args...)
		if i == 0 {
			p.firstOut = r.firstOut
		}
		p.wall += r.wall
		p.walls = append(p.walls, r.wall)
		p.cpu += r.cpu
		p.rssKB = max(p.rssKB, r.rssKB)
		p.stdout = append(p.stdout, r.stdout...)
		if r.err != nil {
			p.errs = append(p.errs, r.err)
		}
	}
	return p
}

// section header: "== <id> — <title>".
const sectionPrefix = "== "

// splitSections cuts repro's stdout into one block per experiment,
// keyed by experiment id; order lists the ids as they appeared.
func splitSections(out []byte) (order []string, blocks map[string][]byte) {
	blocks = make(map[string][]byte)
	var cur string
	var buf []byte
	flush := func() {
		if cur != "" {
			blocks[cur] = buf
		}
	}
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(sectionPrefix)) {
			flush()
			id, _, _ := strings.Cut(strings.TrimPrefix(string(line), sectionPrefix), " ")
			cur, buf = id, nil
			order = append(order, id)
		}
		buf = append(buf, line...)
	}
	flush()
	return order, blocks
}

// checkSections checks one rendering of a batch workload: every
// expected experiment present, in order, and identical to want's block
// for it when want has one. It returns one error (or nil) per expected
// id, so each experiment counts as one operation.
func checkSections(out []byte, ids []string, want map[string][]byte, against string) []error {
	order, got := splitSections(out)
	errs := make([]error, len(ids))
	for i, id := range ids {
		block, ok := got[id]
		switch {
		case !ok:
			errs[i] = fmt.Errorf("%s: not rendered", id)
		case i >= len(order) || order[i] != id:
			errs[i] = fmt.Errorf("%s: rendered out of order", id)
		case want[id] != nil && !bytes.Equal(block, want[id]):
			errs[i] = fmt.Errorf("%s: output differs from %s", id, against)
		}
	}
	return errs
}

// goldenBlocks reads the workload's golden snapshots, split into
// per-experiment blocks; empty at any seed but the goldens' own.
func (b *bench) goldenBlocks() (map[string][]byte, error) {
	all := make(map[string][]byte)
	if b.seed != goldenSeed {
		return all, nil
	}
	for _, rel := range goldens[b.workload] {
		data, err := os.ReadFile(filepath.Join(b.root, rel))
		if err != nil {
			return nil, err
		}
		_, blocks := splitSections(data)
		for id, blk := range blocks {
			all[id] = blk
		}
	}
	return all, nil
}

// batchRun is the untraced measurement of a batch workload.
type batchRun struct {
	passes []batchPass
}

// wall is the seconds to render every experiment: each repro process's
// median over the passes, summed. A disturbance that slows one process
// of one pass drops out instead of inflating that whole pass.
func (r batchRun) wall() float64 {
	total := 0.0
	for i := range r.passes[0].walls {
		var xs []float64
		for _, p := range r.passes {
			xs = append(xs, p.walls[i])
		}
		total += stats.Median(xs)
	}
	return total
}

// setup is the seconds from launching the workload until its first
// experiment is rendered, median of the passes: process start, plan
// building and the first experiment, the wait before the first result.
func (r batchRun) setup() float64 {
	var xs []float64
	for _, p := range r.passes {
		xs = append(xs, p.firstOut)
	}
	return stats.Median(xs)
}

// runBatch measures a batch workload: at least minPasses passes and
// more while they fit in the run's time, checking every pass.
func (b *bench) runBatch(ctx context.Context, t *tally) (batchRun, error) {
	var run batchRun
	want, err := b.goldenBlocks()
	if err != nil {
		return run, err
	}
	ids := batchIDs(b.workload)
	start := time.Now()
	for len(run.passes) < minPasses || b.another(start, run.passes[len(run.passes)-1].wall) {
		p := b.runBatchPass(ctx)
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: %.3fs\n", b.workload, len(run.passes)+1, p.wall)
		for _, e := range p.errs {
			t.note(e)
		}
		if len(run.passes) == 0 {
			// Later passes must render exactly what the first did,
			// wherever no golden snapshot pins the experiment.
			_, first := splitSections(p.stdout)
			for id, blk := range first {
				if _, ok := want[id]; !ok {
					want[id] = blk
				}
			}
		}
		for _, e := range checkSections(p.stdout, ids, want, "the golden snapshot or the first pass") {
			t.op(e)
		}
		run.passes = append(run.passes, p)
		if ctx.Err() != nil {
			return run, errors.New("run deadline exceeded")
		}
	}
	return run, nil
}
