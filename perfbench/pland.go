package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cloud"
	"repro/internal/model"
)

// plandConns is the client's connection count: a closed loop, because
// the in-repo client (examples/costplanner) waits on each reply.
const plandConns = 2

// segmentSessions is how many sessions one timed segment of the steady
// pass holds: about 0.1s of work, shorter than the spells (a few tenths
// of a second) in which other tenants of a shared host halve its speed.
const segmentSessions = 20

// offers reports whether pland's default provider sells the (region,
// GPU) cell, the same check pland applies to every query.
func offers(region, gpu string) bool {
	r, err := cloud.ParseRegion(region)
	if err != nil {
		return false
	}
	g, err := model.ParseGPU(gpu)
	if err != nil {
		return false
	}
	spec, err := cloud.LookupProvider("")
	return err == nil && spec.Offers(r, g)
}

// reply is one answered request.
type reply struct {
	req    request
	status int
	body   []byte
	ms     float64
	err    error
}

// client sends requests over at most plandConns connections.
type client struct {
	base string
	http *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: plandConns, MaxIdleConnsPerHost: plandConns, DisableCompression: true}
	return &client{base: "http://" + addr, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(ctx context.Context, method, path string, body []byte) reply {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, body: data, ms: float64(time.Since(start).Nanoseconds()) / 1e6, err: err}
}

func (c *client) getJSON(ctx context.Context, path string, v any) error {
	r := c.do(ctx, http.MethodGet, path, nil)
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, r.status)
	}
	return json.Unmarshal(r.body, v)
}

// plandStats is the part of GET /v1/stats the per-layer metrics read.
type plandStats struct {
	Hits            float64 `json:"hits"`
	Misses          float64 `json:"misses"`
	Coalesced       float64 `json:"coalesced"`
	Rejections      float64 `json:"rejections"`
	PoolJobsRun     float64 `json:"pool_jobs_run"`
	PoolWaitSeconds float64 `json:"pool_wait_seconds"`
	PoolBusySeconds float64 `json:"pool_busy_seconds"`
}

// cycle is one pland process's life: launch, set-up, one or more
// steady passes, shutdown.
type cycle struct {
	setup         float64 // launch → every corner's first estimate answered
	firstEstimate float64 // latency of the first estimate pland answered
	steady        float64 // seconds to answer every steady pass
	// setupSegs and passSegs split set-up and each steady pass into
	// segments of the same work in every cycle: launch to healthy, then
	// one per corner estimate; segmentSessions sessions each.
	// passProbes holds each pass's probe times, one before its first
	// segment and one after each.
	setupSegs  []float64
	passSegs   [][]float64
	passProbes [][]float64
	requests   int
	latMS      map[string][]float64 // by class
	stats      plandStats
	rssKB      int64
	cpu        float64
}

// plandRun carries what every cycle of one run shares: the mix, the
// catalog (from the first cycle), each pass's generated sessions and
// the checker.
type plandRun struct {
	mix    mix
	cat    *catalog
	passes [][]session // by pass number
	check  *replyChecker
}

func newPlandRun(m mix) *plandRun { return &plandRun{mix: m, check: newReplyChecker()} }

// sessions returns pass p's sessions, generating them on first use.
func (pr *plandRun) sessions(seed int64, p int) ([]session, error) {
	for len(pr.passes) <= p {
		s, err := generate(*pr.cat, offers, seed, len(pr.passes), pr.mix)
		if err != nil {
			return nil, err
		}
		pr.passes = append(pr.passes, s)
	}
	return pr.passes[p], nil
}

const (
	// plandCycles is how many pland processes an untraced pland_mix run
	// launches: each one set-up, the base of setup_s.
	plandCycles = 4
	// plandPassSeconds is the run time one steady pass of timedMix is
	// given, its share of its cycle's set-up included: about what it
	// takes on a 2-core machine. A run's work is sized from --seconds
	// with it, not from the speed of the moment, so every run of a
	// given --seconds does the same work and takes each segment's
	// fastest time from as many passes.
	plandPassSeconds = 1.25
)

// runPland measures pland_mix untraced: plandCycles cycles of timedMix,
// each running the same number of steady passes, at least one.
func (b *bench) runPland(ctx context.Context, t *tally) ([]cycle, error) {
	pr := newPlandRun(timedMix)
	passes := max(1, int(b.duration.Seconds()/(plandCycles*plandPassSeconds)))
	var out []cycle
	for i := 1; i <= plandCycles; i++ {
		c, err := b.plandCycle(ctx, t, pr, nil, 0, passes)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: pland_mix cycle %d: setup %.3fs, %d steady passes %.3fs, pland cpu %.3fs\n", i, c.setup, len(c.passSegs), c.steady, c.cpu)
		out = append(out, c)
	}
	return out, nil
}

// freeAddr picks a free loopback port for pland.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// plandCycle launches pland, sets it up, runs steady passes 0 to
// passes-1 over plandConns connections, reads /v1/stats and stops it.
// With a tracer, every phase and request is a span under parent.
func (b *bench) plandCycle(ctx context.Context, t *tally, pr *plandRun, tr *tracer, parent int, passes int) (c cycle, err error) {
	addr, err := freeAddr()
	if err != nil {
		return c, err
	}
	root := tr.begin("pland.cycle", "", parent)
	defer tr.end(root)

	launch := time.Now()
	cmd := exec.Command(b.binPath("pland"), "-addr", addr, "-workers", fmt.Sprint(batchWorkers))
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		return c, err
	}
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			return err
		case <-time.After(15 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			return errors.New("pland did not drain within 15s; killed")
		}
	}
	defer func() {
		if serr := stop(); serr != nil && err == nil {
			err = fmt.Errorf("pland: %v: %s", serr, lastLine(logs.String()))
		}
	}()

	cl := newClient(addr)
	defer cl.close()

	sid := tr.begin("pland.launch", "", root)
	if err := waitHealthy(ctx, cl); err != nil {
		return c, fmt.Errorf("pland: %v: %s", err, lastLine(logs.String()))
	}
	c.setupSegs = append(c.setupSegs, time.Since(launch).Seconds())
	tr.end(sid)

	sid = tr.begin("pland.setup", "", root)
	var cat catalog
	if err := cl.getJSON(ctx, "/v1/catalog", &cat); err != nil {
		return c, fmt.Errorf("pland catalog: %v", err)
	}
	if pr.cat == nil {
		pr.cat = &cat
	} else if !reflect.DeepEqual(*pr.cat, cat) {
		t.op(errors.New("pland catalog changed between launches"))
	}
	setup, err := setupRequests(cat, offers)
	if err != nil {
		return c, err
	}
	for i, req := range setup {
		id := tr.begin("http."+req.Class, "setup", sid)
		rstart := time.Now()
		r := cl.do(ctx, http.MethodPost, req.Path, req.Body)
		c.setupSegs = append(c.setupSegs, time.Since(rstart).Seconds())
		tr.end(id)
		r.req = req
		if _, err := pr.check.check(r); err != nil {
			t.op(err)
			continue
		}
		t.op(nil)
		if i == 0 {
			c.firstEstimate = r.ms / 1000
		}
	}
	c.setup = time.Since(launch).Seconds()
	tr.end(sid)

	c.latMS = make(map[string][]float64)
	for p := 0; p < passes; p++ {
		sessions, err := pr.sessions(b.seed, p)
		if err != nil {
			return c, err
		}
		sid = tr.begin("pland.steady", "", root)
		replies, segs, probes := steadyPass(ctx, cl, sessions, tr, sid)
		tr.end(sid)
		c.passSegs = append(c.passSegs, segs)
		c.passProbes = append(c.passProbes, probes)
		c.steady += sum(segs)
		c.requests += len(replies)
		for _, r := range replies {
			class, err := pr.check.check(r)
			t.op(err)
			if err == nil {
				c.latMS[class] = append(c.latMS[class], r.ms)
			}
		}
		if ctx.Err() != nil {
			return c, errors.New("run deadline exceeded")
		}
	}

	sid = tr.begin("pland.stats", "", root)
	if err := cl.getJSON(ctx, "/v1/stats", &c.stats); err != nil {
		return c, fmt.Errorf("pland stats: %v", err)
	}
	tr.end(sid)

	cl.close()
	if err := stop(); err != nil {
		return c, fmt.Errorf("pland: %v: %s", err, lastLine(logs.String()))
	}
	c.cpu, c.rssKB = usage(cmd.ProcessState)
	return c, nil
}

// waitHealthy polls /healthz until pland answers.
func waitHealthy(ctx context.Context, cl *client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		r := cl.do(ctx, http.MethodGet, "/healthz", nil)
		if r.err == nil && r.status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("not healthy after 30s (last: status %d, %v)", r.status, r.err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// steadyPass runs the sessions over plandConns connections, in
// segments of segmentSessions sessions. Within a segment each
// connection takes the next session and sends its requests in order,
// each only after the previous reply (a closed loop); a segment starts
// when both connections have finished the one before. Before the first
// segment and after each one, while pland is idle, it times probe. It
// returns the replies in sequence order, each segment's wall seconds
// and the probe times.
func steadyPass(ctx context.Context, cl *client, sessions []session, tr *tracer, parent int) ([]reply, []float64, []float64) {
	offset := make([]int, len(sessions)+1)
	for i, s := range sessions {
		offset[i+1] = offset[i] + len(s)
	}
	replies := make([]reply, offset[len(sessions)])
	var segs []float64
	probes := []float64{probe()}
	for lo := 0; lo < len(sessions); lo += segmentSessions {
		hi := min(lo+segmentSessions, len(sessions))
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < plandConns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= hi {
						return
					}
					for j, req := range sessions[i] {
						id := tr.begin("http."+req.Class, "", parent)
						r := cl.do(ctx, http.MethodPost, req.Path, req.Body)
						tr.end(id)
						r.req = req
						replies[offset[i]+j] = r
					}
				}
			}()
		}
		wg.Wait()
		segs = append(segs, time.Since(start).Seconds())
		probes = append(probes, probe())
	}
	return replies, segs, probes
}

// probeSink keeps the compiler from dropping probe's work.
var probeSink float64

// probe times a fixed piece of work that no change to the programs
// under test can alter: map updates, filling a slice and sorting it,
// about 1ms on a 2-core Xeon @ 2.10GHz, the kind of work a pland
// request does. Other tenants of a shared host slow it together with
// pland.
func probe() float64 {
	start := time.Now()
	m := make(map[int]float64, 1024)
	xs := make([]float64, 0, 1<<13)
	for i := 0; i < 1<<13; i++ {
		v := float64((i * 2654435761) % 1000003)
		m[(i*7919)%4096] += v
		xs = append(xs, v)
	}
	sort.Float64s(xs)
	probeSink += xs[len(xs)/2] + m[0]
	return time.Since(start).Seconds()
}

// replyChecker validates pland's replies. Every reply must be a 200
// with a well-formed body, and the same request must always get the
// same answer: a cached measure equals the miss that filled it field
// for field apart from "cached", across pland restarts too.
type replyChecker struct {
	first map[string]map[string]any // path + body → first reply, minus "cached"
}

func newReplyChecker() *replyChecker {
	return &replyChecker{first: make(map[string]map[string]any)}
}

// check validates one reply and returns its latency class.
func (rc *replyChecker) check(r reply) (class string, err error) {
	name := r.req.Path
	if r.err != nil {
		return "", fmt.Errorf("%s: %v", name, r.err)
	}
	if r.status != http.StatusOK {
		return "", fmt.Errorf("%s: status %d: %s", name, r.status, bytes.TrimSpace(r.body))
	}
	var v map[string]any
	if err := json.Unmarshal(r.body, &v); err != nil {
		return "", fmt.Errorf("%s: malformed reply: %v", name, err)
	}
	class = r.req.Class
	switch class {
	case classEstimate:
		if h, ok := v["total_hours"].(float64); !ok || !(h > 0) {
			return "", fmt.Errorf("%s: reply lacks a positive total_hours: %s", name, r.body)
		}
	case classMeasure:
		cached, ok := v["cached"].(bool)
		if !ok {
			return "", fmt.Errorf("%s: reply lacks cached: %s", name, r.body)
		}
		if h, ok := v["training_hours"].(float64); !ok || !(h > 0) {
			return "", fmt.Errorf("%s: reply lacks a positive training_hours: %s", name, r.body)
		}
		delete(v, "cached")
		if cached {
			class = classCached
		}
	case classGrid:
		best, ok := v["best"].(map[string]any)
		if n, _ := v["considered"].(float64); !ok || n < 1 {
			return "", fmt.Errorf("%s: reply lacks a best candidate: %s", name, r.body)
		}
		if n, _ := v["failed"].(float64); n != 0 {
			return "", fmt.Errorf("%s: %g grid candidates failed: %s", name, n, r.body)
		}
		delete(best, "cached")
	}
	key := name + " " + string(r.req.Body)
	if prev, ok := rc.first[key]; !ok {
		rc.first[key] = v
	} else if !reflect.DeepEqual(prev, v) {
		return "", fmt.Errorf("%s: reply to %s differs from its first answer", name, r.req.Body)
	}
	return class, nil
}
