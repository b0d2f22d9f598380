package main

import (
	"bytes"
	"net/http"
	"testing"
)

const rendering = "== table1 — Table I\n\nrow 1\n\n== fig2 — Fig. 2\n\nrow 2\n\n== table2 — Table II\n\nrow 3\n\n"

// failures counts the failed operations checkSections reports.
func failures(out []byte, ids []string, want map[string][]byte) tally {
	var t tally
	for _, e := range checkSections(out, ids, want, "the reference") {
		t.op(e)
	}
	return t
}

func TestCheckSectionsCountsCorruptedOutput(t *testing.T) {
	ids := []string{"table1", "fig2", "table2"}
	_, want := splitSections([]byte(rendering))
	if got := failures([]byte(rendering), ids, want); got.attempted != 3 || got.failed != 0 {
		t.Fatalf("clean rendering: %+v", got)
	}
	corrupt := bytes.Replace([]byte(rendering), []byte("row 2"), []byte("row 9"), 1)
	if got := failures(corrupt, ids, want); got.attempted != 3 || got.failed != 1 {
		t.Errorf("one corrupted experiment: %+v, want 1 of 3 failed", got)
	}
	truncated := []byte(rendering[:bytes.Index([]byte(rendering), []byte("== table2"))])
	if got := failures(truncated, ids, want); got.failed != 1 {
		t.Errorf("missing experiment: %+v, want 1 failed", got)
	}
	swapped := []byte("== fig2 — Fig. 2\n\nrow 2\n\n== table1 — Table I\n\nrow 1\n\n== table2 — Table II\n\nrow 3\n\n")
	if got := failures(swapped, ids, want); got.failed != 2 {
		t.Errorf("swapped experiments: %+v, want 2 failed", got)
	}
	// Without a reference, only presence and order are checked.
	if got := failures(corrupt, ids, nil); got.failed != 0 {
		t.Errorf("no reference: %+v", got)
	}
}

func TestBatchWallSumsPerProcessMedians(t *testing.T) {
	run := batchRun{passes: []batchPass{
		{walls: []float64{5, 1}},
		{walls: []float64{9, 1.2}}, // one disturbed process drops out
		{walls: []float64{6, 3}},
	}}
	if got := run.wall(); got != 6+1.2 {
		t.Errorf("wall = %g, want 7.2", got)
	}
}

func TestReplyChecker(t *testing.T) {
	measure := request{Class: classMeasure, Path: "/v1/measure", Body: []byte(`{"model":"ResNet-15"}`)}
	ok := func(body string) reply { return reply{req: measure, status: http.StatusOK, body: []byte(body)} }
	rc := newReplyChecker()
	if class, err := rc.check(ok(`{"training_hours":1.5,"cost_usd":2,"cached":false}`)); err != nil || class != classMeasure {
		t.Fatalf("miss: class %q, err %v", class, err)
	}
	if class, err := rc.check(ok(`{"training_hours":1.5,"cost_usd":2,"cached":true}`)); err != nil || class != classCached {
		t.Fatalf("hit: class %q, err %v", class, err)
	}
	if _, err := rc.check(ok(`{"training_hours":1.5,"cost_usd":3,"cached":true}`)); err == nil {
		t.Error("a hit that differs from its miss must fail")
	}
	if _, err := rc.check(ok(`{"training_hours":1.5`)); err == nil {
		t.Error("a malformed body must fail")
	}
	if _, err := rc.check(reply{req: measure, status: http.StatusBadRequest, body: []byte("bad")}); err == nil {
		t.Error("a non-200 reply must fail")
	}
	grid := request{Class: classGrid, Path: "/v1/cheapest", Body: []byte(`{}`)}
	if _, err := rc.check(reply{req: grid, status: http.StatusOK, body: []byte(`{"considered":4}`)}); err == nil {
		t.Error("a grid reply without a best candidate must fail")
	}
	if _, err := rc.check(reply{req: grid, status: http.StatusOK, body: []byte(`{"considered":4,"failed":1,"best":{"cost_usd":1}}`)}); err == nil {
		t.Error("a grid reply with a failed candidate must fail")
	}
	if _, err := rc.check(reply{req: grid, status: http.StatusOK, body: []byte(`{"considered":4,"failed":0,"best":{"cost_usd":1,"cached":false}}`)}); err != nil {
		t.Errorf("a clean grid reply: %v", err)
	}
}
