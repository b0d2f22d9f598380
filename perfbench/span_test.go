package main

import (
	"path/filepath"
	"testing"
	"time"
)

// TestSelfTimes checks self time on a synthetic tree: overlapping
// children count once, a child running past its parent counts only
// inside it, and grandchildren are their own parent's business.
func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // runs past root
		{ID: 5, Parent: 2, Name: "a1", Start: ms(15), End: ms(20)},
		{ID: 6, Parent: 2, Name: "a2", Start: ms(18), End: ms(25)},
	}
	want := map[int]time.Duration{
		1: ms(100 - 50 - 10), // covered: [10,60] and [90,100]
		2: ms(30 - 10),       // covered: [15,25]
		3: ms(30),
		4: ms(30),
		5: ms(5),
		6: ms(7),
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self = %v, want %v", id, got[id], w)
		}
	}
	if s := sumSeconds(spans, "a1", ""); s != 0.005 {
		t.Errorf("sumSeconds(a1) = %g", s)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", "", 0)
	child := tr.begin("child", "x", root)
	tr.end(child)
	open := tr.begin("open", "", root) // never closed: not reported
	_ = open
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Tag != "x" {
		t.Fatalf("spans = %+v", spans)
	}
	if err := tr.write(filepath.Join(t.TempDir(), "spans.ndjson")); err != nil {
		t.Fatal(err)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", "", 0); id != 0 {
		t.Errorf("nil tracer begin = %d", id)
	}
	nilTracer.end(0)
}
