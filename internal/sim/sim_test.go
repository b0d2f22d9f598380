package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestKernelSizeIsCacheLineMultiple pins Kernel's size to a multiple
// of 64 bytes. Go rounds every allocation up to a size class and lays a
// class's objects end to end from a page boundary, so only classes
// that are multiples of 64 start each object on its own cache line. At
// any other size a kernel shares a line with the next object of its
// class, normally the kernel of the campaign unit running on the other
// CPU, and every event then writes a line the other core keeps
// reading. At 144 bytes, unpadded, revmodels ran 13% faster than the
// one-lane kernel at -parallel 1 but 11–22% slower at -parallel 2.
func TestKernelSizeIsCacheLineMultiple(t *testing.T) {
	if n := unsafe.Sizeof(Kernel{}); n%64 != 0 {
		t.Fatalf("unsafe.Sizeof(Kernel{}) = %d bytes, want a multiple of 64", n)
	}
}

func TestKernelFiresInTimeOrder(t *testing.T) {
	var k Kernel
	var got []float64
	k.At(3, func() { got = append(got, 3) })
	k.At(1, func() { got = append(got, 1) })
	k.At(2, func() { got = append(got, 2) })
	k.Run()
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if k.Now() != 3 {
		t.Fatalf("clock = %v, want 3", k.Now())
	}
}

func TestTieBreakIsSchedulingOrder(t *testing.T) {
	var k Kernel
	var got []string
	k.At(5, func() { got = append(got, "a") })
	k.At(5, func() { got = append(got, "b") })
	k.At(5, func() { got = append(got, "c") })
	k.Run()
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("simultaneous events fired out of scheduling order: %v", got)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var k Kernel
	var at Time
	k.At(10, func() {
		k.After(2.5, func() { at = k.Now() })
	})
	k.Run()
	if at != 12.5 {
		t.Fatalf("After fired at %v, want 12.5", at)
	}
}

func TestCancel(t *testing.T) {
	var k Kernel
	fired := false
	e := k.At(1, func() { fired = true })
	if !e.Pending() {
		t.Fatal("Pending() should report true before Cancel")
	}
	e.Cancel()
	if e.Pending() {
		t.Fatal("Pending() should report false after Cancel")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if k.FiredEvents() != 0 {
		t.Fatalf("FiredEvents = %d, want 0", k.FiredEvents())
	}
}

func TestCancelOneOfSimultaneous(t *testing.T) {
	var k Kernel
	var got []string
	k.At(1, func() { got = append(got, "keep1") })
	e := k.At(1, func() { got = append(got, "drop") })
	k.At(1, func() { got = append(got, "keep2") })
	e.Cancel()
	k.Run()
	if len(got) != 2 || got[0] != "keep1" || got[1] != "keep2" {
		t.Fatalf("got %v", got)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var k Kernel
	k.At(5, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	k.At(1, func() {})
}

func TestRunUntil(t *testing.T) {
	var k Kernel
	var fired []float64
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		k.At(at, func() { fired = append(fired, float64(at)) })
	}
	k.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2", fired)
	}
	if k.Now() != 2.5 {
		t.Fatalf("clock = %v, want 2.5", k.Now())
	}
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	k.Run()
	if len(fired) != 4 {
		t.Fatalf("after Run fired %v", fired)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	var k Kernel
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			k.After(1, tick)
		}
	}
	k.After(1, tick)
	k.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if k.Now() != 5 {
		t.Fatalf("clock = %v, want 5", k.Now())
	}
}

func TestHourOfDay(t *testing.T) {
	cases := []struct {
		t    Time
		want int
	}{
		{0, 0},
		{3600, 1},
		{3599, 0},
		{Time(25 * 3600), 1},
		{Time(24 * 3600), 0},
	}
	for _, tc := range cases {
		if got := tc.t.HourOfDay(); got != tc.want {
			t.Errorf("HourOfDay(%v) = %d, want %d", tc.t, got, tc.want)
		}
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestQuickFireOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		var k Kernel
		var fired []Time
		var maxT Time
		for _, d := range raw {
			at := Time(float64(d) / 16.0)
			if at > maxT {
				maxT = at
			}
			k.At(at, func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return len(raw) == 0 || k.Now() == maxT
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServerFIFO(t *testing.T) {
	var k Kernel
	s := NewServer(&k)
	var done []string
	first := k.Register(func() { done = append(done, "first") })
	second := k.Register(func() { done = append(done, "second") })
	// Two jobs submitted back to back at t=0: second waits for first.
	finish1 := s.SubmitID(2, first)
	finish2 := s.SubmitID(3, second)
	if finish1 != 2 || finish2 != 5 {
		t.Fatalf("finish times %v, %v; want 2, 5", finish1, finish2)
	}
	if got := s.QueueDelay(); got != 5 {
		t.Fatalf("QueueDelay = %v, want 5", got)
	}
	k.Run()
	if len(done) != 2 || done[0] != "first" || done[1] != "second" {
		t.Fatalf("completion order %v", done)
	}
}

func TestServerIdleBetweenJobs(t *testing.T) {
	var k Kernel
	s := NewServer(&k)
	noop := k.Register(func() {})
	s.SubmitID(1, noop)
	k.Run() // clock at 1
	k.At(10, func() {
		if got := s.SubmitID(2, noop); got != 12 {
			t.Errorf("job after idle finished at %v, want 12", got)
		}
	})
	k.Run() // clock at 12 once the second job completes
	if s.Served() != 2 {
		t.Fatalf("Served = %d, want 2", s.Served())
	}
	// Busy 3s of 12s total.
	if u := s.Utilization(); u < 0.24 || u > 0.26 {
		t.Fatalf("Utilization = %v, want 0.25", u)
	}
}

// Property: a server never completes jobs out of submission order and
// total busy time never exceeds elapsed time.
func TestQuickServerOrdering(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		var k Kernel
		s := NewServer(&k)
		var completions []int
		for i, d := range raw {
			i := i
			s.SubmitID(float64(d)/8.0, k.Register(func() { completions = append(completions, i) }))
		}
		k.Run()
		if len(completions) != len(raw) {
			return false
		}
		for i := range completions {
			if completions[i] != i {
				return false
			}
		}
		return s.Utilization() <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPendingCounter is the regression test for Pending()'s O(1)
// live-event counter: every transition that must move it — schedule
// (both the Handle and the fire-and-forget lane), cancel, double
// cancel, fire, and lazy-deletion compaction — checked against a
// hand-tracked count.
func TestPendingCounter(t *testing.T) {
	var k Kernel
	noop := func() {}
	id := k.Register(noop)

	if k.Pending() != 0 {
		t.Fatalf("fresh kernel pending = %d, want 0", k.Pending())
	}
	handles := make([]Handle, 0, 100)
	for i := 0; i < 100; i++ {
		handles = append(handles, k.At(Time(i), noop))
	}
	for i := 0; i < 50; i++ {
		k.Post(Time(i)+0.5, id)
	}
	if k.Pending() != 150 {
		t.Fatalf("after 150 schedules pending = %d, want 150", k.Pending())
	}

	// Cancel 90 of the handles: enough stale entries to cross the
	// compaction threshold (stale*2 > len(heap), len >= 64), so the
	// counter must survive a rebuild.
	for i := 0; i < 90; i++ {
		handles[i].Cancel()
	}
	if k.Pending() != 60 {
		t.Fatalf("after 90 cancels pending = %d, want 60", k.Pending())
	}

	// Double cancel and cancel-of-zero-Handle are no-ops.
	handles[0].Cancel()
	(Handle{}).Cancel()
	if k.Pending() != 60 {
		t.Fatalf("after no-op cancels pending = %d, want 60", k.Pending())
	}

	// Fire a few and recount.
	for i := 0; i < 10; i++ {
		if !k.Step() {
			t.Fatal("queue drained early")
		}
	}
	if k.Pending() != 50 {
		t.Fatalf("after 10 fires pending = %d, want 50", k.Pending())
	}

	// Cancelling an already-fired handle is a no-op even though its
	// slot was recycled (generation check).
	for _, h := range handles {
		h.Cancel()
	}
	if k.Pending() != 40 {
		t.Fatalf("after cancelling remaining live handles pending = %d, want 40", k.Pending())
	}

	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("after drain pending = %d, want 0", k.Pending())
	}
}
