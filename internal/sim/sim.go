// Package sim provides the discrete-event simulation kernel that the
// cloud and training simulators run on: a virtual clock, an event
// queue with deterministic ordering, and cancellable timers.
//
// The kernel is intentionally single-threaded. Determinism — the same
// seed always producing the same measurement campaign — is a core
// requirement for reproducing the paper's tables, and a single-threaded
// event loop is the simplest way to guarantee it.
//
// The hot path is allocation-free in steady state. The queue is two
// lanes, each an inlined monomorphic 4-ary min-heap of small value
// structs rather than container/heap's boxed interface. The post lane
// holds fire-and-forget events (Post), which name a registered
// callback and are never cancelled: the training step loop's two
// events per step. The timer lane holds cancellable events (At): their
// state lives in a kernel-owned slab recycled through a free list, and
// scheduling returns a generation-stamped Handle value (no *Event on
// the heap). Both lanes draw one insertion sequence, and the loop pops
// whichever head is smaller by (time, seq), so splitting the queue
// cannot change the fire order. Cancellation is lazy — a cancelled
// timer stays queued until popped — with a compaction pass once
// cancelled entries outnumber live ones, so Cancel is O(1) and the
// (time, seq) fire order never depends on when cancellations happened.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// Hours returns the time in hours.
func (t Time) Hours() float64 { return float64(t) / 3600 }

// Handle identifies a scheduled event. It is a small value — copying it
// is free and never allocates — stamped with the generation of the
// kernel slot it points at, so a Handle kept after its event fired (and
// its slot was recycled) becomes inert instead of aliasing a stranger's
// event. The zero Handle is valid and refers to no event.
type Handle struct {
	k    *Kernel
	slot int32
	gen  uint64
}

// Cancel prevents the event from firing. Cancelling an event that has
// already fired or been cancelled — or the zero Handle — is a no-op.
func (h Handle) Cancel() {
	k := h.k
	if k == nil {
		return
	}
	s := &k.slots[h.slot]
	if s.gen != h.gen || s.canceled {
		return
	}
	s.canceled = true
	s.fn = nil // release captured state promptly
	k.stale++
	// Lazy deletion keeps Cancel O(1); compact once cancelled entries
	// outnumber live ones so a cancel-heavy workload cannot keep the
	// timer lane arbitrarily larger than its live set.
	if int(k.stale)*2 > len(k.timers) && len(k.timers) >= compactMinHeap {
		k.compact()
	}
}

// Pending reports whether the event is still scheduled: not yet fired
// and not cancelled.
func (h Handle) Pending() bool {
	if h.k == nil {
		return false
	}
	s := &h.k.slots[h.slot]
	return s.gen == h.gen && !s.canceled
}

// compactMinHeap bounds compaction to queues where the rebuild is worth
// more than the stale entries' pop-and-skip cost.
const compactMinHeap = 64

// heapEntry is one queue position, ordered by (time, insertion
// sequence). The sequence tie-break makes simultaneous events fire in
// scheduling order, which keeps runs reproducible, and makes the
// ordering total — so any valid heap arrangement pops in exactly one
// order, and neither compaction nor the split into two lanes can
// perturb determinism.
//
// ref is the entry's payload: in the post lane a FnID naming a
// callback interned with Register, in the timer lane the index of the
// event's slot. Carrying an integer instead of the func value keeps
// heapEntry pointer-free, so sift and pop moves incur no GC write
// barriers and the lanes' backing arrays are never scanned.
type heapEntry struct {
	at  Time
	seq uint64
	ref int32
}

// FnID names a callback interned with Kernel.Register. The zero FnID
// is invalid.
type FnID int32

// eventSlot is pooled event state. Slots are recycled through a free
// list; gen increments on every release so stale Handles miss.
type eventSlot struct {
	fn       func()
	gen      uint64
	next     int32 // free-list link, index+1 (0 = end)
	canceled bool
}

// Kernel is the event loop. The zero value is a kernel at time 0 with
// an empty queue, ready to use.
//
// Its size is a multiple of 64 bytes, pinned by
// TestKernelSizeIsCacheLineMultiple; see that test for why.
type Kernel struct {
	now   Time
	seq   uint64
	fired uint64

	posts  lane // fire-and-forget events: ref is a FnID
	timers lane // cancellable events: ref is a slot index
	slots  []eventSlot

	// fns is the callback table behind Register/Post: long-lived
	// handlers interned once (per worker, per component) and named by
	// FnID, so the queue itself stays pointer-free.
	fns []func()

	free  int32 // free-list head, index+1 (0 = empty)
	stale int32 // cancelled entries still in timers (lazy deletion)
}

// Register interns a long-lived callback and returns its id for Post.
// Registered callbacks are retained for the kernel's lifetime; intern
// per-component handlers once, not per event.
func (k *Kernel) Register(fn func()) FnID {
	if fn == nil {
		panic("sim: registering nil callback")
	}
	k.fns = append(k.fns, fn)
	return FnID(len(k.fns))
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// FiredEvents returns how many events have executed, which tests use
// to assert progress and detect runaway schedules.
func (k *Kernel) FiredEvents() uint64 { return k.fired }

// Pending returns the number of scheduled, uncancelled events. It is
// O(1): every queued entry is live except the cancelled timers the
// kernel counts in stale.
func (k *Kernel) Pending() int { return len(k.posts) + len(k.timers) - int(k.stale) }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it always indicates a logic error in a simulator
// component, and firing such events "now" silently corrupts causality.
func (k *Kernel) At(t Time, fn func()) Handle {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	var idx int32
	if k.free != 0 {
		idx = k.free - 1
		k.free = k.slots[idx].next
	} else {
		k.slots = append(k.slots, eventSlot{})
		idx = int32(len(k.slots) - 1)
	}
	s := &k.slots[idx]
	s.fn = fn
	s.canceled = false
	k.timers.push(heapEntry{at: t, seq: k.seq, ref: idx})
	k.seq++
	return Handle{k: k, slot: idx, gen: s.gen}
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (k *Kernel) After(d float64, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now+Time(d), fn)
}

// Post schedules the registered callback id at absolute time t as a
// fire-and-forget event: there is no Handle and no way to cancel it.
// Ordering is identical to At — both draw from the same insertion-
// sequence counter — so a call site can switch forms without
// perturbing any schedule. This is the step loop's scheduling
// primitive: it touches only the post lane, never the slot slab.
func (k *Kernel) Post(t Time, id FnID) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if id <= 0 || int(id) > len(k.fns) {
		panic(fmt.Sprintf("sim: posting unregistered callback id %d", id))
	}
	k.posts.push(heapEntry{at: t, seq: k.seq, ref: int32(id)})
	k.seq++
}

// PostAfter schedules the registered callback id to run d seconds from
// now, fire-and-forget. Negative delays panic.
func (k *Kernel) PostAfter(d float64, id FnID) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.Post(k.now+Time(d), id)
}

// Step executes the next event, advancing the clock to its timestamp.
// It returns false when the queue is empty.
func (k *Kernel) Step() bool {
	for {
		var e heapEntry
		var fn func()
		if len(k.timers) > 0 && (len(k.posts) == 0 || heapLess(k.timers[0], k.posts[0])) {
			e = k.timers[0]
			k.timers.popTop()
			s := &k.slots[e.ref]
			if s.canceled {
				k.stale--
				k.release(e.ref)
				continue
			}
			fn = s.fn
			k.release(e.ref)
		} else if len(k.posts) > 0 {
			e = k.posts[0]
			k.posts.popTop()
			fn = k.fns[e.ref-1]
		} else {
			return false
		}
		k.now = e.at
		k.fired++
		fn()
		return true
	}
}

// Run executes events until the queue drains.
func (k *Kernel) Run() {
	k.RunUntil(Time(math.Inf(1)))
}

// RunUntil executes events with timestamps ≤ t, then advances the clock
// to exactly t. Events scheduled after t remain queued. The loop is the
// simulator's innermost hot path, so the pop-and-dispatch sequence is
// fused here rather than composed from peek and Step.
func (k *Kernel) RunUntil(t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, k.now))
	}
	for {
		var e heapEntry
		var fn func()
		if len(k.timers) > 0 && (len(k.posts) == 0 || heapLess(k.timers[0], k.posts[0])) {
			e = k.timers[0]
			if e.at > t {
				break
			}
			k.timers.popTop()
			s := &k.slots[e.ref]
			if s.canceled {
				k.stale--
				k.release(e.ref)
				continue
			}
			fn = s.fn
			k.release(e.ref)
		} else if len(k.posts) > 0 {
			e = k.posts[0]
			if e.at > t {
				break
			}
			k.posts.popTop()
			fn = k.fns[e.ref-1]
		} else {
			break
		}
		k.now = e.at
		k.fired++
		fn()
	}
	if !math.IsInf(float64(t), 1) {
		k.now = t
	}
}

// release returns a slot to the free list, invalidating outstanding
// Handles by bumping the generation.
func (k *Kernel) release(idx int32) {
	s := &k.slots[idx]
	s.fn = nil
	s.canceled = false
	s.gen++
	s.next = k.free
	k.free = idx + 1
}

// compact rebuilds the timer lane without cancelled entries, releasing
// their slots. Safe at any point: the (at, seq) ordering is total, so
// the rebuilt heap pops in exactly the order the old one would have.
func (k *Kernel) compact() {
	h := k.timers[:0]
	for _, e := range k.timers {
		if k.slots[e.ref].canceled {
			k.release(e.ref)
		} else {
			h = append(h, e)
		}
	}
	k.timers = h
	for i := (len(h) - 2) >> 2; i >= 0; i-- {
		h.siftDown(i, h[i])
	}
	k.stale = 0
}

// heapLess orders entries by (time, insertion sequence); seq is unique
// across both lanes, so the order is total.
func heapLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// lane is one 4-ary min-heap of queue entries ordered by heapLess.
type lane []heapEntry

func (l *lane) push(e heapEntry) {
	*l = append(*l, e)
	h := *l
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !heapLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// popTop removes the heap's minimum entry; the caller has already read
// it from index 0. Entries are pointer-free, so the vacated tail needs
// no clearing.
func (l *lane) popTop() {
	h := *l
	n := len(h) - 1
	last := h[n]
	*l = h[:n]
	if n > 0 {
		h[:n].siftDown(0, last)
	}
}

// siftDown places e at position i, sinking it below any smaller child.
// 4-ary layout: children of i are 4i+1 … 4i+4. The wider node trades a
// few more comparisons per level for half the levels (and half the
// cache misses) of a binary heap.
func (h lane) siftDown(i int, e heapEntry) {
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if heapLess(h[j], h[m]) {
				m = j
			}
		}
		if !heapLess(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}
