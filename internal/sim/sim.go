// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate for every experiment in this repository: nodes
// are passive state machines whose handlers run only when the scheduler
// dispatches an event. Virtual time is a time.Duration measured from the
// start of the simulation. Two events scheduled for the same instant fire in
// the order they were scheduled, which — combined with a seeded RNG — makes
// every run bit-for-bit reproducible.
//
// Pending events are queued in one of two places. An event whose delay
// (at − Now when scheduled) recurs gets a FIFO lane for that delay: the
// clock never runs backwards, so a lane receives its events already sorted
// and a push is an append. A small 4-ary heap orders the lane heads. Events
// with one-off delays, and delays that lose a slot in the bounded lane
// table, go to a 4-ary fallback heap instead. Dispatch pops the smaller
// (at, seq) of the two roots, so the total order — and every output byte —
// is the same as a single heap's. Events scheduled with a Timer keep their
// payload in a pooled arena whose slots are recycled through a free list;
// events posted to a registered handler (Post) need no Timer, and on a lane
// they live in the ring entry alone. The steady-state hot path (schedule →
// dispatch → recycle) performs no heap allocation. A Scheduler is
// single-threaded by design (see DESIGN.md §5.1); parallelism lives above
// the kernel, one Scheduler per goroutine.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// ErrStopped is returned by Run variants when the simulation was stopped
// explicitly via Stop before the run condition was met.
var ErrStopped = errors.New("sim: stopped")

// Handler is a scheduled callback. It runs with the clock set to the
// event's timestamp.
type Handler func()

// ArgHandler is a scheduled callback that receives the argument it was
// scheduled with (AtArg/AfterArg, or Post once registered). Carrying the
// argument through the kernel lets hot paths schedule a method value plus
// an index instead of allocating a fresh closure per event — SPMS's τADV
// and τDAT timers use AtArg, and the network layer posts its transmission
// and delivery-batch events, keeping the steady-state schedule → dispatch
// → recycle cycle allocation-free.
type ArgHandler func(arg uint64)

// event is one arena slot: the payload dispatch reads, 32 bytes so a slot
// never straddles a cache line. seq breaks ties between events at the same
// virtual instant so dispatch order is deterministic; it is also the
// event's identity — unique over the scheduler's whole lifetime — so a
// Timer holding the seq it was issued under can never alias the slot's
// next occupant, even after arbitrarily many reuses. A free slot holds
// freeSeq, which no event is ever issued. Exactly one of fn/afn is set;
// afn events carry arg. The event's time is its queue entry's key.
type event struct {
	seq uint64
	fn  Handler
	afn ArgHandler
	arg uint64
}

// freeSeq marks a free arena slot.
const freeSeq = ^uint64(0)

// loc says where a pending event is queued: lane is a lane index or inHeap,
// and pos the lane ring position or the heap index. Only Cancel and the
// queues' own moves read it, so it lives beside the arena, not in it.
type loc struct {
	pos  uint32
	lane int32
}

// inHeap is loc.lane for an event pending in the fallback heap.
const inHeap int32 = -1

// Timer is a handle to a scheduled event. The zero value is an inert timer:
// Cancel and Active are safe to call and do nothing. Timers are small value
// handles (they do not pin the event's memory) and may be copied freely.
type Timer struct {
	s   *Scheduler
	idx int32
	seq uint64
	at  time.Duration
}

// live reports whether the handle still names a pending event: the slot is
// occupied and holds the exact event this handle was issued for.
func (t Timer) live() bool {
	if t.s == nil {
		return false
	}
	return t.s.arena[t.idx].seq == t.seq
}

// Cancel prevents the timer's handler from running and removes the event
// from the pending set immediately: Len drops at once and the arena slot is
// recycled. Canceling an already fired or already canceled timer is a
// no-op. It reports whether the call actually canceled a pending event.
func (t Timer) Cancel() bool {
	if !t.live() {
		return false
	}
	s := t.s
	if l := s.locs[t.idx]; l.lane == inHeap {
		s.heapRemove(int32(l.pos))
	} else {
		s.laneCancel(l.lane, l.pos)
	}
	s.release(t.idx)
	s.pending--
	s.counts.Cancels++
	return true
}

// Active reports whether the timer is still pending: scheduled, not yet
// fired, and not canceled.
func (t Timer) Active() bool { return t.live() }

// At returns the virtual time the timer is (or was) scheduled to fire.
func (t Timer) At() time.Duration { return t.at }

// heapEntry is one element of the fallback heap or of the lane-head heap.
// It carries the full sort key (at, seq) inline next to an index (an arena
// slot or a lane), so sift comparisons read the contiguous heap slice
// instead of dereferencing scattered arena slots.
type heapEntry struct {
	at  time.Duration
	seq uint64
	idx int32
}

// laneEntry is one lane ring element: the event's sort key inline, so a
// lane pop learns the next head's key and liveness from the same sequential
// read, and its payload: a posted event's argument, or a Timer event's
// arena slot. A canceled entry's seq is freeSeq.
type laneEntry struct {
	at  time.Duration
	seq uint64
	arg uint64
}

// lane is the FIFO of pending events scheduled with one delay, either all
// posted to one registered handler or all holding Timers. Positions
// are free-running uint32 counters; entry p lives at ring[p&(len(ring)-1)],
// so growing the power-of-two ring keeps every position valid. Entries
// between head and tail are sorted by (at, seq); dead of them are
// tombstones. A lane is in the lane-head heap (queued) from its first push
// until it is found empty at the root. Its key there may be stale, but
// only ever low: heads leave, and later pushes carry larger keys. The lane
// is retargeted to another delay or handler only while unqueued.
type lane struct {
	delay      time.Duration
	handler    Handle // Post's handler, or timerLane
	ring       []laneEntry
	head, tail uint32
	dead       uint32
	queued     bool
}

// laneSlot is one entry of the direct-mapped lane table: the lane serving
// the (delay, handler) keys that hash here (0 for none, else index+1) and
// a fingerprint of the last key seen here without a lane. A key gets a
// lane on its second sighting, so one-off delays never pay for one. (A
// fingerprint collision only claims a lane early; the lane itself holds
// the full key.) Eight bytes a slot keep the table at 32 KB.
type laneSlot struct {
	seen uint32
	lane int32
}

// Handle names an ArgHandler registered with Register, for Post.
type Handle int32

// timerLane is lane.handler for a lane of Timer events, whose entries
// carry arena slots.
const timerLane Handle = -1

// laneBits sizes the lane table. The SPMS workloads use a few hundred
// recurring delays (τADV, τDAT, processing, and per-(contention, size)
// flight times).
const laneBits = 12

// Counts are the scheduler's queue-routing counts, for observability.
type Counts struct {
	LanePushes        uint64 // events queued in a delay lane
	HeapPushes        uint64 // events queued in the fallback heap
	Cancels           uint64 // pending events canceled
	TombstonesSkipped uint64 // canceled lane entries passed over by a lane head
	PeakLanes         int    // most lanes queued in the lane-head heap at once
}

// Scheduler owns the virtual clock and the pending event set. The zero value
// is ready to use. Scheduler is not safe for concurrent use: the simulation
// model is single-threaded by design (see DESIGN.md §5.1).
type Scheduler struct {
	now   time.Duration
	seq   uint64
	arena []event     // pooled event storage; slots are recycled via free
	locs  []loc       // queue position of each arena slot's pending event
	free  []int32     // free-list of arena slots
	heap  []heapEntry // fallback 4-ary min-heap ordered by (at, seq)

	handlers []ArgHandler // registered for Post, by Handle

	slots    []laneSlot  // direct-mapped (delay, handler) → lane table, allocated on first push
	lanes    []lane      // lanes ever claimed, at most one per slot
	laneHeap []heapEntry // 4-ary min-heap of queued lanes keyed by head (at, seq)

	pending int // live pending events
	stopped bool

	// dispatched counts events that have fired, for observability and as a
	// runaway guard in tests.
	dispatched uint64
	// maxPending is the largest pending-set size seen, for observability
	// (obs.RunStats.PeakHeapDepth). One compare per push; never read on the
	// hot path.
	maxPending int
	counts     Counts
}

// NewScheduler returns an empty scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Len returns the number of pending events in O(1): a live count kept on
// every schedule, cancel and dispatch, which lane tombstones never inflate.
func (s *Scheduler) Len() int { return s.pending }

// Dispatched returns the total number of events that have fired.
func (s *Scheduler) Dispatched() uint64 { return s.dispatched }

// PeakHeapDepth returns the largest number of simultaneously pending
// events over the scheduler's lifetime, lanes and heap together.
func (s *Scheduler) PeakHeapDepth() int { return s.maxPending }

// ArenaSize returns the number of event arena slots ever allocated — the
// pool's high-water mark, since slots are recycled and the arena only
// grows when every slot is in use.
func (s *Scheduler) ArenaSize() int { return len(s.arena) }

// Counts returns the queue-routing counts accumulated so far.
func (s *Scheduler) Counts() Counts { return s.counts }

// alloc takes a slot from the free list, growing the arena only when the
// pool is exhausted.
func (s *Scheduler) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.arena = append(s.arena, event{seq: freeSeq})
	s.locs = append(s.locs, loc{})
	return int32(len(s.arena) - 1)
}

// take returns slot idx's payload and recycles the slot.
func (s *Scheduler) take(idx int32) (Handler, ArgHandler, uint64) {
	ev := s.arena[idx]
	s.release(idx)
	return ev.fn, ev.afn, ev.arg
}

// release recycles a slot: freeSeq invalidates outstanding Timers, and
// dropping fn releases the handler closure to the GC.
func (s *Scheduler) release(idx int32) {
	s.arena[idx] = event{seq: freeSeq}
	s.free = append(s.free, idx)
}

// entryLess orders heap entries by (at, seq); seq is unique, so the order
// is total and dispatch is deterministic.
func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// schedule queues an event with payload fn or afn(arg) at time at: in its
// delay's lane when the delay has one or earns one, else in the fallback
// heap.
func (s *Scheduler) schedule(at time.Duration, fn Handler, afn ArgHandler, arg uint64) Timer {
	seq := s.next()
	idx := s.alloc()
	s.arena[idx] = event{seq: seq, fn: fn, afn: afn, arg: arg}
	if l := s.laneFor(at-s.now, timerLane); l >= 0 {
		s.lanePush(l, laneEntry{at: at, seq: seq, arg: uint64(idx)})
		s.locs[idx] = loc{pos: s.lanes[l].tail - 1, lane: l}
	} else {
		s.heapPush(heapEntry{at: at, seq: seq, idx: idx})
	}
	return Timer{s: s, idx: idx, seq: seq, at: at}
}

// next issues the sequence number of a new pending event.
func (s *Scheduler) next() uint64 {
	s.pending++
	if s.pending > s.maxPending {
		s.maxPending = s.pending
	}
	s.seq++
	return s.seq - 1
}

// Register records fn for Post and returns its handle. Like a method value
// bound once for AtArg, fn is meant to be registered once and posted to
// many times.
func (s *Scheduler) Register(fn ArgHandler) Handle {
	if fn == nil {
		panic("sim: Scheduler.Register: nil handler")
	}
	s.handlers = append(s.handlers, fn)
	return Handle(len(s.handlers) - 1)
}

// Post schedules the handler registered as h to run with arg at the
// absolute virtual time at. It orders exactly like AtArg but returns no
// Timer, so the event cannot be canceled — which lets a posted event that
// rides a lane live in its ring entry alone, with no arena slot to
// allocate, read and recycle. Scheduling in the past panics.
func (s *Scheduler) Post(at time.Duration, h Handle, arg uint64) {
	if h < 0 || int(h) >= len(s.handlers) {
		panic(fmt.Sprintf("sim: Scheduler.Post: unregistered handle %d", h))
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: Scheduler.Post: scheduling at %v before now %v", at, s.now))
	}
	seq := s.next()
	if l := s.laneFor(at-s.now, h); l >= 0 {
		s.lanePush(l, laneEntry{at: at, seq: seq, arg: arg})
		return
	}
	idx := s.alloc()
	s.arena[idx] = event{seq: seq, afn: s.handlers[h], arg: arg}
	s.heapPush(heapEntry{at: at, seq: seq, idx: idx})
}

// laneFor returns the lane for delay d and handler h (timerLane for Timer
// events), claiming or retargeting one on the key's second sighting, or -1
// when the event stays in the heap.
func (s *Scheduler) laneFor(d time.Duration, h Handle) int32 {
	if s.slots == nil {
		s.slots = make([]laneSlot, 1<<laneBits)
	}
	k := laneKey(d, h)
	sl := &s.slots[k>>(64-laneBits)]
	seen := sl.seen == uint32(k)
	if sl.lane != 0 {
		ln := &s.lanes[sl.lane-1]
		if ln.delay == d && ln.handler == h {
			return sl.lane - 1
		}
		if !ln.queued && seen {
			ln.delay, ln.handler = d, h
			return sl.lane - 1
		}
	} else if seen {
		s.lanes = append(s.lanes, lane{delay: d, handler: h})
		sl.lane = int32(len(s.lanes))
		return sl.lane - 1
	}
	sl.seen = uint32(k)
	return -1
}

// laneKey hashes delay d and handler h (Fibonacci hashing): the top
// laneBits bits pick the lane table slot, the low 32 are the fingerprint.
func laneKey(d time.Duration, h Handle) uint64 {
	return (uint64(d) + uint64(h)<<48) * 0x9E3779B97F4A7C15
}

// lanePush appends e to lane l and queues the lane if it was not.
func (s *Scheduler) lanePush(l int32, e laneEntry) {
	s.counts.LanePushes++
	ln := &s.lanes[l]
	if ln.tail-ln.head == uint32(len(ln.ring)) {
		ln.grow()
	}
	ln.ring[ln.tail&uint32(len(ln.ring)-1)] = e
	ln.tail++
	if !ln.queued {
		ln.queued = true
		s.laneHeap = append(s.laneHeap, heapEntry{at: e.at, seq: e.seq, idx: l})
		if len(s.laneHeap) > s.counts.PeakLanes {
			s.counts.PeakLanes = len(s.laneHeap)
		}
		siftUp(s.laneHeap, len(s.laneHeap)-1, nil)
	}
}

// grow doubles the ring, re-placing each entry at its unchanged position.
func (ln *lane) grow() {
	n := 2 * len(ln.ring)
	if n == 0 {
		n = 8
	}
	ring := make([]laneEntry, n)
	for p := ln.head; p != ln.tail; p++ {
		ring[p&uint32(n-1)] = ln.ring[p&uint32(len(ln.ring)-1)]
	}
	ln.ring = ring
}

// laneCancel turns the entry at position p of lane l into a tombstone.
// Tombstones stay bounded: a canceled tail is popped along with the
// tombstones before it, and a lane whose tombstones outnumber its live
// entries is compacted. Neither moves the lane's key below its true head.
func (s *Scheduler) laneCancel(l int32, p uint32) {
	ln := &s.lanes[l]
	mask := uint32(len(ln.ring) - 1)
	ln.ring[p&mask].seq = freeSeq
	if p+1 == ln.tail {
		ln.tail--
		for ln.tail != ln.head && ln.ring[(ln.tail-1)&mask].seq == freeSeq {
			ln.tail--
			ln.dead--
		}
		return
	}
	ln.dead++
	if ln.dead > ln.tail-ln.head-ln.dead {
		s.compact(ln)
	}
}

// compact squeezes the tombstones out of ln, moving live entries toward the
// head and updating their positions.
func (s *Scheduler) compact(ln *lane) {
	mask := uint32(len(ln.ring) - 1)
	w := ln.head
	for r := ln.head; r != ln.tail; r++ {
		e := ln.ring[r&mask]
		if e.seq == freeSeq {
			continue
		}
		if w != r {
			ln.ring[w&mask] = e
			s.locs[e.arg].pos = w
		}
		w++
	}
	ln.tail = w
	ln.dead = 0
}

// laneFront makes the lane-head heap's root exact: it drops tombstones at
// the root lane's head, unqueues the root if its lane is empty, and
// re-keys it if its key is stale, until the root names a live head with
// its true key. Every other queued lane's key is at most its true head's,
// so the root then holds the earliest lane event. It reports whether any
// lane event is pending.
func (s *Scheduler) laneFront() bool {
	for len(s.laneHeap) > 0 {
		root := &s.laneHeap[0]
		ln := &s.lanes[root.idx]
		if ln.head == ln.tail {
			ln.queued = false
			last := len(s.laneHeap) - 1
			s.laneHeap[0] = s.laneHeap[last]
			s.laneHeap = s.laneHeap[:last]
			siftDown(s.laneHeap, 0, nil)
			continue
		}
		e := &ln.ring[ln.head&uint32(len(ln.ring)-1)]
		if e.seq == freeSeq {
			ln.head++
			ln.dead--
			s.counts.TombstonesSkipped++
			continue
		}
		if root.seq == e.seq {
			return true
		}
		root.at, root.seq = e.at, e.seq
		siftDown(s.laneHeap, 0, nil)
	}
	return false
}

// lanePop removes the root lane's head, which laneFront has made exact, and
// returns its payload and the lane's handler. It re-keys the root from the
// next entry when that is live, leaving tombstones and empty lanes to
// laneFront.
func (s *Scheduler) lanePop() (arg uint64, h Handle) {
	root := &s.laneHeap[0]
	ln := &s.lanes[root.idx]
	mask := uint32(len(ln.ring) - 1)
	arg, h = ln.ring[ln.head&mask].arg, ln.handler
	ln.head++
	if ln.head != ln.tail {
		if e := &ln.ring[ln.head&mask]; e.seq != freeSeq {
			root.at, root.seq = e.at, e.seq
			siftDown(s.laneHeap, 0, nil)
		}
	}
	return arg, h
}

// heapPush appends e to the fallback heap and sifts it up.
func (s *Scheduler) heapPush(e heapEntry) {
	s.counts.HeapPushes++
	s.locs[e.idx].lane = inHeap
	s.heap = append(s.heap, e)
	siftUp(s.heap, len(s.heap)-1, s.locs)
}

// heapRemove deletes the entry at heap position i (eager cancel and pop
// share this): the last entry fills the hole and is sifted to its place.
func (s *Scheduler) heapRemove(i int32) {
	last := len(s.heap) - 1
	moved := s.heap[last]
	s.heap = s.heap[:last]
	if int(i) == last {
		return
	}
	s.heap[i] = moved
	s.locs[moved.idx].pos = uint32(i)
	siftDown(s.heap, int(i), s.locs)
	siftUp(s.heap, int(i), s.locs)
}

// siftUp restores 4-ary heap order in h from position i toward the root.
// When locs is non-nil it records each moved entry's new position (the
// fallback heap); the lane-head heap passes nil, since only its root is
// ever re-keyed.
func siftUp(h []heapEntry, i int, locs []loc) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		if locs != nil {
			locs[h[i].idx].pos = uint32(i)
		}
		i = parent
	}
	h[i] = e
	if locs != nil {
		locs[e.idx].pos = uint32(i)
	}
}

// siftDown restores 4-ary heap order in h from position i toward the
// leaves, recording moves in locs like siftUp.
func siftDown(h []heapEntry, i int, locs []loc) {
	n := len(h)
	if i >= n {
		return
	}
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if entryLess(h[c], h[least]) {
				least = c
			}
		}
		if !entryLess(h[least], e) {
			break
		}
		h[i] = h[least]
		if locs != nil {
			locs[h[i].idx].pos = uint32(i)
		}
		i = least
	}
	h[i] = e
	if locs != nil {
		locs[e.idx].pos = uint32(i)
	}
}

// At schedules fn to run at the absolute virtual time at. Scheduling in the
// past (before Now) panics: it is always a model bug, and silently clamping
// would mask causality violations.
func (s *Scheduler) At(at time.Duration, fn Handler) Timer {
	if fn == nil {
		panic("sim: Scheduler.At: nil handler")
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: Scheduler.At: scheduling at %v before now %v", at, s.now))
	}
	return s.schedule(at, fn, nil, 0)
}

// After schedules fn to run d after the current virtual time. A negative d
// panics, matching At's past-scheduling rule.
func (s *Scheduler) After(d time.Duration, fn Handler) Timer {
	return s.At(s.now+d, fn)
}

// AtArg schedules fn(arg) to run at the absolute virtual time at. It is the
// allocation-free sibling of At: fn is typically a method value created once
// and reused, and arg an index into caller-owned pooled state, so the hot
// path schedules without materializing a closure. Ordering, Timer semantics,
// and the past-scheduling panic are identical to At.
func (s *Scheduler) AtArg(at time.Duration, fn ArgHandler, arg uint64) Timer {
	if fn == nil {
		panic("sim: Scheduler.AtArg: nil handler")
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: Scheduler.AtArg: scheduling at %v before now %v", at, s.now))
	}
	return s.schedule(at, nil, fn, arg)
}

// AfterArg schedules fn(arg) to run d after the current virtual time.
func (s *Scheduler) AfterArg(d time.Duration, fn ArgHandler, arg uint64) Timer {
	return s.AtArg(s.now+d, fn, arg)
}

// Stop makes the current or next Run call return ErrStopped after the
// in-flight handler (if any) completes.
func (s *Scheduler) Stop() { s.stopped = true }

// step pops and dispatches the earliest pending event. It reports whether an
// event fired. The slot is recycled before the handler runs, so a handler
// that schedules may reuse it; the Timer seq check keeps old handles inert.
func (s *Scheduler) step() bool {
	var (
		at  time.Duration
		fn  Handler
		afn ArgHandler
		arg uint64
	)
	switch {
	case s.laneFront() && (len(s.heap) == 0 || entryLess(s.laneHeap[0], s.heap[0])):
		at = s.laneHeap[0].at
		var h Handle
		if arg, h = s.lanePop(); h != timerLane {
			afn = s.handlers[h] // posted: the ring entry was the whole event
			break
		}
		fn, afn, arg = s.take(int32(arg))
	case len(s.heap) > 0:
		at = s.heap[0].at
		idx := s.heap[0].idx
		s.heapRemove(0)
		fn, afn, arg = s.take(idx)
	default:
		return false
	}
	s.pending--
	s.now = at
	s.dispatched++
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
	return true
}

// Run dispatches events until the queue is empty or the clock would pass
// until. Events scheduled exactly at until do fire. On normal completion the
// clock is advanced to until if the queue drained early, so repeated Run
// calls see monotonic time. Returns ErrStopped if Stop was called.
func (s *Scheduler) Run(until time.Duration) error {
	if until < s.now {
		return fmt.Errorf("sim: Run until %v is before now %v", until, s.now)
	}
	for {
		if s.stopped {
			s.stopped = false
			return ErrStopped
		}
		next, ok := s.peek()
		if !ok || next > until {
			s.now = until
			return nil
		}
		s.step()
	}
}

// RunUntilIdle dispatches events until no pending events remain. Returns
// ErrStopped if Stop was called. The maxEvents guard converts an accidental
// self-perpetuating event loop into a diagnosable error instead of a hang.
func (s *Scheduler) RunUntilIdle(maxEvents uint64) error {
	start := s.dispatched
	for {
		if s.stopped {
			s.stopped = false
			return ErrStopped
		}
		if maxEvents > 0 && s.dispatched-start >= maxEvents {
			return fmt.Errorf("sim: RunUntilIdle exceeded %d events at t=%v", maxEvents, s.now)
		}
		if !s.step() {
			return nil
		}
	}
}

// peek returns the timestamp of the earliest pending event.
func (s *Scheduler) peek() (time.Duration, bool) {
	lanes := s.laneFront()
	switch {
	case lanes && (len(s.heap) == 0 || s.laneHeap[0].at < s.heap[0].at):
		return s.laneHeap[0].at, true
	case len(s.heap) > 0:
		return s.heap[0].at, true
	}
	return 0, false
}
