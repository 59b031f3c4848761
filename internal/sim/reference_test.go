package sim

// Differential test of the Scheduler against a plain reference kernel: a
// slice kept sorted by (at, seq). Seeded random streams schedule through
// every entry point, Post included, with delays that recur (so they ride
// lanes) and delays that do not (so they fall back to the heap), cancel
// lane heads, middles and tails, heap entries and stale handles, and run to
// random boundaries with Stop calls mixed in. The two kernels run in lockstep: each handler
// checks that the reference's earliest event is the one firing, and after
// every operation the test compares Now, Len and Active on every handle
// ever issued.

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"
)

// refEvent is one pending event of the reference kernel.
type refEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

// refKernel is the reference: pending events sorted by (at, seq).
type refKernel struct {
	now     time.Duration
	seq     uint64
	pending []refEvent
}

func (r *refKernel) schedule(at time.Duration, id int) {
	e := refEvent{at: at, seq: r.seq, id: id}
	r.seq++
	i := sort.Search(len(r.pending), func(i int) bool {
		p := r.pending[i]
		return p.at > e.at || (p.at == e.at && p.seq > e.seq)
	})
	r.pending = append(r.pending, refEvent{})
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = e
}

func (r *refKernel) find(id int) int {
	for i, e := range r.pending {
		if e.id == id {
			return i
		}
	}
	return -1
}

func (r *refKernel) cancel(id int) bool {
	i := r.find(id)
	if i < 0 {
		return false
	}
	r.pending = append(r.pending[:i], r.pending[i+1:]...)
	return true
}

func (r *refKernel) pop() refEvent {
	e := r.pending[0]
	r.pending = r.pending[1:]
	r.now = e.at
	return e
}

// refHarness drives a Scheduler and a refKernel with the same stream.
type refHarness struct {
	t       *testing.T
	rng     *RNG
	s       *Scheduler
	ref     refKernel
	timers  []Timer // by event id; zero for posted events
	posted  []bool  // by event id: scheduled with Post, so uncancelable
	post    Handle
	stopped bool // a Stop is outstanding in the reference
	fired   int
	// canceled counts successful cancels by kind: lane head, middle, tail
	// and heap entry.
	canceled *[4]int
}

// recurring are the delays that repeat, so they earn lanes; the last one
// shares 1 ms's lane table slot, so the two contend for one lane.
// Continuous delays are drawn on the same microsecond grid and absolute
// times are mixed in, so lane and heap events often tie on at and only seq
// orders them.
var recurring = []time.Duration{0, time.Microsecond, 20 * time.Microsecond, time.Millisecond, 2500 * time.Microsecond,
	slotTwin(time.Millisecond)}

// slotTwin returns the smallest whole-microsecond delay above d that hashes
// to d's lane table slot.
func slotTwin(d time.Duration) time.Duration {
	for t := d + time.Microsecond; ; t += time.Microsecond {
		if laneKey(t, timerLane)>>(64-laneBits) == laneKey(d, timerLane)>>(64-laneBits) {
			return t
		}
	}
}

func (h *refHarness) delay() time.Duration {
	if h.rng.Bool(0.7) {
		return recurring[h.rng.Intn(len(recurring))]
	}
	return time.Duration(h.rng.Intn(3000)) * time.Microsecond
}

// schedule issues one event through a random entry point.
func (h *refHarness) schedule() {
	id := len(h.timers)
	fn := func() { h.fire(id) }
	afn := func(arg uint64) {
		if arg != uint64(id)*7 {
			h.t.Fatalf("event %d fired with arg %d", id, arg)
		}
		h.fire(id)
	}
	d := h.delay()
	var tm Timer
	posted := false
	switch h.rng.Intn(6) {
	case 0:
		tm = h.s.After(d, fn)
	case 1:
		tm = h.s.AfterArg(d, afn, uint64(id)*7)
	case 2:
		tm = h.s.At(h.s.Now()+d, fn)
	case 3:
		tm = h.s.AtArg(h.s.Now()+d, afn, uint64(id)*7)
	case 4:
		h.s.Post(h.s.Now()+d, h.post, uint64(id))
		tm, posted = Timer{at: h.s.Now() + d}, true
	default:
		// An absolute instant on a coarse grid: ties with lane events.
		at := (h.s.Now()/time.Millisecond + time.Duration(h.rng.Intn(4))) * time.Millisecond
		if at < h.s.Now() {
			at = h.s.Now()
		}
		tm = h.s.At(at, fn)
	}
	h.timers = append(h.timers, tm)
	h.posted = append(h.posted, posted)
	h.ref.schedule(tm.At(), id)
}

// fire runs inside a Scheduler handler: the reference must agree on which
// event fires and when, then the handler may schedule, cancel or stop.
func (h *refHarness) fire(id int) {
	if len(h.ref.pending) == 0 {
		h.t.Fatalf("event %d fired; reference has nothing pending", id)
	}
	want := h.ref.pop()
	if want.id != id {
		h.t.Fatalf("fired event %d at %v; reference fires %d at %v", id, h.s.Now(), want.id, want.at)
	}
	if h.s.Now() != want.at {
		h.t.Fatalf("event %d: Now() = %v, want %v", id, h.s.Now(), want.at)
	}
	h.fired++
	if h.s.Len() != len(h.ref.pending) {
		h.t.Fatalf("inside event %d: Len() = %d, want %d", id, h.s.Len(), len(h.ref.pending))
	}
	switch r := h.rng.Intn(100); {
	case r < 30:
		h.schedule()
	case r < 40:
		h.cancel()
	case r < 42:
		h.s.Stop()
		h.stopped = true
	}
}

// pick returns a pending event id of a random kind — lane head, lane
// middle, lane tail or heap entry, read from the kernel's own layout —
// or a random id when no pending event is of that kind.
func (h *refHarness) pick() (id, kind int) {
	kind = h.rng.Intn(4)
	var cands []int
	for _, e := range h.ref.pending {
		if h.posted[e.id] {
			continue
		}
		ev := h.s.locs[h.timers[e.id].idx]
		if ev.lane == inHeap {
			if kind == 3 {
				cands = append(cands, e.id)
			}
			continue
		}
		ln := &h.s.lanes[ev.lane]
		var k int
		switch {
		case ev.pos == ln.tail-1:
			k = 2
		case ev.pos == ln.head:
			k = 0
		default:
			k = 1
		}
		if k == kind {
			cands = append(cands, e.id)
		}
	}
	if len(cands) == 0 {
		return h.rng.Intn(len(h.timers)), -1
	}
	return cands[h.rng.Intn(len(cands))], kind
}

// cancel cancels a picked handle — possibly a stale one — on both kernels.
func (h *refHarness) cancel() {
	if len(h.timers) == 0 {
		return
	}
	id, kind := h.pick()
	if h.posted[id] {
		if h.timers[id].Cancel() {
			h.t.Fatalf("Cancel on posted event %d's zero Timer reported true", id)
		}
		return
	}
	got, want := h.timers[id].Cancel(), h.ref.cancel(id)
	if got != want {
		h.t.Fatalf("Cancel(event %d) = %v, want %v", id, got, want)
	}
	if got && kind >= 0 {
		h.canceled[kind]++
	}
}

// run advances both kernels to a random boundary.
func (h *refHarness) run() {
	until := h.s.Now() + h.delay()
	err := h.s.Run(until)
	if h.stopped {
		if !errors.Is(err, ErrStopped) {
			h.t.Fatalf("Run after Stop returned %v, want ErrStopped", err)
		}
		h.stopped = false
		return
	}
	if err != nil {
		h.t.Fatalf("Run(%v): %v", until, err)
	}
	if len(h.ref.pending) > 0 && h.ref.pending[0].at <= until {
		h.t.Fatalf("Run(%v) returned with event %d at %v still pending", until, h.ref.pending[0].id, h.ref.pending[0].at)
	}
	h.ref.now = until
}

// check compares the observable state of both kernels.
func (h *refHarness) check(op string) {
	if h.s.Now() != h.ref.now {
		h.t.Fatalf("after %s: Now() = %v, want %v", op, h.s.Now(), h.ref.now)
	}
	if h.s.Len() != len(h.ref.pending) {
		h.t.Fatalf("after %s: Len() = %d, want %d", op, h.s.Len(), len(h.ref.pending))
	}
	live := make([]bool, len(h.timers))
	for _, e := range h.ref.pending {
		live[e.id] = true
	}
	for id, tm := range h.timers {
		if h.posted[id] {
			continue
		}
		if tm.Active() != live[id] {
			h.t.Fatalf("after %s: event %d Active() = %v, want %v", op, id, tm.Active(), live[id])
		}
	}
	// Each lane's tombstone count matches its ring, and a canceled tail
	// never lingers.
	for l := range h.s.lanes {
		ln := &h.s.lanes[l]
		dead := uint32(0)
		for p := ln.head; p != ln.tail; p++ {
			if ln.ring[p&uint32(len(ln.ring)-1)].seq == freeSeq {
				dead++
			}
		}
		if dead != ln.dead {
			h.t.Fatalf("after %s: lane %d holds %d tombstones, counts %d", op, l, dead, ln.dead)
		}
		if ln.tail != ln.head && ln.ring[(ln.tail-1)&uint32(len(ln.ring)-1)].seq == freeSeq {
			h.t.Fatalf("after %s: lane %d ends in a tombstone", op, l)
		}
	}
}

func TestSchedulerMatchesReference(t *testing.T) {
	streams, ops := 200, 400
	if testing.Short() {
		streams = 40
	}
	var canceled [4]int
	var skipped, postedLanes uint64
	for seed := 1; seed <= streams; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			h := &refHarness{t: t, rng: NewRNG(int64(seed)), s: NewScheduler(), canceled: &canceled}
			h.post = h.s.Register(func(arg uint64) { h.fire(int(arg)) })
			for i := 0; i < ops; i++ {
				var op string
				switch r := h.rng.Intn(100); {
				case r < 50:
					op = "schedule"
					h.schedule()
				case r < 70:
					op = "cancel"
					h.cancel()
				case r < 72:
					op = "stop"
					h.s.Stop()
					h.stopped = true
				default:
					op = "run"
					h.run()
				}
				h.check(op)
			}
			for len(h.ref.pending) > 0 || h.stopped {
				h.run()
				h.check("drain")
			}
			if h.s.Dispatched() != uint64(h.fired) {
				t.Fatalf("Dispatched() = %d, want %d", h.s.Dispatched(), h.fired)
			}
			skipped += h.s.Counts().TombstonesSkipped
			for _, ln := range h.s.lanes {
				if ln.handler == h.post {
					postedLanes++
				}
			}
		})
	}
	// The streams must reach every cancel path and the tombstone skip.
	for kind, n := range canceled {
		if n == 0 {
			t.Errorf("no cancel of kind %d (lane head, middle, tail, heap)", kind)
		}
	}
	if skipped == 0 {
		t.Error("no lane tombstone was ever skipped")
	}
	if postedLanes == 0 {
		t.Error("no posted event ever rode a lane")
	}
	t.Logf("cancels by kind (lane head, middle, tail, heap): %v; tombstones skipped: %d; posted lanes: %d",
		canceled, skipped, postedLanes)
}
