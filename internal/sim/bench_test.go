package sim

import (
	"testing"
	"time"
)

// BenchmarkScheduler measures the steady-state schedule→dispatch hot path.
// The arena kernel recycles event slots through a free list, so allocs/op
// must stay at zero once warm; the seed container/heap kernel paid 2
// allocs/op (the boxed *event plus heap.Interface growth) at ~705 ns/op.
func BenchmarkScheduler(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	// Warm the arena so growth is not billed to the measured loop.
	for i := 0; i < 2048; i++ {
		s.After(time.Microsecond, fn)
	}
	if err := s.RunUntilIdle(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, fn)
		if i%1024 == 1023 {
			if err := s.RunUntilIdle(0); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.RunUntilIdle(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulerCancel measures the schedule→cancel path: eager
// sift-out plus slot recycling, also allocation-free in steady state.
func BenchmarkSchedulerCancel(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := s.After(time.Duration(i%64)*time.Microsecond+time.Microsecond, fn)
		if !t.Cancel() {
			b.Fatal("cancel failed")
		}
	}
	if s.Len() != 0 {
		b.Fatalf("Len()=%d after canceling everything", s.Len())
	}
}

// depthPending is the peak number of pending events of the SPMS workload on
// a 400-node grid at 2 packets per node (obs.RunStats.PeakHeapDepth).
const depthPending = 133707

// BenchmarkSchedulerDepth measures one dispatch plus the schedule it
// triggers with depthPending events pending, for two delay mixes:
//
//   - recurring: delays from 400 fixed classes within 2 ms, like the flight,
//     processing and timer delays of an SPMS run, so nearly every event
//     rides a lane;
//   - distinct: uniformly random nanosecond delays within 2 ms, which never
//     recur, so every event goes to the fallback heap.
//
// One op in 16 also arms a timer 2–4 ms ahead and cancels the oldest such
// timer still pending, as every τDAT of an SPMS run is canceled.
func BenchmarkSchedulerDepth(b *testing.B) {
	var classes [400]time.Duration
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range classes {
		classes[i] = time.Duration(rnd() % uint64(2*time.Millisecond))
	}
	mixes := []struct {
		name  string
		delay func() time.Duration
	}{
		{"recurring", func() time.Duration { return classes[rnd()%uint64(len(classes))] }},
		{"distinct", func() time.Duration { return time.Duration(rnd() % uint64(2*time.Millisecond)) }},
	}
	for _, mix := range mixes {
		b.Run(mix.name, func(b *testing.B) {
			s := NewScheduler()
			timers := make([]Timer, depthPending/16)
			next, ops := 0, 0
			var fire ArgHandler
			fire = func(uint64) {
				s.AfterArg(mix.delay(), fire, 0)
				if ops++; ops%16 == 0 {
					timers[next].Cancel()
					timers[next] = s.After(2*time.Millisecond+mix.delay(), func() {})
					next = (next + 1) % len(timers)
				}
			}
			for i := range timers {
				timers[i] = s.After(2*time.Millisecond+mix.delay(), func() {})
			}
			for s.Len() < depthPending {
				s.AfterArg(mix.delay(), fire, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step()
			}
		})
	}
}
