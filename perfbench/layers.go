package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
)

// perLayer are the metrics of single layers, reported with --trace 1.
// Counts repeat exactly at a fixed seed; times are host time; shares are
// sampled from a CPU profile, not exact.
var perLayer = []metricDef{
	{"routing.graph_s", "s"},
	{"routing.dbf_s", "s"},
	{"routing.dbf_rounds", "count"},
	{"routing.dbf_broadcasts", "count"},
	{"routing.recomputes", "count"},
	{"routing.self_s", "s"},
	{"sim.event_loop_self_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.peak_heap", "count"},
	{"sim.arena_slots", "count"},
	{"sim.sched_ns_per_op", "ns"},
	{"network.sent_adv", "count"},
	{"network.sent_req", "count"},
	{"network.sent_data", "count"},
	{"network.drops", "count"},
	{"network.duplicates", "count"},
	{"network.data_useful_ratio", "ratio"},
	{"core.timeouts", "count"},
	{"core.failovers", "count"},
	{"core.failover_ratio", "ratio"},
	{"fault.injected", "count"},
	{"topo.build_s", "s"},
	{"topo.relocate_s", "s"},
	{"topo.zone_size_mean", "count"},
	{"topo.reached_by_ns", "ns"},
	{"setup.residual_self_s", "s"},
	{"experiment.points", "count"},
	{"experiment.pool_util", "ratio"},
	{"experiment.fig6_s", "s"},
	{"experiment.fig7_s", "s"},
	{"experiment.fig8_s", "s"},
	{"experiment.fig9_s", "s"},
	{"experiment.fig10_s", "s"},
	{"experiment.fig11_s", "s"},
	{"experiment.fig12_s", "s"},
	{"experiment.fig13_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"cpu.sim_share", "sampled_share"},
	{"cpu.network_share", "sampled_share"},
	{"cpu.core_share", "sampled_share"},
	{"cpu.spin_share", "sampled_share"},
	{"cpu.routing_share", "sampled_share"},
	{"cpu.topo_share", "sampled_share"},
	{"cpu.dissem_share", "sampled_share"},
	{"cpu.gc_share", "sampled_share"},
	{"trace.wall_s", "s"},
	{"trace.overhead_s", "s"},
}

// cpuLayers are the groups the CPU profile is split into: the simulator's
// packages and the runtime's memory management.
var cpuLayers = []string{"sim", "network", "core", "spin", "routing", "topo", "dissem", "gc"}

// span is one interval the benchmark timed around a call into the program,
// in nanoseconds since the traced run began.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the traced run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) do(name, parent string, fn func()) {
	s := span{Name: name, Parent: parent, Start: time.Since(t.t0).Nanoseconds()}
	fn()
	s.End = time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
}

// overheadBaseRuns is how many untraced runs a traced invocation makes; the
// median of their wall times is the baseline of the tracing overhead.
const overheadBaseRuns = 3

// traced makes overheadBaseRuns untraced runs as the overhead baseline, one
// traced run (run statistics plus a CPU profile) and one serial run that
// must produce the identical output, then times the layer micro-rows on the
// workload's field and reports every per-layer metric.
func (b bench) traced() (output, error) {
	c := checker{w: b.w, seed: b.seed, root: b.root}
	tr := &tracer{t0: time.Now()}
	out := output{}
	attempt := func(name string, workers int, profile string) (unit, bool) {
		var u unit
		var err error
		tr.do(name, "", func() { u, err = b.run(b.w, b.seed, workers, profile) })
		out.Attempted++
		if err == nil {
			err = c.check(u)
		}
		if err != nil {
			out.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d %s run failed: %v\n", b.w.name, b.seed, name, err)
			return u, false
		}
		return u, true
	}
	profile := filepath.Join(b.outDir, fmt.Sprintf("cpu-%s-seed%d.prof", b.w.name, b.seed))
	var base []float64
	for range overheadBaseRuns {
		if u, ok := attempt("untraced", simWorkers, ""); ok {
			base = append(base, u.Wall.Seconds())
		}
	}
	tu, _ := attempt("traced", simWorkers, profile)
	attempt("serial", 1, "")
	out.Correct = out.Failed == 0

	var shares map[string]float64
	var err error
	tr.do("cpu-profile", "", func() { shares, err = cpuShares(profile) })
	if err != nil {
		// A crashed traced run leaves no profile; it already counts as failed.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		out.Correct = false
	}
	var m micro
	nodes, radius := b.w.microField()
	tr.do("micro-rows", "", func() { m, err = measureMicro(tr, nodes, radius, b.seed) })
	if err != nil {
		return output{}, err
	}
	v := layerValues(b.w, tu, m)
	v["trace.overhead_s"] = tu.Wall.Seconds() - median(base)
	for _, l := range cpuLayers {
		v["cpu."+l+"_share"] = shares[l]
	}
	out.Metrics = metrics(perLayer, v)
	return out, writeSpans(b.spansPath(), tr.spans)
}

func writeSpans(path string, spans []span) error {
	data, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes splits a traced single-sim run's wall time into layer self
// times that do not overlap and sum to wall. Mobility-driven DBF re-runs
// sit inside the event loop, so the event loop's self time excludes them.
// Run statistics give only the total route time, so it is apportioned
// evenly over the initial DBF and the re-runs, which run on fields of the
// same size. What is left is the residual: protocol construction and
// result collection.
func selfTimes(u unit, recomputes int) (topoS, routeS, loopS, residual float64) {
	st := u.Stats
	topoS, routeS = st.TopologyBuild.Seconds(), st.RouteCompute.Seconds()
	inLoop := 0.0
	if recomputes > 1 {
		inLoop = routeS * float64(recomputes-1) / float64(recomputes)
	}
	loopS = st.EventLoop.Seconds() - inLoop
	residual = u.Wall.Seconds() - topoS - routeS - loopS
	return topoS, routeS, loopS, residual
}

// layerValues derives the per-layer metrics of a traced run other than the
// CPU shares and the tracing overhead. The figure report exposes no
// per-simulation statistics, so on it the simulation-layer counts and self
// times are 0 and the whole wall time is residual.
func layerValues(w workload, u unit, m micro) map[string]float64 {
	r, st := u.Result, u.Stats
	recomputes := 0
	if !w.figures && w.scenario.Protocol == experiment.SPMS {
		recomputes = 1 + r.MobilityEvents
	}
	topoS, routeS, loopS, residual := selfTimes(u, recomputes)
	v := map[string]float64{
		"routing.graph_s":           m.graph.Seconds(),
		"routing.dbf_s":             m.dbf.Seconds(),
		"routing.dbf_rounds":        float64(r.DBFRounds),
		"routing.dbf_broadcasts":    float64(r.DBFBroadcasts),
		"routing.recomputes":        float64(recomputes),
		"routing.self_s":            routeS,
		"sim.event_loop_self_s":     loopS,
		"sim.events":                float64(st.EventsDispatched),
		"sim.ns_per_event":          ratio(loopS*1e9, float64(st.EventsDispatched)),
		"sim.peak_heap":             float64(st.PeakHeapDepth),
		"sim.arena_slots":           float64(st.ArenaHighWater),
		"sim.sched_ns_per_op":       m.schedNsPerOp,
		"network.sent_adv":          float64(r.SentADV),
		"network.sent_req":          float64(r.SentREQ),
		"network.sent_data":         float64(r.SentDATA),
		"network.drops":             float64(r.Drops),
		"network.duplicates":        float64(r.Duplicates),
		"network.data_useful_ratio": ratio(float64(r.Deliveries), float64(r.SentDATA)),
		"core.timeouts":             float64(r.Timeouts),
		"core.failovers":            float64(r.Failovers),
		"core.failover_ratio":       ratio(float64(r.Failovers), float64(r.Timeouts)),
		"fault.injected":            float64(r.FailuresInjected),
		"topo.build_s":              topoS,
		"topo.relocate_s":           m.relocate.Seconds(),
		"topo.zone_size_mean":       m.zoneSize,
		"topo.reached_by_ns":        m.reachedByNs,
		"setup.residual_self_s":     residual,
		"experiment.points":         float64(u.Points),
		"experiment.pool_util":      ratio(u.CPU.Seconds(), u.Wall.Seconds()*simWorkers),
		"runtime.alloc_mb":          u.AllocMB,
		"runtime.gc_cycles":         float64(u.GCCycles),
		"trace.wall_s":              u.Wall.Seconds(),
	}
	for i, d := range u.Figures {
		v["experiment.fig"+strconv.Itoa(i+6)+"_s"] = d.Seconds()
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// microBudget bounds each time-based micro-row.
const microBudget = 500 * time.Millisecond

// micro holds the layer micro-rows, measured at the workload's size with
// as many iterations as fit in microBudget.
type micro struct {
	graph, dbf   time.Duration // median BuildGraphWorkers, ComputeWorkers
	relocate     time.Duration // median RelocateFraction(5%)
	zoneSize     float64
	reachedByNs  float64
	schedNsPerOp float64
}

func measureMicro(tr *tracer, nodes int, radius float64, seed int64) (micro, error) {
	model, err := radio.ScaledMICA2(radius)
	if err != nil {
		return micro{}, err
	}
	field, err := topo.NewGridField(nodes, experiment.DefaultGridSpacing, model)
	if err != nil {
		return micro{}, err
	}
	var m micro
	m.zoneSize = field.MeanZoneSize()
	tr.do("routing.dbf", "micro-rows", func() { m.graph, m.dbf = dbfRow(field) })
	tr.do("topo.reached_by", "micro-rows", func() { m.reachedByNs = reachedByRow(field) })
	tr.do("topo.relocate", "micro-rows", func() { m.relocate = relocateRow(field, seed) })
	tr.do("sim.sched", "micro-rows", func() { m.schedNsPerOp = schedRow() })
	return m, nil
}

// dbfRow times the standalone graph build and DBF on field at the
// benchmark's worker count: at least once, then until a second is spent.
func dbfRow(field *topo.Field) (graph, dbf time.Duration) {
	var gs, ds []float64
	start := time.Now()
	for len(gs) == 0 || time.Since(start) < 2*microBudget {
		t0 := time.Now()
		g := routing.BuildGraphWorkers(field, simWorkers)
		t1 := time.Now()
		routing.ComputeWorkers(g, routing.DefaultAlternatives, simWorkers)
		gs = append(gs, t1.Sub(t0).Seconds())
		ds = append(ds, time.Since(t1).Seconds())
	}
	return seconds(median(gs)), seconds(median(ds))
}

// reachedByRow is the mean cost of a warm Field.ReachedBy query, cycling
// over every node and power level.
func reachedByRow(field *topo.Field) float64 {
	field.WarmAll(simWorkers)
	levels := radio.Level(field.Model().NumLevels())
	calls := 0
	start := time.Now()
	for time.Since(start) < microBudget {
		for id := 0; id < field.N(); id++ {
			for l := radio.MaxPower; l <= levels; l++ {
				sinkInt += len(field.ReachedBy(packet.NodeID(id), l))
				calls++
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// relocateRow is the median cost of moving 5% of the nodes, the mobility
// workload's step. Caches are re-warmed between steps, untimed, as the
// event loop would re-warm them.
func relocateRow(field *topo.Field, seed int64) time.Duration {
	rng := sim.NewRNG(seed)
	var ts []float64
	start := time.Now()
	for time.Since(start) < microBudget {
		t0 := time.Now()
		field.RelocateFraction(0.05, rng)
		ts = append(ts, time.Since(t0).Seconds())
		field.WarmAll(simWorkers)
	}
	return seconds(median(ts))
}

// schedDepth is the scheduler micro-row's depth on every workload: the
// peak number of pending events of spms-400 at seed 1, as its traced run
// reports in sim.peak_heap.
const schedDepth = 133707

// The scheduler micro-row's operation mix per dispatched event is that of
// spms-400 at seed 1, from expected/spms-400.json and its traced run's
// sim.events. The network schedules two AtArg events per transmission, its
// completion and its deferred delivery: 2 × 3,099,002 ADV, REQ and DATA
// sent. The other dispatched events are closure timers armed with At that
// fired: 6,514,632 − 6,198,004 = 316,628, the 315,828 timeouts plus the 800
// items originated. Each of the 319,200 deliveries cancels the pending
// data-wait timer of its acquisition, a timer armed with At that never
// fires.
const (
	schedEvents    = 6514632 // events dispatched
	schedFired     = 316628  // closure timers that fired
	schedCancelled = 319200  // closure timers cancelled
)

// schedRow is the mean cost of one scheduler operation on a heap held at
// schedDepth pending events. Every dispatched event arms its replacement:
// a closure timer with At at schedFired/schedEvents of dispatches, else an
// event with AtArg. At schedCancelled/schedEvents of dispatches it also
// arms a closure timer and cancels the oldest such timer still pending.
// Operations are the pops, arms and cancels. Events fire within 2 ms of
// being armed; timers that are cancelled are armed 2–4 ms ahead, so they
// are cancelled from inside the heap before they fire.
func schedRow() float64 {
	s := sim.NewScheduler()
	x := uint64(0x9E3779B97F4A7C15)
	delay := func(lo time.Duration) time.Duration {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return lo + time.Duration(x%uint64(2*time.Millisecond))
	}
	const cancelLead = 2 * time.Millisecond
	// The cancelled timers' share of the heap is their share of the arms.
	pending := make([]sim.Timer, schedDepth*schedCancelled/schedEvents)
	next := 0
	var ops, firedCredit, cancelCredit uint64
	var arm func()
	timer := func() { arm() }
	fire := func(uint64) { arm() }
	arm = func() {
		ops++
		if firedCredit += schedFired; firedCredit >= schedEvents {
			firedCredit -= schedEvents
			s.After(delay(0), timer)
		} else {
			s.AfterArg(delay(0), fire, 0)
		}
		if cancelCredit += schedCancelled; cancelCredit >= schedEvents {
			cancelCredit -= schedEvents
			ops += 2
			pending[next].Cancel()
			pending[next] = s.After(delay(cancelLead), timer)
			next = (next + 1) % len(pending)
		}
	}
	for i := range pending {
		pending[i] = s.After(delay(cancelLead), timer)
	}
	for range schedDepth - len(pending) {
		s.AfterArg(delay(0), fire, 0)
	}
	start := time.Now()
	for step := time.Duration(0); time.Since(start) < microBudget; {
		step += 100 * time.Microsecond
		if err := s.Run(step); err != nil {
			return 0
		}
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(ops+s.Dispatched())
}

// sinkInt keeps the compiler from discarding measured calls.
var sinkInt int

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// cpuShares groups the flat samples of a CPU profile by layer, using
// `go tool pprof -top`. Shares are of all samples, so they are sampled
// estimates, not exact times.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", profile, err)
	}
	return groupShares(string(out)), nil
}

// groupShares sums the flat% column of `pprof -top` output by layer.
func groupShares(top string) map[string]float64 {
	shares := map[string]float64{}
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue // the column header
		}
		if l := layerOf(strings.Join(f[5:], " ")); l != "" {
			shares[l] += pct / 100
		}
	}
	return shares
}

// memFuncs mark the runtime functions counted as memory management:
// allocation, garbage collection, sweeping and scavenging.
var memFuncs = []string{"gc", "malloc", "mark", "sweep", "scav", "scan", "grey", "wbbuf", "heapbits", "mspan", "mheap", "mcache", "mcentral"}

// layerOf names the layer a profiled function belongs to: the simulator
// package under repro/internal, "gc" for runtime memory management, or ""
// for anything else.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		return pkg
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		rest = strings.ToLower(rest)
		for _, s := range memFuncs {
			if strings.Contains(rest, s) {
				return "gc"
			}
		}
	}
	return ""
}
