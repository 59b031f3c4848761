package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
	"time"

	"repro/internal/experiment"
)

// inProcess runs units in the test process, reading CPU time and peak
// resident memory from the process's own resource usage.
func inProcess(w workload, seed int64, workers int, profile string) (unit, error) {
	var before, after syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &before); err != nil {
		return unit{}, err
	}
	u, err := childUnit(w, seed, workers, profile)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &after); err != nil {
		return unit{}, err
	}
	cpu := func(r syscall.Rusage) time.Duration {
		return time.Duration(r.Utime.Nano() + r.Stime.Nano())
	}
	u.CPU = cpu(after) - cpu(before)
	u.MaxRSSMB = float64(after.Maxrss) / 1024
	return u, err
}

// tinySeed is a seed without stored outputs, so tiny workloads are
// checked against invariants only.
const tinySeed = 3

// tiny shrinks every workload to a few nodes and packets, keeping what
// each exercises: failures, mobility, one source, the figure sweep.
func tiny(t *testing.T) []workload {
	t.Helper()
	ws, err := workloads()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		w := &ws[i]
		w.expected, w.golden = nil, ""
		if w.figures {
			w.quality = experiment.Quality{PacketsPerNode: 1, NodeCounts: []int{9, 16}, Radii: []float64{10},
				Drain: 200 * time.Millisecond, Seed: 1}
			continue
		}
		w.scenario.Nodes = 25
		w.scenario.PacketsPerNode = 1
		w.scenario.Drain = 500 * time.Millisecond
		if w.scenario.Sources > 0 {
			w.scenario.Sources = 2
		}
	}
	return ws
}

func tinyBench(t *testing.T, w workload, seed int64) bench {
	return bench{w: w, seed: seed, root: "..", outDir: t.TempDir(), run: inProcess}
}

func TestBenchmarkJSONNamesEveryWorkloadAndMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ws, err := workloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark defines %d", len(c.listed), len(c.defs))
		}
		for i, d := range c.defs {
			if c.listed[i].Name != d.name || c.listed[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s/%s, benchmark %s/%s",
					i, c.listed[i].Name, c.listed[i].Unit, d.name, d.unit)
			}
		}
	}
}

// emitsExactly fails unless out reports exactly defs, each with its unit.
func emitsExactly(t *testing.T, out output, defs []metricDef) {
	t.Helper()
	if len(out.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, want %d", len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range tiny(t) {
		t.Run(w.name, func(t *testing.T) {
			b := tinyBench(t, w, tinySeed)
			out := b.untraced(0)
			if !out.Correct || out.Attempted != 1 || out.Failed != 0 {
				t.Fatalf("untraced: %+v", out)
			}
			emitsExactly(t, out, endToEnd)
			for _, d := range endToEnd {
				if out.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, out.Metrics[d.name].Value)
				}
			}

			out, err := b.traced()
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Attempted != overheadBaseRuns+2 || out.Failed != 0 {
				t.Fatalf("traced: %+v", out)
			}
			emitsExactly(t, out, perLayer)
			if _, err := os.Stat(b.spansPath()); err != nil {
				t.Errorf("spans not written: %v", err)
			}
		})
	}
}

func TestCorruptedExpectedIsAFailedRun(t *testing.T) {
	ws := tiny(t)
	w := ws[2] // failures and mobility
	u, err := inProcess(w, defaultSeed, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	good := u.Result
	w.expected = &good
	if out := tinyBench(t, w, defaultSeed).untraced(0); !out.Correct || out.Failed != 0 {
		t.Fatalf("true expected value: %+v", out)
	}
	bad := good
	bad.Failovers++
	w.expected = &bad
	out := tinyBench(t, w, defaultSeed).untraced(0)
	if out.Correct || out.Attempted != 1 || out.Failed != 1 {
		t.Fatalf("corrupted expected value: %+v, want one failed run", out)
	}
	emitsExactly(t, out, endToEnd)

	fig := ws[3]
	fig.golden = "corrupted-golden.txt"
	b := tinyBench(t, fig, defaultSeed)
	b.root = t.TempDir()
	if err := os.WriteFile(filepath.Join(b.root, fig.golden), []byte("not the report\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := b.untraced(0); out.Correct || out.Failed != 1 {
		t.Fatalf("corrupted golden report: %+v, want one failed run", out)
	}
}

func TestFailureFreeWorkloadMustDeliverEverything(t *testing.T) {
	w := tiny(t)[0]
	c := checker{w: w, seed: tinySeed}
	u, err := inProcess(w, tinySeed, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.check(u); err != nil {
		t.Fatalf("lossless run rejected: %v", err)
	}
	u.Result.Deliveries--
	if c.check(u) == nil {
		t.Fatal("a lost delivery passed the check")
	}
	u.Result.Deliveries = u.Result.Expected + 1
	w.lossless = false
	if (&checker{w: w, seed: tinySeed}).check(u) == nil {
		t.Fatal("more deliveries than expected passed the check")
	}
}

func TestSelfTimesSumToWall(t *testing.T) {
	w := tiny(t)[2]
	w.scenario.PacketsPerNode = 4
	u, err := inProcess(w, tinySeed, simWorkers, "")
	if err != nil {
		t.Fatal(err)
	}
	if u.Result.MobilityEvents == 0 {
		t.Fatal("tiny mobility workload moved nothing")
	}
	v := layerValues(w, u, micro{})
	if got, want := v["routing.recomputes"], float64(1+u.Result.MobilityEvents); got != want {
		t.Errorf("routing.recomputes = %v, want %v", got, want)
	}
	parts := []string{"topo.build_s", "routing.self_s", "sim.event_loop_self_s", "setup.residual_self_s"}
	sum := 0.0
	for _, p := range parts {
		if v[p] < 0 {
			t.Errorf("%s = %v is negative", p, v[p])
		}
		sum += v[p]
	}
	if wall := v["trace.wall_s"]; math.Abs(sum-wall) > 1e-9*wall {
		t.Errorf("self times sum to %v, wall is %v", sum, wall)
	}
	if loop := v["sim.event_loop_self_s"]; loop >= u.Stats.EventLoop.Seconds() {
		t.Errorf("event-loop self %v does not exclude the in-loop DBF re-runs (loop %v)", loop, u.Stats.EventLoop.Seconds())
	}
}

func TestGroupShares(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
     2.50s 25.00% 25.00%      3.00s 30.00%  repro/internal/sim.(*Scheduler).siftDown
     1.50s 15.00% 40.00%      1.50s 15.00%  repro/internal/network.(*Network).Send
     1.00s 10.00% 50.00%      1.00s 10.00%  runtime.mallocgc
     1.00s 10.00% 60.00%      1.00s 10.00%  runtime.scanobject
     1.00s 10.00% 70.00%      1.00s 10.00%  runtime.memmove
     1.00s 10.00% 80.00%      1.00s 10.00%  repro/internal/sim.(*Scheduler).At
     1.00s 10.00% 90.00%      1.00s 10.00%  slices.pdqsortCmpFunc[go.shape.struct { repro/internal/routing.x int }]
     1.00s 10.00%   100%      1.00s 10.00%  repro/internal/routing.ComputeWorkers.func1
`
	got := groupShares(top)
	want := map[string]float64{"sim": 0.35, "network": 0.15, "gc": 0.2, "routing": 0.1}
	if len(got) != len(want) {
		t.Fatalf("groups %v, want %v", slices.Sorted(maps.Keys(got)), want)
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s share = %v, want %v", k, got[k], w)
		}
	}
}
