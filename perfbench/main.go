// Command perfbench is the repository's benchmark of record. It runs one
// workload of the SPMS simulator for a fixed host-time budget and prints,
// as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (perfbench/run.sh builds it first):
//
//	perfbench --workload spms-400 --seed 1 --seconds 30 --trace 0
//
// Each run executes in a child process of its own, one after another, so
// that its CPU time and peak resident memory are its own. Every run's
// output is checked: at seed 1 against values stored with the benchmark,
// at any seed against invariants and against the first run of the same
// seed. With --trace 0 the metrics are the end-to-end host-time metrics,
// medians over the runs. With --trace 1 one traced run gives the per-layer
// split instead; see README.md for every metric.
//
// Seed 1009 is held out: it is not used while a change is written or
// tuned, and a claimed gain is confirmed on it once, after the change is
// final.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"
)

// simWorkers is the worker count for every measured run: SimWorkers for a
// single simulation, the sweep pool for the figure report. The load is
// sized for a 2-vCPU machine.
const simWorkers = 2

// outDir, under the directory the benchmark runs from, holds profiles and
// spans next to the build.
const outDir = ".bench_build"

// deadline bounds a whole invocation, every child run in it included, so
// a hung run cannot hold the benchmark past 180 seconds. A child still
// running at the deadline is killed and counts as a failed run.
const deadline = 170 * time.Second

// maxSeconds is the largest --seconds accepted. It leaves the deadline
// ample room for the last run of an untraced invocation, which may end
// after the budget.
const maxSeconds = 60

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported with
// --trace 0.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runFunc executes one run of a workload and returns what it measured.
// profile, when not empty, is where a CPU profile of the run is written.
type runFunc func(w workload, seed int64, workers int, profile string) (unit, error)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 30, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1 = one traced run reporting the per-layer metrics")
	child := fs.Bool("child", false, "internal: execute one run and print it as JSON")
	workers := fs.Int("workers", simWorkers, "internal: worker count of a child run")
	profile := fs.String("cpuprofile", "", "internal: CPU profile path of a child run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), simWorkers))
	if *child {
		u, err := childUnit(w, *seed, *workers, *profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(u); err != nil {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 || *seconds > maxSeconds {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be 1 to %d\n", maxSeconds)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := bench{w: w, seed: *seed, root: ".", outDir: outDir, run: subprocess(time.Now().Add(deadline))}
	var out output
	if *trace == 1 {
		out, err = b.traced()
	} else {
		out = b.untraced(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// childUnit is one run as a child process executes it: profiled when asked.
func childUnit(w workload, seed int64, workers int, profile string) (unit, error) {
	if profile == "" {
		return runUnit(w, seed, workers)
	}
	f, err := os.Create(profile)
	if err != nil {
		return unit{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return unit{}, err
	}
	u, err := runUnit(w, seed, workers)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return u, err
}

// subprocess runs each unit in a child process of this executable and
// reads its CPU time and peak resident memory from the child's resource
// usage. A child still running at end, the invocation's deadline, is
// killed.
func subprocess(end time.Time) runFunc {
	return func(w workload, seed int64, workers int, profile string) (unit, error) {
		exe, err := os.Executable()
		if err != nil {
			return unit{}, err
		}
		ctx, cancel := context.WithDeadline(context.Background(), end)
		defer cancel()
		args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-workers", strconv.Itoa(workers), "-cpuprofile", profile}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(simWorkers))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return unit{}, fmt.Errorf("run of %s: %w", w.name, err)
		}
		var u unit
		if err := json.Unmarshal(out, &u); err != nil {
			return unit{}, fmt.Errorf("run of %s: %w", w.name, err)
		}
		u.CPU = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			u.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
		return u, nil
	}
}

// bench measures one workload at one seed.
type bench struct {
	w      workload
	seed   int64
	root   string
	outDir string
	run    runFunc
}

// untraced runs the workload back to back for budget and reports the
// median of each end-to-end metric. Another run starts only while it is
// expected to end within the budget; there is always at least one.
func (b bench) untraced(budget time.Duration) output {
	c := checker{w: b.w, seed: b.seed, root: b.root}
	out := output{}
	var wall, cpu, rss, setup []float64
	start := time.Now()
	for {
		out.Attempted++
		u, err := b.run(b.w, b.seed, simWorkers, "")
		if err == nil {
			err = c.check(u)
		}
		if err != nil {
			out.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d run %d failed: %v\n", b.w.name, b.seed, out.Attempted, err)
		} else {
			wall = append(wall, u.Wall.Seconds())
			cpu = append(cpu, u.CPU.Seconds())
			rss = append(rss, u.MaxRSSMB)
			for _, s := range u.Setup {
				setup = append(setup, s.Seconds())
			}
		}
		elapsed := time.Since(start)
		perRun := elapsed / time.Duration(out.Attempted)
		if elapsed+perRun > budget {
			break
		}
	}
	out.Correct = out.Failed == 0
	out.Metrics = metrics(endToEnd, map[string]float64{
		"wall_s":     median(wall),
		"cpu_s":      median(cpu),
		"max_rss_mb": median(rss),
		"setup_s":    median(setup),
	})
	return out
}

// metrics pairs each defined metric with its value and unit.
func metrics(defs []metricDef, values map[string]float64) map[string]metric {
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		m[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return m
}

// spansPath is where a traced run writes its spans.
func (b bench) spansPath() string {
	return filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.seed))
}
