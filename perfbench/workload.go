package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// defaultSeed is the seed whose outputs are stored with the benchmark: a
// single-sim Result must equal expected/<workload>.json, and figures-quick
// must equal testdata/golden/figures-quick.txt.
const defaultSeed = 1

// workload is one input the benchmark runs. Exactly one of scenario and
// quality is used: a single simulation, or the whole figure report.
type workload struct {
	name     string
	scenario experiment.Scenario
	figures  bool
	quality  experiment.Quality
	// lossless marks a failure-free workload: every run delivers 100%.
	lossless bool
	// expected holds the Result at defaultSeed (single-sim workloads).
	expected *experiment.Result
	// golden is the report path at defaultSeed (figure workloads),
	// relative to the repository root.
	golden string
}

// microField sizes the layer micro-rows: the workload's own field, or the
// largest field the figure report simulates, its most nodes at its widest
// radius.
func (w workload) microField() (nodes int, radius float64) {
	if w.figures {
		return slices.Max(w.quality.NodeCounts), slices.Max(w.quality.Radii)
	}
	return w.scenario.Nodes, w.scenario.ZoneRadius
}

//go:embed expected/*.json
var expectedFS embed.FS

func spmsScenario(nodes, packets int) experiment.Scenario {
	return experiment.Scenario{
		Protocol:       experiment.SPMS,
		Workload:       experiment.AllToAll,
		Nodes:          nodes,
		GridSpacing:    experiment.DefaultGridSpacing,
		ZoneRadius:     20,
		PacketsPerNode: packets,
	}
}

// workloads returns the benchmark's workloads in the order BENCHMARK.json
// lists them.
func workloads() ([]workload, error) {
	dbf := spmsScenario(1024, 1)
	dbf.Sources = 1
	faulty := spmsScenario(169, 10)
	faulty.Failures = true
	faulty.Mobility = true
	ws := []workload{
		{name: "spms-400", scenario: spmsScenario(400, 2), lossless: true},
		{name: "spms-1024-dbf", scenario: dbf, lossless: true},
		{name: "spms-169-faults-mobility", scenario: faulty},
		{name: "figures-quick", figures: true, quality: experiment.Quick(),
			golden: "testdata/golden/figures-quick.txt"},
	}
	for i := range ws {
		w := &ws[i]
		if w.figures {
			continue
		}
		b, err := expectedFS.ReadFile("expected/" + w.name + ".json")
		if err != nil {
			return nil, err
		}
		var res experiment.Result
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, fmt.Errorf("expected/%s.json: %w", w.name, err)
		}
		w.expected = &res
	}
	return ws, nil
}

func findWorkload(name string) (workload, error) {
	ws, err := workloads()
	if err != nil {
		return workload{}, err
	}
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// unit is what one run of a workload measured and produced. The child
// process fills everything but CPU and MaxRSS, which the parent reads from
// the child's resource usage.
type unit struct {
	Result   experiment.Result `json:"result"`
	Report   string            `json:"report,omitempty"`
	Wall     time.Duration     `json:"wallNs"`
	Setup    []time.Duration   `json:"setupNs"`
	Stats    obs.RunStats      `json:"stats"`
	Figures  []time.Duration   `json:"figureNs,omitempty"`
	Points   int               `json:"points"` // simulations, or figure table cells
	AllocMB  float64           `json:"allocMB"`
	GCCycles uint32            `json:"gcCycles"`
	CPU      time.Duration     `json:"cpuNs"`
	MaxRSSMB float64           `json:"maxRSSMB"`
}

// figureSetupReps is how often a figure run times its serial set-up; the
// reported set-up time is the median.
const figureSetupReps = 21

// runUnit executes one run of w in this process. workers is SimWorkers for
// a single simulation and the sweep pool size for the figure report.
func runUnit(w workload, seed int64, workers int) (unit, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var u unit
	var err error
	if w.figures {
		err = runFigures(&u, w.quality, seed, workers)
	} else {
		sc := w.scenario
		sc.Seed = seed
		o := &obs.RunObserver{}
		t0 := time.Now()
		u.Result, err = experiment.RunWith(sc, experiment.RunConfig{SimWorkers: workers, Obs: o})
		u.Wall = time.Since(t0)
		u.Points = 1
		u.Stats = o.Stats()
		// Wall ends at the event loop's end, so what precedes the loop is
		// field build, initial DBF and protocol construction.
		u.Setup = []time.Duration{u.Stats.Wall - u.Stats.EventLoop}
	}
	runtime.ReadMemStats(&after)
	u.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	u.GCCycles = after.NumGC - before.NumGC
	return u, err
}

// runFigures renders exactly the text `figures -quick` prints. Its set-up
// is the serial work before the sweep pool starts: Table 1, the analytic
// figures and the runner.
func runFigures(u *unit, q experiment.Quality, seed int64, workers int) error {
	q.Seed = seed
	var b strings.Builder
	t0 := time.Now()
	runner := figureSetup(&b, q, workers)
	u.Setup = append(u.Setup, time.Since(t0))
	figs := []func() (experiment.Table, error){
		runner.Figure6, runner.Figure7, runner.Figure8, runner.Figure9,
		runner.Figure10, runner.Figure11, runner.Figure12, runner.Figure13,
	}
	for _, fig := range figs {
		f0 := time.Now()
		tbl, err := fig()
		u.Figures = append(u.Figures, time.Since(f0))
		if err != nil {
			return err
		}
		b.WriteString(tbl.Format() + "\n")
		u.Points += len(tbl.Rows) * len(tbl.Columns)
	}
	breakEven, dbf, err := runner.MobilityThreshold()
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "## §5.1.3 — Mobility break-even\n"+
		"DBF re-convergence energy per mobility event: %.2f µJ\n"+
		"Packets needed between mobility events for SPMS to win: %.2f (paper: 239.18)\n\n", dbf, breakEven)
	u.Wall = time.Since(t0)
	u.Report = b.String()
	for len(u.Setup) < figureSetupReps {
		var scratch strings.Builder
		t := time.Now()
		figureSetup(&scratch, q, workers)
		u.Setup = append(u.Setup, time.Since(t))
	}
	return nil
}

func figureSetup(b *strings.Builder, q experiment.Quality, workers int) *experiment.Runner {
	b.WriteString(experiment.Table1() + "\n")
	b.WriteString(experiment.Figure3().Format() + "\n")
	b.WriteString(experiment.Figure5().Format() + "\n")
	return experiment.NewRunnerWorkers(q, workers)
}

// checker validates the output of every run of one workload at one seed.
// The first accepted run becomes the reference later runs must repeat.
type checker struct {
	w    workload
	seed int64
	root string // repository root, for golden files
	ref  *unit
}

// check reports why u is not a correct output, or nil.
func (c *checker) check(u unit) error {
	if err := c.checkOne(u); err != nil {
		return err
	}
	if c.ref == nil {
		c.ref = &u
		return nil
	}
	if u.Result != c.ref.Result || u.Report != c.ref.Report {
		return errors.New("output differs from the first run at the same seed")
	}
	return nil
}

func (c *checker) checkOne(u unit) error {
	if c.w.figures {
		if !strings.Contains(u.Report, "## §5.1.3 — Mobility break-even") {
			return errors.New("figure report is incomplete")
		}
		if c.seed != defaultSeed {
			return nil
		}
		want, err := os.ReadFile(filepath.Join(c.root, c.w.golden))
		if err != nil {
			return err
		}
		if u.Report != string(want) {
			return fmt.Errorf("report differs from %s", c.w.golden)
		}
		return nil
	}
	r := u.Result
	if r.Items == 0 || r.Expected == 0 {
		return errors.New("run originated nothing")
	}
	if r.Deliveries > r.Expected {
		return fmt.Errorf("deliveries %d exceed expected %d", r.Deliveries, r.Expected)
	}
	if c.w.lossless && r.Deliveries != r.Expected {
		return fmt.Errorf("failure-free run delivered %d of %d", r.Deliveries, r.Expected)
	}
	if c.seed == defaultSeed && c.w.expected != nil && r != *c.w.expected {
		return fmt.Errorf("result differs from expected/%s.json", c.w.name)
	}
	return nil
}

// median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
