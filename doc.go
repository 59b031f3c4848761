// Package repro is a from-scratch Go reproduction of "Fault Tolerant
// Energy Aware Data Dissemination Protocol in Sensor Networks" (Khanna,
// Bagchi, Wu — DSN 2004): the SPMS protocol, its SPIN and flooding
// baselines, the discrete-event sensor-network simulator they run on, and
// a harness that regenerates every table and figure of the paper's
// evaluation.
//
// Start with README.md for a tour; DESIGN.md maps the paper's systems to
// packages and states the concurrency contract (single-threaded schedulers,
// parallel sweeps). The root package holds only tests: the golden-output
// corpus (golden_test.go), the paper's walk-through scenarios as runnable
// examples (example_test.go), and the design-choice ablation benchmarks
// (bench_test.go).
package repro
