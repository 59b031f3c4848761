// bench_test.go holds the ablation benchmarks for the design choices
// DESIGN.md calls out, plus the §6 inter-zone query. Each ablation reports
// its headline numbers (µJ/packet, ms of delay, delivery rate) as custom
// metrics, so the benchmark log doubles as a results table. The figures
// themselves are timed by perfbench's figures-quick workload, and the
// per-layer micro-benchmarks live next to their layer (internal/sim,
// internal/topo, internal/routing).
package repro

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dissem"
	"repro/internal/experiment"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
)

// runSweep executes scenarios through the same parallel sweep engine the
// figure runners use and returns results in point order.
func runSweep(b *testing.B, points ...experiment.Scenario) []experiment.Result {
	b.Helper()
	res, err := (experiment.Sweep{Points: points}).Execute()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// ablationScenario is the shared configuration for the design-choice
// ablations: mid-size field, failure injection on, so recovery paths run.
func ablationScenario() experiment.Scenario {
	return experiment.Scenario{
		Protocol:       experiment.SPMS,
		Workload:       experiment.AllToAll,
		Nodes:          49,
		ZoneRadius:     20,
		PacketsPerNode: 2,
		Failures:       true,
		Seed:           1,
		Drain:          2 * time.Second,
	}
}

// BenchmarkAblationRelayADV compares SPMS with and without relay
// re-advertisement (DESIGN.md §5.3): disabling it removes PRONE promotion
// and slows zone crossing.
func BenchmarkAblationRelayADV(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "on"
		if disabled {
			name = "off"
		}
		b.Run("relayADV="+name, func(b *testing.B) {
			var res experiment.Result
			for i := 0; i < b.N; i++ {
				sc := ablationScenario()
				cfg := core.DefaultConfig()
				cfg.DisableRelayADV = disabled
				sc.SPMSConfig = cfg
				res = runSweep(b, sc)[0]
			}
			b.ReportMetric(res.EnergyPerPacket, "uJ_per_pkt")
			b.ReportMetric(float64(res.MeanDelay)/1e6, "ms_delay")
			b.ReportMetric(res.DeliveryRate, "delivery_rate")
		})
	}
}

// BenchmarkAblationRouteAlternatives sweeps the routing-table depth k
// (DESIGN.md §5.2: the paper keeps the shortest and second-shortest path).
func BenchmarkAblationRouteAlternatives(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		b.Run("k="+string(rune('0'+k)), func(b *testing.B) {
			var res experiment.Result
			for i := 0; i < b.N; i++ {
				sc := ablationScenario()
				sc.RouteAlternatives = k
				res = runSweep(b, sc)[0]
			}
			b.ReportMetric(res.EnergyPerPacket, "uJ_per_pkt")
			b.ReportMetric(res.DeliveryRate, "delivery_rate")
		})
	}
}

// BenchmarkAblationServeFromCache evaluates the paper's future-work idea:
// relays answering REQs from their cache instead of forwarding upstream.
func BenchmarkAblationServeFromCache(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run("cache="+name, func(b *testing.B) {
			var res experiment.Result
			for i := 0; i < b.N; i++ {
				sc := ablationScenario()
				cfg := core.DefaultConfig()
				cfg.ServeFromCache = on
				sc.SPMSConfig = cfg
				res = runSweep(b, sc)[0]
			}
			b.ReportMetric(res.EnergyPerPacket, "uJ_per_pkt")
			b.ReportMetric(float64(res.MeanDelay)/1e6, "ms_delay")
		})
	}
}

// BenchmarkAblationCarrierSense turns on shared-channel serialization
// (DESIGN.md: the simulation default models contention as per-transmission
// delay; carrier sense shows what saturation does to SPIN-style max-power
// traffic). Uses a deliberately small workload — a serializing channel
// saturates under the paper's full traffic.
func BenchmarkAblationCarrierSense(b *testing.B) {
	for _, cs := range []bool{false, true} {
		name := "off"
		if cs {
			name = "on"
		}
		b.Run("carrier="+name, func(b *testing.B) {
			var spmsDelay, spinDelay float64
			for i := 0; i < b.N; i++ {
				spmsSC := experiment.Scenario{
					Protocol:       experiment.SPMS,
					Workload:       experiment.AllToAll,
					Nodes:          25,
					ZoneRadius:     20,
					PacketsPerNode: 1,
					CarrierSense:   cs,
					Seed:           1,
					Drain:          20 * time.Second,
				}
				spinSC := spmsSC
				spinSC.Protocol = experiment.SPIN
				res := runSweep(b, spmsSC, spinSC)
				spmsDelay = float64(res[0].MeanDelay) / 1e6
				spinDelay = float64(res[1].MeanDelay) / 1e6
			}
			b.ReportMetric(spmsDelay, "spms_ms")
			b.ReportMetric(spinDelay, "spin_ms")
		})
	}
}

// BenchmarkInterZoneQuery measures the §6 extension: a cross-zone
// bordercast pull on a 12-node strip where plain SPMS starves the sink.
func BenchmarkInterZoneQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := radio.ScaledMICA2(12)
		if err != nil {
			b.Fatal(err)
		}
		f, err := topo.NewChainField(12, 5, m)
		if err != nil {
			b.Fatal(err)
		}
		sched := sim.NewScheduler()
		nw, err := network.New(sched, f, sim.NewRNG(1), network.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		ledger := dissem.NewLedger()
		sink := packet.NodeID(11)
		interest := func(id packet.NodeID, d packet.DataID) bool { return id == sink }
		tables := routing.Compute(routing.BuildGraph(f), routing.DefaultAlternatives)
		sys, err := core.NewSystem(nw, ledger, interest, tables, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		d := packet.DataID{Origin: 0, Seq: 0}
		if err := sys.Originate(0, d); err != nil {
			b.Fatal(err)
		}
		if err := sched.Run(300 * time.Millisecond); err != nil {
			b.Fatal(err)
		}
		if err := sys.Query(sink, d); err != nil {
			b.Fatal(err)
		}
		if err := sched.Run(3 * time.Second); err != nil {
			b.Fatal(err)
		}
		if !sys.Has(sink, d) {
			b.Fatal("query failed")
		}
	}
}
