// example_test.go holds the paper's walk-through scenarios as runnable
// examples: `go test -run Example .` executes each one and compares its
// trace, line for line, with the output recorded below it. Every run is a
// seeded discrete-event simulation, so the traces are deterministic.
package repro_test

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dissem"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Example_quickstart is the smallest complete SPMS run — the paper's §3.3
// three-node example. Node A senses a data item; B and C negotiate for it;
// C receives it from B over the cheap two-hop path instead of pulling it
// from A directly.
func Example_quickstart() {
	if err := quickstart(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// routing converged in 3 rounds (8 vector broadcasts)
	// shortest path A→C: A → B → C (cost 0.0250 mW-sum)
	//
	//   t=0s           ADV(d0.0) 0->-1 [req=0 prov=0 lvl=1 2B]
	//   t=710µs        REQ(d0.0) 1->0 [req=1 prov=0 lvl=5 2B]
	//   t=1.62ms       DATA(d0.0) 0->1 [req=1 prov=0 lvl=5 40B]
	//   t=1.71ms       REQ(d0.0) 2->1 [req=2 prov=0 lvl=5 2B]
	//   t=2.87ms       REQ(d0.0) 1->0 [req=2 prov=0 lvl=5 2B]
	//   t=3.38ms       DATA(d0.0) 0->1 [req=2 prov=0 lvl=5 40B]
	//   t=4.48ms       ADV(d0.0) 1->-1 [req=0 prov=0 lvl=1 2B]
	//   t=5.94ms       DATA(d0.0) 1->2 [req=2 prov=0 lvl=5 40B]
	//   t=9.65ms       ADV(d0.0) 2->-1 [req=0 prov=0 lvl=1 2B]
	//
	// deliveries: 2/2, mean end-to-end delay 7.065ms
	// node A energy: tx=0.36622 µJ rx=0.00500 µJ
	// node B energy: tx=0.34372 µJ rx=0.05375 µJ
	// node C energy: tx=0.31747 µJ rx=0.02750 µJ
}

func quickstart() error {
	// Three nodes on a line, 5 m apart, with the MICA2 radio: every node is
	// in every other's zone, and two minimum-power hops (2 × 0.0125 mW) are
	// cheaper than one direct level-4 transmission (0.05 mW).
	field, err := topo.NewChainField(3, 5, radio.MICA2())
	if err != nil {
		return err
	}

	sched := sim.NewScheduler()
	nw, err := network.New(sched, field, sim.NewRNG(42), network.DefaultConfig())
	if err != nil {
		return err
	}

	// Routing: one Distributed Bellman-Ford execution over the zone.
	tables := routing.Compute(routing.BuildGraph(field), routing.DefaultAlternatives)
	cost, _ := tables.Cost(0, 2)
	fmt.Printf("routing converged in %d rounds (%d vector broadcasts)\n",
		tables.Rounds(), tables.Broadcasts())
	fmt.Printf("shortest path A→C: %v (cost %.4f mW-sum)\n\n", pathString(tables, 0, 2), cost)

	// The protocol: everyone wants everything (all-to-all interest).
	ledger := dissem.NewLedger()
	sys, err := core.NewSystem(nw, ledger, dissem.Everyone, tables, core.DefaultConfig())
	if err != nil {
		return err
	}

	// Trace the three-way handshake as it happens.
	nw.SetTrace(func(ev network.TraceEvent) {
		if ev.Kind == network.TraceTx {
			fmt.Printf("  t=%-12v %s\n", sched.Now(), ev.Packet)
		}
	})

	// Node A (id 0) senses a new data item and advertises it.
	data := packet.DataID{Origin: 0, Seq: 0}
	if err := sys.Originate(0, data); err != nil {
		return err
	}
	if err := sched.Run(200 * time.Millisecond); err != nil {
		return err
	}

	fmt.Printf("\ndeliveries: %d/%d, mean end-to-end delay %v\n",
		ledger.Deliveries(), 2, ledger.Delays().Mean())
	for id := packet.NodeID(0); id < 3; id++ {
		breakdown := nw.Energy().Node(id)
		fmt.Printf("node %c energy: tx=%.5f µJ rx=%.5f µJ\n",
			'A'+rune(id), float64(breakdown.Tx), float64(breakdown.Rx))
	}
	return nil
}

// pathString renders a routed path with the quickstart's letter names.
func pathString(t *routing.Tables, src, dst packet.NodeID) string {
	s := ""
	for i, id := range t.Path(src, dst) {
		if i > 0 {
			s += " → "
		}
		s += string('A' + rune(id))
	}
	return s
}

// Example_failover traces the paper's §3.5 fault-tolerance story. Four
// nodes in a line — A (the source), relays r1 and r2, and destination C.
// The relay r2 is killed the moment it advertises A's data, exactly the
// paper's "Case 2": C has promoted r2 to PRONE (with r1 as SCONE), so its
// direct request dies, τDAT expires, and C falls over to the SCONE —
// recovering the data without any global failure detection.
func Example_failover() {
	if err := failover(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// §3.5 Case 2: r2 fails after advertising; C falls over to its SCONE.
	//
	//   t=0s           ADV  A→* (level 1)
	//   t=1.08ms       REQ  r1→A (level 5)
	//                          C's PRONE=A SCONE=A
	//   t=1.59ms       DATA A→r1 (level 5)
	//   t=4.45ms       ADV  r1→* (level 1)
	//   t=4.93ms       REQ  r2→r1 (level 5)
	//                          C's PRONE=r1 SCONE=A
	//   t=5.34ms       DATA r1→r2 (level 5)
	//   t=8.15ms       ADV  r2→* (level 1)
	//   t=9.21ms       *** r2 FAILS (just after advertising) ***
	//   t=9.23ms       REQ  C→r2 (level 5)
	//                          C's PRONE=r2 SCONE=r1
	//   t=10.37ms      DROP at r2: receiver down
	//   t=18ms         REQ  C→r1 (level 4)
	//   t=19.71ms      DATA r1→C (level 4)
	//   t=22.59ms      ADV  C→* (level 1)
	//   t=23.35ms      DROP at r2: receiver down
	//
	// C recovered the data; failovers=1, timeouts=1, deliveries=3
}

func failover() error {
	names := map[packet.NodeID]string{0: "A", 1: "r1", 2: "r2", 3: "C", packet.Broadcast: "*"}
	field, err := topo.NewChainField(4, 5, radio.MICA2())
	if err != nil {
		return err
	}
	sched := sim.NewScheduler()
	nw, err := network.New(sched, field, sim.NewRNG(6), network.DefaultConfig())
	if err != nil {
		return err
	}
	tables := routing.Compute(routing.BuildGraph(field), routing.DefaultAlternatives)
	ledger := dissem.NewLedger()

	// A patient τADV so the example follows the paper's narrative: C hears
	// the relays re-advertise before its timer expires.
	cfg := core.DefaultConfig()
	cfg.TOutADV = 30 * time.Millisecond
	sys, err := core.NewSystem(nw, ledger, dissem.Everyone, tables, cfg)
	if err != nil {
		return err
	}

	data := packet.DataID{Origin: 0, Seq: 0}
	killed := false
	lastState := ""
	nw.SetTrace(func(ev network.TraceEvent) {
		now := sched.Now().Round(10 * time.Microsecond)
		switch ev.Kind {
		case network.TraceTx:
			p := ev.Packet
			fmt.Printf("  t=%-12v %-4s %s→%s (level %d)\n", now, p.Kind, names[p.Src], names[p.Dst], p.Level)
		case network.TraceDrop:
			fmt.Printf("  t=%-12v DROP at %s: %s\n", now, names[ev.Node], ev.Reason)
		case network.TraceDeliver:
			if ev.Packet.Kind == packet.ADV && ev.Packet.Src == 2 && !killed {
				killed = true
				nw.Fail(2)
				fmt.Printf("  t=%-12v *** r2 FAILS (just after advertising) ***\n", now)
			}
		}
		// Report C's PRONE/SCONE whenever it changes.
		if prone, scone, ok := sys.Prone(3, data); ok {
			state := fmt.Sprintf("C's PRONE=%s SCONE=%s", names[prone], names[scone])
			if state != lastState {
				lastState = state
				fmt.Printf("%24s %s\n", "", state)
			}
		}
	})

	fmt.Println("§3.5 Case 2: r2 fails after advertising; C falls over to its SCONE.")
	fmt.Println()
	if err := sys.Originate(0, data); err != nil {
		return err
	}
	if err := sched.Run(2 * time.Second); err != nil {
		return err
	}

	fmt.Println()
	if !sys.Has(3, data) {
		return fmt.Errorf("C never received the data")
	}
	fmt.Printf("C recovered the data; failovers=%d, timeouts=%d, deliveries=%d\n",
		nw.Counters().Failovers, nw.Counters().Timeouts, ledger.Deliveries())
	return nil
}

// Example_interzone runs the paper's §6 future-work extension. A long
// chain of nodes where only the far end wants the source's data and
// nothing in between is interested: plain SPMS leaves the far end starved,
// because advertisements only reach one zone and no relay ever pulls the
// data. System.Query bordercasts a zone-routing query (ZRP-style) across
// zones; the first node holding the data replies with a source-routed DATA
// along the query's trail.
func Example_interzone() {
	if err := interzone(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// after plain SPMS dissemination: sink has data? false (starved — §6 motivation)
	//
	// sink issues an inter-zone query:
	//   t=300ms      QRY  11→9  trail=[11]
	//   t=300ms      QRY  11→10 trail=[11]
	//   t=301.36ms   QRY   9→7  trail=[11 9]
	//   t=301.36ms   QRY   9→8  trail=[11 9]
	//   t=301.36ms   QRY   9→10 trail=[11 9]
	//   t=301.51ms   QRY  10→8  trail=[11 10]
	//   t=301.51ms   QRY  10→9  trail=[11 10]
	//   t=302.79ms   QRY   8→6  trail=[11 10 8]
	//   t=302.79ms   QRY   8→7  trail=[11 10 8]
	//   t=302.79ms   QRY   8→9  trail=[11 10 8]
	//   t=303.43ms   QRY   7→5  trail=[11 9 7]
	//   t=303.43ms   QRY   7→6  trail=[11 9 7]
	//   t=303.43ms   QRY   7→8  trail=[11 9 7]
	//   t=303.71ms   QRY   6→4  trail=[11 10 8 6]
	//   t=303.71ms   QRY   6→5  trail=[11 10 8 6]
	//   t=303.71ms   QRY   6→7  trail=[11 10 8 6]
	//   t=304.85ms   QRY   5→3  trail=[11 9 7 5]
	//   t=304.85ms   QRY   5→4  trail=[11 9 7 5]
	//   t=304.85ms   QRY   5→6  trail=[11 9 7 5]
	//   t=304.88ms   QRY   4→2  trail=[11 10 8 6 4]
	//   t=304.88ms   QRY   4→3  trail=[11 10 8 6 4]
	//   t=304.88ms   QRY   4→5  trail=[11 10 8 6 4]
	//   t=305.8ms    QRY   2→0  trail=[11 10 8 6 4 2]
	//   t=305.8ms    QRY   2→1  trail=[11 10 8 6 4 2]
	//   t=305.8ms    QRY   2→3  trail=[11 10 8 6 4 2]
	//   t=306.34ms   QRY   3→1  trail=[11 10 8 6 4 3]
	//   t=306.34ms   QRY   3→5  trail=[11 10 8 6 4 3]
	//   t=306.34ms   QRY   3→2  trail=[11 10 8 6 4 3]
	//   t=307.51ms   QRY   1→3  trail=[11 10 8 6 4 2 1]
	//   t=307.51ms   QRY   1→0  trail=[11 10 8 6 4 2 1]
	//   t=307.87ms   DATA  0→2  (source-routed remainder [4 6 8 10 11])
	//   t=311.28ms   DATA  2→4  (source-routed remainder [6 8 10 11])
	//   t=314.75ms   DATA  4→6  (source-routed remainder [8 10 11])
	//   t=317.22ms   DATA  6→8  (source-routed remainder [10 11])
	//   t=320.69ms   DATA  8→10 (source-routed remainder [11])
	//   t=324.16ms   DATA 10→11 (source-routed remainder [])
	//   t=325.4ms    DATA 10→11 (source-routed remainder [])
	//
	// sink has data? true  (QRY frames sent: 30, total energy 0.044 µJ)
}

func interzone() error {
	// A 12-node chain, 5 m apart, 12 m zones: each node sees only ±2
	// neighbors, so the ends are ~5 zones apart.
	m, err := radio.ScaledMICA2(12)
	if err != nil {
		return err
	}
	field, err := topo.NewChainField(12, 5, m)
	if err != nil {
		return err
	}
	sched := sim.NewScheduler()
	nw, err := network.New(sched, field, sim.NewRNG(11), network.DefaultConfig())
	if err != nil {
		return err
	}
	tables := routing.Compute(routing.BuildGraph(field), routing.DefaultAlternatives)
	ledger := dissem.NewLedger()

	sink := packet.NodeID(11)
	interest := func(id packet.NodeID, d packet.DataID) bool { return id == sink }
	sys, err := core.NewSystem(nw, ledger, interest, tables, core.DefaultConfig())
	if err != nil {
		return err
	}

	nw.SetTrace(func(ev network.TraceEvent) {
		if ev.Kind != network.TraceTx {
			return
		}
		p := ev.Packet
		now := sched.Now().Round(10 * time.Microsecond)
		switch p.Kind {
		case packet.QRY:
			fmt.Printf("  t=%-10v QRY  %2d→%-2d trail=%v\n", now, p.Src, p.Dst, p.Trail)
		case packet.DATA:
			fmt.Printf("  t=%-10v DATA %2d→%-2d (source-routed remainder %v)\n", now, p.Src, p.Dst, p.Trail)
		}
	})

	data := packet.DataID{Origin: 0, Seq: 0}
	if err := sys.Originate(0, data); err != nil {
		return err
	}
	if err := sched.Run(300 * time.Millisecond); err != nil {
		return err
	}
	fmt.Printf("after plain SPMS dissemination: sink has data? %v (starved — §6 motivation)\n\n", sys.Has(sink, data))

	fmt.Println("sink issues an inter-zone query:")
	if err := sys.Query(sink, data); err != nil {
		return err
	}
	if err := sched.Run(2 * time.Second); err != nil {
		return err
	}

	fmt.Printf("\nsink has data? %v  (QRY frames sent: %d, total energy %.3f µJ)\n",
		sys.Has(sink, data), nw.Counters().Sent[packet.QRY], float64(nw.Energy().Total()))
	return nil
}
