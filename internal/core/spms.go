// Package core implements SPMS (Shortest Path Minded SPIN), the paper's
// contribution: a fault-tolerant, energy-aware data dissemination protocol
// for sensor networks.
//
// SPMS keeps SPIN's metadata negotiation (ADV → REQ → DATA) but routes the
// REQ and DATA legs along minimum-energy multi-hop paths computed by the
// intra-zone Distributed Bellman-Ford of internal/routing, transmitting
// each hop at the lowest sufficient power level. Failure tolerance comes
// from two mechanisms (§3.4):
//
//   - Every destination tracks a Primary Originator Node (PRONE) and a
//     Secondary Originator Node (SCONE). Both start as the advertising
//     node; when a closer node advertises the same data, it becomes the
//     PRONE and the previous PRONE becomes the SCONE.
//   - Two timers drive recovery. τADV (TOutADV) bounds the wait for a relay
//     to advertise data that would otherwise need a multi-hop request.
//     τDAT (TOutDAT) bounds the wait for requested data; on expiry the
//     request fails over — first retrying the PRONE directly at a higher
//     power level (guaranteed reachable, they are zone neighbors), then
//     falling back to the SCONE.
//
// Every node that acquires a data item — destination or relay — caches it
// and advertises it once in its zone, which is what makes closer PRONEs
// appear and lets the network tolerate source failure after any neighbor
// has the data.
package core

import (
	"fmt"
	"time"

	"repro/internal/dissem"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/sim"
)

// Default timer values from Table 1.
const (
	DefaultTOutADV = time.Millisecond
	DefaultTOutDAT = 2500 * time.Microsecond
	DefaultProc    = 20 * time.Microsecond
)

// DefaultMaxAttempts bounds the REQ failover chain. With two routing
// entries per destination the paper tolerates one concurrent failure; the
// chain multi-hop → direct-PRONE → SCONE → direct-SCONE uses four.
const DefaultMaxAttempts = 4

// Config parameterizes SPMS.
type Config struct {
	// TOutADV is the base τADV timeout (Table 1: 1.0 ms).
	TOutADV time.Duration
	// TOutDAT is the base τDAT timeout (Table 1: 2.5 ms).
	TOutDAT time.Duration
	// Proc is the per-packet processing delay (Table 1: 0.02 ms).
	Proc time.Duration
	// AutoTimeouts, when true, stretches the base τDAT by the expected
	// multi-hop round-trip time derived from the radio and MAC models, so
	// that a k-hop request is not declared lost before its data could
	// possibly return (§4.1.2's "TOutDAT, which counts all the delays
	// occurred at B"). τADV is never stretched: the paper runs it at a
	// tight 1 ms, which makes distant nodes pull data through cheap
	// low-power multi-hop requests instead of idling for relay
	// advertisements — that early pull is where SPMS's delay win over SPIN
	// comes from. When false both base values are used verbatim.
	AutoTimeouts bool
	// MaxAttempts bounds how many REQ attempts (including failovers) a node
	// makes per data item. Zero means DefaultMaxAttempts.
	MaxAttempts int
	// ServeFromCache lets a relay holding a cached copy answer a REQ that
	// is addressed further upstream. The paper leaves this as future work
	// ("we are also investigating the issue of data caching at intermediate
	// nodes"); it is off by default and exists for the ablation benchmark.
	ServeFromCache bool
	// DisableRelayADV suppresses the re-advertisement of relayed data,
	// for the ablation benchmark only. The protocol proper requires relay
	// advertisement (§3.2).
	DisableRelayADV bool
	// QueryHorizon bounds how many zones an inter-zone query (§6 extension,
	// System.Query) may cross. Zero means DefaultQueryHorizon.
	QueryHorizon int
	// BorderFanout is how many border nodes each bordercast step forwards
	// to. Zero means DefaultBorderFanout.
	BorderFanout int
}

// DefaultConfig returns Table 1 timers with model-derived stretching on.
func DefaultConfig() Config {
	return Config{
		TOutADV:      DefaultTOutADV,
		TOutDAT:      DefaultTOutDAT,
		Proc:         DefaultProc,
		AutoTimeouts: true,
		MaxAttempts:  DefaultMaxAttempts,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TOutADV <= 0 {
		return fmt.Errorf("core: non-positive TOutADV %v", c.TOutADV)
	}
	if c.TOutDAT <= 0 {
		return fmt.Errorf("core: non-positive TOutDAT %v", c.TOutDAT)
	}
	if c.Proc < 0 {
		return fmt.Errorf("core: negative processing delay %v", c.Proc)
	}
	if c.MaxAttempts < 0 {
		return fmt.Errorf("core: negative MaxAttempts %d", c.MaxAttempts)
	}
	if c.QueryHorizon < 0 {
		return fmt.Errorf("core: negative QueryHorizon %d", c.QueryHorizon)
	}
	if c.BorderFanout < 0 {
		return fmt.Errorf("core: negative BorderFanout %d", c.BorderFanout)
	}
	return nil
}

// System is one SPMS network: the per-node protocol instances, the shared
// routing tables, and derived timeout parameters.
type System struct {
	nw       *network.Network
	ledger   *dissem.Ledger
	interest dissem.Interest
	cfg      Config
	tables   *routing.Tables
	nodes    []node

	// rows holds the per-(item, node) protocol state item-major: rows[it]
	// is item it's row, one cell per node, allocated when the item first
	// resolves. An ADV's ~40 receivers are zone neighbors with nearby ids,
	// so their cells share cache lines.
	rows [][]cell

	// acqs pools the acquisitions the cells index, recycled through
	// acqFree. τADV and τDAT are armed with AtArg through the two handlers
	// bound once here, the acquisition index as the argument, so arming
	// allocates nothing.
	acqs     []acquisition
	acqFree  []int32
	tauADVFn sim.ArgHandler
	tauDATFn sim.ArgHandler

	// Derived expected per-hop REQ+DATA round trip for AutoTimeouts.
	hopRTT time.Duration
}

// cell is one node's state for one item: whether it holds and has
// advertised the item, and its acquisition (index+1 into System.acqs, 0
// for none).
type cell struct {
	acq   int32
	flags uint8
}

// cell flags.
const (
	held uint8 = 1 << iota
	advertised
)

var _ dissem.Protocol = (*System)(nil)

// NewSystem builds the protocol instances and binds them to the network.
// tables must be the converged routing state for the network's field.
func NewSystem(nw *network.Network, ledger *dissem.Ledger, interest dissem.Interest,
	tables *routing.Tables, cfg Config) (*System, error) {
	if nw == nil || ledger == nil || interest == nil || tables == nil {
		return nil, fmt.Errorf("core: nil dependency (nw=%v ledger=%v interest=%v tables=%v)",
			nw != nil, ledger != nil, interest != nil, tables != nil)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.QueryHorizon == 0 {
		cfg.QueryHorizon = DefaultQueryHorizon
	}
	if cfg.BorderFanout == 0 {
		cfg.BorderFanout = DefaultBorderFanout
	}
	s := &System{nw: nw, ledger: ledger, interest: interest, cfg: cfg, tables: tables}
	s.tauADVFn = s.onTauADV
	s.tauDATFn = s.onTauDAT
	s.deriveTimeouts()
	nw.DeferProcessing(cfg.Proc)
	// Nodes live in one contiguous slice (allocated once, never grown), so
	// per-node state is a flat array walk rather than a pointer chase.
	s.nodes = make([]node, nw.N())
	for i := range s.nodes {
		n := &s.nodes[i]
		n.sys = s
		n.id = packet.NodeID(i)
		nw.Bind(n.id, n)
	}
	return s, nil
}

// deriveTimeouts estimates the expected per-hop REQ+DATA round trip from
// the field: the mean contender count at minimum power (the paper's ns)
// gives the expected CSMA access delay via the same G·n² law the MAC uses.
func (s *System) deriveTimeouts() {
	f := s.nw.Field()
	m := f.Model()
	var sumNs float64
	for i := 0; i < f.N(); i++ {
		sumNs += float64(f.Contenders(packet.NodeID(i), m.MinPower()))
	}
	meanNs := sumNs / float64(f.N())
	const gMS = 0.01 // Table 1 MAC contention constant, in ms
	accessNs := time.Duration(gMS * meanNs * meanNs * float64(time.Millisecond))
	// Full backoff window bound (20 slots × 0.1 ms) so expected-case jitter
	// does not trip timers.
	const backoff = 2 * time.Millisecond
	sz := s.nw.Sizes()
	reqLeg := accessNs + backoff + m.TxTime(sz.REQ) + s.cfg.Proc
	datLeg := accessNs + backoff + m.TxTime(sz.DATA) + s.cfg.Proc
	s.hopRTT = reqLeg + datLeg
}

// tauADV returns the τADV duration. It is deliberately the tight base value
// (Table 1: 1 ms): expiring before a relay completes its own acquisition is
// normal and simply converts the wait into an early multi-hop pull.
func (s *System) tauADV() time.Duration {
	return s.cfg.TOutADV
}

// tauDAT returns the τDAT duration for a request that travels hops hops.
func (s *System) tauDAT(hops int) time.Duration {
	if !s.cfg.AutoTimeouts {
		return s.cfg.TOutDAT
	}
	if hops < 1 {
		hops = 1
	}
	return s.cfg.TOutDAT + time.Duration(hops)*s.hopRTT
}

// SetTables swaps in freshly converged routing tables (after a mobility
// event re-runs DBF).
func (s *System) SetTables(t *routing.Tables) {
	if t == nil {
		panic("core: SetTables(nil)")
	}
	s.tables = t
	s.deriveTimeouts()
}

// Tables returns the current routing tables.
func (s *System) Tables() *routing.Tables { return s.tables }

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// Originate implements dissem.Protocol.
func (s *System) Originate(src packet.NodeID, d packet.DataID) error {
	if src != d.Origin {
		return fmt.Errorf("core: originate %v at wrong node %d", d, src)
	}
	if src < 0 || int(src) >= len(s.nodes) {
		return fmt.Errorf("core: origin node %d out of range", src)
	}
	if !s.nw.Alive(src) {
		return fmt.Errorf("core: origin node %d is down", src)
	}
	if err := s.ledger.Originate(d, s.nw.Scheduler().Now()); err != nil {
		return err
	}
	n := &s.nodes[src]
	it := s.item(d)
	n.setHas(it)
	n.advertise(d, it)
	return nil
}

// item resolves d to its dense ledger index, -1 when never originated. An
// item's row of cells is allocated the first time it resolves, which is at
// its origination.
func (s *System) item(d packet.DataID) int {
	it := s.ledger.Index(d)
	if it < 0 {
		return -1
	}
	for len(s.rows) <= it {
		s.rows = append(s.rows, make([]cell, len(s.nodes)))
	}
	return it
}

// Has reports whether node id holds d (test hook).
func (s *System) Has(id packet.NodeID, d packet.DataID) bool {
	if id < 0 || int(id) >= len(s.nodes) {
		panic(fmt.Sprintf("core: node id %d out of range", id))
	}
	return s.nodes[id].hasItem(s.item(d))
}

// Prone returns node id's current PRONE/SCONE for d (test hook). ok is
// false when the node has no acquisition state for d.
func (s *System) Prone(id packet.NodeID, d packet.DataID) (prone, scone packet.NodeID, ok bool) {
	if id < 0 || int(id) >= len(s.nodes) {
		panic(fmt.Sprintf("core: node id %d out of range", id))
	}
	a := s.nodes[id].wantFor(d, s.item(d))
	if a < 0 {
		return packet.None, packet.None, false
	}
	return s.acqs[a].prone, s.acqs[a].scone, true
}

// acquisition is a destination's per-data-item negotiation state (§3.4),
// plus the node and item it belongs to, which its timer handlers need.
type acquisition struct {
	prone      packet.NodeID // primary originator node
	scone      packet.NodeID // secondary originator node
	lastTarget packet.NodeID
	attempts   int32 // REQ transmissions so far
	lastDirect bool  // last REQ was a direct (single-hop) transmission
	abandoned  bool  // attempt budget exhausted; a fresh ADV restarts

	node packet.NodeID
	it   int
	d    packet.DataID

	timers [2]sim.Timer
}

// An acquisition's two timers, indexing acquisition.timers.
const (
	advTimer = iota // τADV
	datTimer        // τDAT
)

// arm replaces acquisition a's timer k, canceling its pending event if
// any, with a fresh one running fn(a) after d.
func (s *System) arm(a int32, k int, d time.Duration, fn sim.ArgHandler) {
	s.acqs[a].timers[k].Cancel()
	s.acqs[a].timers[k] = s.nw.Scheduler().AfterArg(d, fn, uint64(a))
}

// newAcq takes a pooled acquisition for node id's pull of d, with PRONE and
// SCONE both starting as provider.
func (s *System) newAcq(id packet.NodeID, d packet.DataID, it int, provider packet.NodeID) int32 {
	var a int32
	if n := len(s.acqFree); n > 0 {
		a = s.acqFree[n-1]
		s.acqFree = s.acqFree[:n-1]
	} else {
		s.acqs = append(s.acqs, acquisition{})
		a = int32(len(s.acqs) - 1)
	}
	s.acqs[a] = acquisition{node: id, d: d, it: it, prone: provider, scone: provider}
	return a
}

// onTauADV fires when acquisition a's τADV expires: no closer relay
// advertised in time, so request from the PRONE through the shortest path.
func (s *System) onTauADV(arg uint64) {
	acq := &s.acqs[arg]
	n := &s.nodes[acq.node]
	if !s.nw.Alive(n.id) || n.hasItem(acq.it) {
		return
	}
	s.nw.Counters().Timeouts++
	n.sendREQ(acq.d, acq.it, int32(arg), acq.prone, false)
}

// onTauDAT fires when acquisition a's τDAT expires: the requested data did
// not arrive, so the request fails over.
func (s *System) onTauDAT(arg uint64) {
	acq := &s.acqs[arg]
	n := &s.nodes[acq.node]
	if !s.nw.Alive(n.id) || n.hasItem(acq.it) {
		return
	}
	s.nw.Counters().Timeouts++
	n.failover(acq.d, acq.it, int32(arg))
}

// node is one SPMS protocol instance. Its per-item state lives in the
// System's item-major cells, indexed by the ledger's dense item index
// (dissem.Ledger.Index).
type node struct {
	sys *System
	id  packet.NodeID

	// wantOverflow holds acquisition state for items with no ledger index
	// (never originated — reachable only via System.Query), preserving
	// Query's in-flight dedup for them. Allocated lazily; empty in every
	// normal workload.
	wantOverflow map[uint64]int32

	// Inter-zone query state (§6 extension), allocated lazily. queries is
	// keyed on DataID.Key directly: query traffic is rare and may reference
	// items that were never originated (no ledger index exists).
	queries     map[uint64]*pendingQuery
	seenQueries map[queryKey]bool
}

var _ network.Receiver = (*node)(nil)

// item resolves d to its dense ledger index, -1 when never originated.
func (n *node) item(d packet.DataID) int { return n.sys.item(d) }

// cell returns this node's state for registered item it.
func (n *node) cell(it int) *cell { return &n.sys.rows[it][n.id] }

// hasItem reports whether this node holds item it.
func (n *node) hasItem(it int) bool { return it >= 0 && n.cell(it).flags&held != 0 }

// wantFor returns the index of the acquisition for d (dense index it), -1
// when none. Unregistered items (it < 0, possible only via System.Query)
// live in the overflow map so Query keeps its in-flight dedup for them.
func (n *node) wantFor(d packet.DataID, it int) int32 {
	if it >= 0 {
		return n.cell(it).acq - 1
	}
	if a, ok := n.wantOverflow[d.Key()]; ok {
		return a
	}
	return -1
}

// setHas marks item it as held. Unregistered items (it < 0) have no cell
// and nothing to record — they can never be advertised or delivered.
func (n *node) setHas(it int) {
	if it >= 0 {
		n.cell(it).flags |= held
	}
}

// setWant records acquisition a for d (dense index it); unregistered items
// go to the overflow map.
func (n *node) setWant(d packet.DataID, it int, a int32) {
	if it >= 0 {
		n.cell(it).acq = a + 1
		return
	}
	if n.wantOverflow == nil {
		n.wantOverflow = make(map[uint64]int32)
	}
	n.wantOverflow[d.Key()] = a
}

// clearWant drops the acquisition for d (dense index it), whose timers are
// already canceled, and returns it to the pool.
func (n *node) clearWant(d packet.DataID, it int) {
	a := n.wantFor(d, it)
	if a < 0 {
		return
	}
	if it >= 0 {
		n.cell(it).acq = 0
	} else {
		delete(n.wantOverflow, d.Key())
	}
	n.sys.acqs[a] = acquisition{}
	n.sys.acqFree = append(n.sys.acqFree, a)
}

// HandlePacket runs the protocol reaction to p. The Tproc processing delay
// of §4's model is applied by the network's batched deferred dispatch
// (DeferProcessing in NewSystem), which also re-checks liveness — so by the
// time this runs, the node is alive and the clock is already at
// delivery+Tproc.
func (n *node) HandlePacket(p *packet.Packet) {
	it := n.item(p.Meta)
	switch p.Kind {
	case packet.ADV:
		n.onADV(p, it)
	case packet.REQ:
		n.onREQ(p, it)
	case packet.DATA:
		n.onDATA(p, it)
	case packet.QRY:
		n.onQRY(p, it)
	default:
		panic(fmt.Sprintf("core: node %d received unexpected %v", n.id, p.Kind))
	}
}

// closer reports whether candidate is a strictly cheaper provider than
// current, by shortest-path cost.
func (n *node) closer(candidate, current packet.NodeID) bool {
	if candidate == current {
		return false
	}
	cCand, okCand := n.sys.tables.Cost(n.id, candidate)
	if !okCand {
		return false
	}
	cCur, okCur := n.sys.tables.Cost(n.id, current)
	if !okCur {
		return true // anything reachable beats an unreachable provider
	}
	return cCand < cCur
}

// onADV runs the destination side of the negotiation (§3.2):
//
//   - A next-hop-neighbor advertiser is requested immediately and directly.
//   - A farther advertiser arms τADV: the node waits, expecting a closer
//     relay to acquire and re-advertise the data.
//   - Advertisements from closer nodes promote the PRONE and demote the old
//     PRONE to SCONE.
func (n *node) onADV(p *packet.Packet, it int) {
	d := p.Meta
	if n.hasItem(it) || !n.sys.interest(n.id, d) {
		return
	}
	a := n.wantFor(d, it)
	promoted := false
	if a < 0 {
		// First ADV for this item: PRONE and SCONE both start as the
		// advertiser (the data source, at protocol start).
		a = n.sys.newAcq(n.id, d, it, p.Src)
		n.setWant(d, it, a)
		promoted = true
	}
	acq := &n.sys.acqs[a]
	if !promoted {
		if acq.abandoned {
			// A fresh advertisement revives an abandoned acquisition.
			acq.abandoned = false
			acq.attempts = 0
			acq.prone = p.Src
			acq.scone = p.Src
			promoted = true
		} else if n.closer(p.Src, acq.prone) {
			acq.scone = acq.prone
			acq.prone = p.Src
			promoted = true
		}
	}
	if acq.timers[datTimer].Active() {
		// A request is already outstanding; the PRONE/SCONE update above is
		// all this ADV changes.
		return
	}
	hops, ok := n.sys.tables.Hops(n.id, acq.prone)
	if !ok {
		// PRONE unreachable by routing (e.g. source in another zone whose
		// ADV still arrived radio-wise). Wait for a closer advertiser.
		if promoted || !acq.timers[advTimer].Active() {
			n.armTauADV(a)
		}
		return
	}
	if hops == 1 {
		// Next-hop neighbor: request immediately, directly.
		acq.timers[advTimer].Cancel()
		n.sendREQ(d, it, a, acq.prone, true)
		return
	}
	// Multi-hop would be needed: wait τADV for a relay's advertisement.
	// Re-arming on a PRONE promotion matches §3.5 ("C ... resets its timer
	// τADV"); unrelated repeat ADVs must not postpone the timer forever.
	if promoted || !acq.timers[advTimer].Active() {
		n.armTauADV(a)
	}
}

// armTauADV (re)starts acquisition a's advertisement-wait timer. Re-arming
// on each ADV matches §3.5: "C on receiving the ADV packet from r1 resets
// its timer τADV".
func (n *node) armTauADV(a int32) {
	n.sys.arm(a, advTimer, n.sys.tauADV(), n.sys.tauADVFn)
}

// sendREQ transmits a request to target, directly (single transmission at
// the level that spans the distance) or along the multi-hop shortest path,
// and arms τDAT.
func (n *node) sendREQ(d packet.DataID, it int, a int32, target packet.NodeID, direct bool) {
	acq := &n.sys.acqs[a]
	if int(acq.attempts) >= n.sys.cfg.MaxAttempts {
		acq.abandoned = true
		acq.timers[advTimer].Cancel()
		acq.timers[datTimer].Cancel()
		return
	}
	acq.attempts++
	acq.lastDirect = direct
	acq.lastTarget = target

	sz := n.sys.nw.Sizes()
	hops := 1
	if direct {
		level, ok := n.sys.nw.Field().LevelTo(n.id, target)
		if !ok {
			// Not actually reachable in one transmission (mobility can do
			// this); fall back to multi-hop.
			n.sendREQViaRoute(d, a, target)
			return
		}
		n.sys.nw.Send(packet.Packet{
			Kind:      packet.REQ,
			Meta:      d,
			Src:       n.id,
			Dst:       target,
			Requester: n.id,
			Provider:  target,
			Level:     level,
			Bytes:     sz.REQ,
		})
	} else {
		if !n.sendREQViaRouteOnce(d, target) {
			// No route at all: try direct as a last resort, else abandon
			// until a fresh ADV arrives.
			if level, ok := n.sys.nw.Field().LevelTo(n.id, target); ok {
				acq.lastDirect = true
				n.sys.nw.Send(packet.Packet{
					Kind:      packet.REQ,
					Meta:      d,
					Src:       n.id,
					Dst:       target,
					Requester: n.id,
					Provider:  target,
					Level:     level,
					Bytes:     sz.REQ,
				})
			} else {
				acq.abandoned = true
				return
			}
		}
		if h, ok := n.sys.tables.Hops(n.id, target); ok {
			hops = h
		}
	}
	n.armTauDAT(a, hops)
}

// sendREQViaRoute is sendREQ's multi-hop fallback used when a "direct"
// attempt turns out to be unreachable.
func (n *node) sendREQViaRoute(d packet.DataID, a int32, target packet.NodeID) {
	acq := &n.sys.acqs[a]
	acq.lastDirect = false
	if !n.sendREQViaRouteOnce(d, target) {
		acq.abandoned = true
		return
	}
	hops, _ := n.sys.tables.Hops(n.id, target)
	n.armTauDAT(a, hops)
}

// sendREQViaRouteOnce emits one REQ toward target via the primary next hop.
// It reports false when no route exists.
func (n *node) sendREQViaRouteOnce(d packet.DataID, target packet.NodeID) bool {
	next, ok := n.sys.tables.NextHop(n.id, target)
	if !ok {
		return false
	}
	level, ok := n.sys.nw.Field().LevelTo(n.id, next)
	if !ok {
		return false
	}
	n.sys.nw.Send(packet.Packet{
		Kind:      packet.REQ,
		Meta:      d,
		Src:       n.id,
		Dst:       next,
		Requester: n.id,
		Provider:  target,
		Level:     level,
		Bytes:     n.sys.nw.Sizes().REQ,
	})
	return true
}

// armTauDAT starts acquisition a's data-wait timer for a request that
// travels the given number of hops.
func (n *node) armTauDAT(a int32, hops int) {
	n.sys.arm(a, datTimer, n.sys.tauDAT(hops), n.sys.tauDATFn)
}

// failover implements §3.4's recovery ladder after a τDAT expiry:
//
//  1. If the lost request was multi-hop, a relay on the path is down: retry
//     the current PRONE directly at the higher power level ("it finally
//     requests the data directly from the PRONE, using a higher
//     transmission power" — guaranteed reachable, they are zone neighbors).
//     The PRONE may have been promoted by an ADV that arrived while the
//     request was outstanding, so this uses the freshest choice.
//  2. If a direct request was lost, the target itself is down: request the
//     SCONE directly ("it then sends a REQ packet to the SCONE (r1)
//     directly").
//  3. If the direct SCONE request was lost too, the node is out of known
//     providers; the acquisition is abandoned until a fresh advertisement
//     revives it.
func (n *node) failover(d packet.DataID, it int, a int32) {
	acq := &n.sys.acqs[a]
	n.sys.nw.Counters().Failovers++
	switch {
	case !acq.lastDirect:
		// Multi-hop attempt failed: go direct to the current PRONE at
		// whatever power reaches it.
		n.sendREQ(d, it, a, acq.prone, true)
	case acq.lastTarget != acq.scone:
		// Direct attempt on the PRONE failed: the PRONE is down.
		n.sendREQ(d, it, a, acq.scone, true)
	default:
		acq.abandoned = true
	}
}

// onREQ handles a request arriving at this node: serve it if addressed
// here, otherwise forward it along this node's own shortest path to the
// addressee (hop-by-hop forwarding, §3.2).
func (n *node) onREQ(p *packet.Packet, it int) {
	if p.Provider == n.id || (n.sys.cfg.ServeFromCache && n.hasItem(it)) {
		if !n.hasItem(it) {
			// Addressed to us but we never got the data (e.g. we are a
			// PRONE that lost a race). Drop; the requester's τDAT recovers.
			n.sys.nw.Counters().Drops++
			return
		}
		n.serveDATA(p)
		return
	}
	// Relay the REQ one hop closer to the provider.
	next, ok := n.sys.tables.NextHop(n.id, p.Provider)
	if !ok {
		n.sys.nw.Counters().Drops++
		return
	}
	level, ok := n.sys.nw.Field().LevelTo(n.id, next)
	if !ok {
		n.sys.nw.Counters().Drops++
		return
	}
	fwd := *p
	fwd.Src = n.id
	fwd.Dst = next
	fwd.Level = level
	n.sys.nw.Send(fwd)
}

// serveDATA answers a REQ: "the data is sent in exactly the same manner as
// the received request" — directly when the REQ arrived directly from the
// requester, otherwise along the shortest path.
func (n *node) serveDATA(req *packet.Packet) {
	d := req.Meta
	sz := n.sys.nw.Sizes()
	if req.Src == req.Requester {
		// The REQ came straight from the requester (possibly at high
		// power): reply the same way.
		level, ok := n.sys.nw.Field().LevelTo(n.id, req.Requester)
		if !ok {
			n.sys.nw.Counters().Drops++
			return
		}
		n.sys.nw.Send(packet.Packet{
			Kind:      packet.DATA,
			Meta:      d,
			Src:       n.id,
			Dst:       req.Requester,
			Requester: req.Requester,
			Provider:  n.id,
			Level:     level,
			Bytes:     sz.DATA,
		})
		return
	}
	next, ok := n.sys.tables.NextHop(n.id, req.Requester)
	if !ok {
		n.sys.nw.Counters().Drops++
		return
	}
	level, ok := n.sys.nw.Field().LevelTo(n.id, next)
	if !ok {
		n.sys.nw.Counters().Drops++
		return
	}
	n.sys.nw.Send(packet.Packet{
		Kind:      packet.DATA,
		Meta:      d,
		Src:       n.id,
		Dst:       next,
		Requester: req.Requester,
		Provider:  n.id,
		Level:     level,
		Bytes:     sz.DATA,
	})
}

// onDATA handles arriving data: deliver it if we are the requester, cache
// and forward it if we are a relay. Either way the node advertises the item
// once in its zone ("a node advertises its own data as well as all received
// data once amongst its neighbors", §3.2) — unless the relay-ADV ablation
// is active.
func (n *node) onDATA(p *packet.Packet, it int) {
	d := p.Meta
	isNew := !n.hasItem(it)
	n.setHas(it)
	if !isNew {
		n.sys.nw.Counters().Duplicates++
	}
	// Any interested node that newly holds the data counts as a delivery —
	// a relay that carries the item will never request it again.
	if isNew && n.sys.interest(n.id, d) &&
		n.sys.ledger.RecordDelivery(n.id, d, n.sys.nw.Scheduler().Now()) {
		n.sys.nw.Counters().Delivered++
	}
	// Whatever role this node played, its own acquisition is now satisfied.
	if a := n.wantFor(d, it); a >= 0 {
		n.sys.acqs[a].timers[advTimer].Cancel()
		n.sys.acqs[a].timers[datTimer].Cancel()
		n.clearWant(d, it)
	}
	if q := n.queries[d.Key()]; q != nil {
		q.timer.Cancel()
		delete(n.queries, d.Key())
	}

	if p.Requester == n.id {
		n.advertise(d, it)
		return
	}

	// Relay: cache (done above), advertise, forward toward the requester.
	if !n.sys.cfg.DisableRelayADV {
		n.advertise(d, it)
	}
	// A trail-carrying reply (inter-zone query) is source-routed; otherwise
	// fall through to table routing.
	if n.forwardSourceRouted(p) {
		return
	}
	next, ok := n.sys.tables.NextHop(n.id, p.Requester)
	if !ok {
		n.sys.nw.Counters().Drops++
		return
	}
	level, ok := n.sys.nw.Field().LevelTo(n.id, next)
	if !ok {
		n.sys.nw.Counters().Drops++
		return
	}
	fwd := *p
	fwd.Src = n.id
	fwd.Dst = next
	fwd.Level = level
	n.sys.nw.Send(fwd)
}

// advertise broadcasts an ADV for d once per node, at maximum power — the
// zone-wide announcement that drives both discovery and PRONE promotion.
func (n *node) advertise(d packet.DataID, it int) {
	if it < 0 || n.cell(it).flags&advertised != 0 {
		return
	}
	n.cell(it).flags |= advertised
	n.sys.nw.Send(packet.Packet{
		Kind:  packet.ADV,
		Meta:  d,
		Src:   n.id,
		Dst:   packet.Broadcast,
		Level: radio.MaxPower,
		Bytes: n.sys.nw.Sizes().ADV,
	})
}
