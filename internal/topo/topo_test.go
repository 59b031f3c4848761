package topo

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

func mustGrid(t testing.TB, n int, spacing float64, m *radio.Model) *Field {
	t.Helper()
	f, err := NewGridField(n, spacing, m)
	if err != nil {
		t.Fatalf("NewGridField: %v", err)
	}
	return f
}

func scaled(t testing.TB, r float64) *radio.Model {
	t.Helper()
	m, err := radio.ScaledMICA2(r)
	if err != nil {
		t.Fatalf("ScaledMICA2: %v", err)
	}
	return m
}

func TestConstructorValidation(t *testing.T) {
	m := radio.MICA2()
	rng := sim.NewRNG(1)
	bounds := geom.Rect{Max: geom.Point{X: 10, Y: 10}}
	if _, err := NewGridField(0, 5, m); err == nil {
		t.Fatal("n=0 grid should fail")
	}
	if _, err := NewGridField(4, 0, m); err == nil {
		t.Fatal("spacing=0 grid should fail")
	}
	if _, err := NewGridField(4, 5, nil); err == nil {
		t.Fatal("nil model should fail")
	}
	if _, err := NewUniformField(0, bounds, m, rng); err == nil {
		t.Fatal("n=0 uniform should fail")
	}
	if _, err := NewUniformField(5, geom.Rect{}, m, rng); err == nil {
		t.Fatal("empty bounds should fail")
	}
	if _, err := NewUniformField(5, bounds, m, nil); err == nil {
		t.Fatal("nil rng should fail")
	}
	if _, err := NewChainField(0, 5, m); err == nil {
		t.Fatal("n=0 chain should fail")
	}
	if _, err := NewChainField(3, -1, m); err == nil {
		t.Fatal("negative spacing chain should fail")
	}
	if _, err := NewChainField(3, 1, nil); err == nil {
		t.Fatal("nil model chain should fail")
	}
}

func TestGridFieldGeometry(t *testing.T) {
	f := mustGrid(t, 9, 5, radio.MICA2())
	if f.N() != 9 {
		t.Fatalf("N=%d, want 9", f.N())
	}
	if got := f.Dist(0, 1); got != 5 {
		t.Fatalf("Dist(0,1)=%v, want 5 (adjacent columns)", got)
	}
	if got := f.Dist(0, 4); math.Abs(got-5*math.Sqrt2) > 1e-9 {
		t.Fatalf("Dist(0,4)=%v, want 5√2 (diagonal)", got)
	}
	if got := f.Dist(0, 8); math.Abs(got-10*math.Sqrt2) > 1e-9 {
		t.Fatalf("Dist(0,8)=%v, want 10√2", got)
	}
}

func TestZoneNeighborsGrid(t *testing.T) {
	// 20 m zone radius on a 5 m grid: the paper's configuration for
	// Figures 6 and 8. Center node of a 13×13 grid should see ≈45 nodes.
	f := mustGrid(t, 169, 5, scaled(t, 20))
	center := packet.NodeID(6*13 + 6)
	zs := f.ZoneNeighbors(center)
	// Count of grid points within 20m of center (excluding itself):
	// radius 4 cells → all (dx,dy) with dx²+dy² ≤ 16, minus origin = 48.
	if len(zs) != 48 {
		t.Fatalf("center zone size = %d, want 48", len(zs))
	}
	for _, z := range zs {
		if f.Dist(center, z) > 20+1e-9 {
			t.Fatalf("zone neighbor %d at %v m > radius", z, f.Dist(center, z))
		}
		if z == center {
			t.Fatal("node must not be its own zone neighbor")
		}
	}
}

func TestZoneSymmetry(t *testing.T) {
	f := mustGrid(t, 49, 5, scaled(t, 15))
	for i := 0; i < f.N(); i++ {
		for _, j := range f.ZoneNeighbors(packet.NodeID(i)) {
			if !f.InZone(j, packet.NodeID(i)) {
				t.Fatalf("zone relation asymmetric: %d sees %d but not vice versa", i, j)
			}
		}
	}
}

func TestInZoneSelf(t *testing.T) {
	f := mustGrid(t, 4, 5, radio.MICA2())
	if f.InZone(0, 0) {
		t.Fatal("a node is not in its own zone neighbor set")
	}
}

func TestLevelTo(t *testing.T) {
	// MICA2 ranges: 5.48/11.28/22.86/45.72/91.44 for levels 5..1.
	f := mustGrid(t, 169, 5, radio.MICA2())
	tests := []struct {
		a, b   packet.NodeID
		want   radio.Level
		wantOK bool
	}{
		{0, 1, 5, true},   // 5 m: lowest power
		{0, 2, 4, true},   // 10 m
		{0, 4, 3, true},   // 20 m (same row, 4 columns apart)
		{0, 12, 1, true},  // 60 m: max power
		{0, 168, 1, true}, // far corner: 60√2 ≈ 84.85 m, still level 1
	}
	for _, tt := range tests {
		got, ok := f.LevelTo(tt.a, tt.b)
		if ok != tt.wantOK {
			t.Fatalf("LevelTo(%d,%d) ok=%v, want %v (dist=%v)", tt.a, tt.b, ok, tt.wantOK, f.Dist(tt.a, tt.b))
		}
		if ok && got != tt.want {
			t.Fatalf("LevelTo(%d,%d)=%v, want %v (dist=%v)", tt.a, tt.b, got, tt.want, f.Dist(tt.a, tt.b))
		}
	}
}

func TestContenders(t *testing.T) {
	// On a 5 m grid with MICA2: lowest power (5.48 m) reaches the 4
	// orthogonal neighbors; contenders includes self → 5. This is the
	// paper's ns = 5.
	f := mustGrid(t, 169, 5, radio.MICA2())
	center := packet.NodeID(6*13 + 6)
	if got := f.Contenders(center, 5); got != 5 {
		t.Fatalf("Contenders(center, min power)=%d, want 5", got)
	}
	// A corner node has only 2 orthogonal neighbors.
	if got := f.Contenders(0, 5); got != 3 {
		t.Fatalf("Contenders(corner, min power)=%d, want 3", got)
	}
	// Contenders grows with power level.
	prev := 0
	for l := f.Model().MinPower(); l >= 1; l-- {
		n := f.Contenders(center, l)
		if n < prev {
			t.Fatalf("contenders decreased when raising power: %d < %d", n, prev)
		}
		prev = n
	}
}

func TestReachedBy(t *testing.T) {
	f := mustGrid(t, 169, 5, radio.MICA2())
	center := packet.NodeID(6*13 + 6)
	got := f.ReachedBy(center, 5)
	if len(got) != 4 {
		t.Fatalf("ReachedBy(center, min power) = %d nodes, want 4", len(got))
	}
	for _, id := range got {
		if id == center {
			t.Fatal("ReachedBy must exclude the transmitter")
		}
	}
	// Consistency: ReachedBy at level l = Contenders - 1.
	for l := radio.Level(1); l <= f.Model().MinPower(); l++ {
		if len(f.ReachedBy(center, l)) != f.Contenders(center, l)-1 {
			t.Fatalf("ReachedBy/Contenders inconsistent at level %v", l)
		}
	}
}

func TestMoveInvalidatesZones(t *testing.T) {
	f := mustGrid(t, 9, 5, scaled(t, 6))
	before := len(f.ZoneNeighbors(0))
	// Move node 8 (far corner) right next to node 0.
	f.Move(8, geom.Point{X: 1, Y: 0})
	after := len(f.ZoneNeighbors(0))
	if after != before+1 {
		t.Fatalf("zone size after move = %d, want %d", after, before+1)
	}
}

func TestMoveClampsToBounds(t *testing.T) {
	f := mustGrid(t, 9, 5, radio.MICA2())
	f.Move(0, geom.Point{X: -100, Y: 100})
	got := f.Pos(0)
	if !f.Bounds().Contains(got) {
		t.Fatalf("Move left node outside bounds: %v", got)
	}
}

func TestRelocateFraction(t *testing.T) {
	rng := sim.NewRNG(7)
	f := mustGrid(t, 100, 5, radio.MICA2())
	moved := f.RelocateFraction(0.1, rng)
	if len(moved) != 10 {
		t.Fatalf("moved %d nodes, want 10", len(moved))
	}
	seen := map[packet.NodeID]bool{}
	for _, id := range moved {
		if seen[id] {
			t.Fatalf("node %d moved twice in one event", id)
		}
		seen[id] = true
		if !f.Bounds().Contains(f.Pos(id)) {
			t.Fatalf("relocated node %d outside field", id)
		}
	}
	if got := f.RelocateFraction(0, rng); got != nil {
		t.Fatal("frac=0 should move nothing")
	}
	if got := f.RelocateFraction(0.5, nil); got != nil {
		t.Fatal("nil rng should move nothing")
	}
	// Tiny fraction still moves at least one node.
	if got := f.RelocateFraction(0.001, rng); len(got) != 1 {
		t.Fatalf("tiny fraction moved %d, want 1", len(got))
	}
	// Fraction > 1 clamps to all nodes.
	if got := f.RelocateFraction(2, rng); len(got) != 100 {
		t.Fatalf("frac>1 moved %d, want all 100", len(got))
	}
}

func TestRelocateDeterminism(t *testing.T) {
	f1 := mustGrid(t, 50, 5, radio.MICA2())
	f2 := mustGrid(t, 50, 5, radio.MICA2())
	m1 := f1.RelocateFraction(0.2, sim.NewRNG(99))
	m2 := f2.RelocateFraction(0.2, sim.NewRNG(99))
	if len(m1) != len(m2) {
		t.Fatal("same seed gave different move counts")
	}
	for i := range m1 {
		if m1[i] != m2[i] || f1.Pos(m1[i]) != f2.Pos(m2[i]) {
			t.Fatal("same seed gave different relocations")
		}
	}
}

func TestMeanZoneSize(t *testing.T) {
	f := mustGrid(t, 169, 5, scaled(t, 20))
	mean := f.MeanZoneSize()
	// Interior nodes have 48 zone neighbors; edges fewer. Mean in (20, 48).
	if mean <= 20 || mean >= 48 {
		t.Fatalf("MeanZoneSize=%v, want within (20,48)", mean)
	}
}

func TestUniformFieldInBounds(t *testing.T) {
	bounds := geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 60, Y: 60}}
	f, err := NewUniformField(100, bounds, radio.MICA2(), sim.NewRNG(5))
	if err != nil {
		t.Fatalf("NewUniformField: %v", err)
	}
	for i := 0; i < f.N(); i++ {
		if !bounds.Contains(f.Pos(packet.NodeID(i))) {
			t.Fatalf("node %d outside bounds", i)
		}
	}
}

func TestChainField(t *testing.T) {
	f, err := NewChainField(5, 10, radio.MICA2())
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	if got := f.Dist(0, 4); got != 40 {
		t.Fatalf("chain end-to-end = %v, want 40", got)
	}
	// With MICA2, 10 m hop → level 4; 40 m span → level 2.
	if l, ok := f.LevelTo(0, 1); !ok || l != 4 {
		t.Fatalf("LevelTo(0,1)=(%v,%v), want (4,true)", l, ok)
	}
	if l, ok := f.LevelTo(0, 4); !ok || l != 2 {
		t.Fatalf("LevelTo(0,4)=(%v,%v), want (2,true)", l, ok)
	}
}

func TestOutOfRangeIDPanics(t *testing.T) {
	f := mustGrid(t, 4, 5, radio.MICA2())
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Pos", func() { f.Pos(99) }},
		{"Dist", func() { f.Dist(0, -3) }},
		{"Zone", func() { f.ZoneNeighbors(4) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: out-of-range id should panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}
