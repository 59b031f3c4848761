package routing

import "testing"

// BenchmarkDBFCompute measures one full Distributed Bellman-Ford
// convergence on the paper's 169-node, 20 m-zone field.
func BenchmarkDBFCompute(b *testing.B) {
	g := BuildGraph(gridField(b, 169, 5, 20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := Compute(g, 2)
		if tbl.Rounds() == 0 {
			b.Fatal("no convergence")
		}
	}
}
