package main

import "testing"

// TestRunExitCodes pins the command-line contract: a mistake on the
// command line is a usage error (exit 2) raised before any figure runs,
// never a silently empty or silently widened report.
func TestRunExitCodes(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"analytic figure", []string{"-quick", "-only", "fig3"}, 0},
		{"csv subset", []string{"-quick", "-csv", "-only", "table1, fig5"}, 0},
		{"help", []string{"-h"}, 0},
		{"unknown only id", []string{"-quick", "-only", "fig14"}, 2},
		{"unknown id among known", []string{"-quick", "-only", "fig3,fig14"}, 2},
		{"empty id in list", []string{"-quick", "-only", "fig3,"}, 2},
		{"stray argument before flags", []string{"-quick", "extra", "-only", "fig3"}, 2},
		{"stray trailing argument", []string{"-only", "fig3", "extra"}, 2},
		{"unknown flag", []string{"-quick", "-frobnicate"}, 2},
		{"malformed flag value", []string{"-seed", "x"}, 2},
		{"unknown quality", []string{"-quality", "paper", "-only", "fig3"}, 2},
		{"negative replications", []string{"-quick", "-only", "fig8", "-replications", "-3"}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := run(c.args); got != c.want {
				t.Fatalf("run(%q) = %d, want %d", c.args, got, c.want)
			}
		})
	}
}
