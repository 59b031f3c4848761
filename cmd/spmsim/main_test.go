package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunExitCodes pins the command-line contract: a mistake on the
// command line is a usage error (exit 2) raised before any simulation runs
// or any output file opens, never a silently dropped flag.
func TestRunExitCodes(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"tiny run", []string{"-nodes", "4", "-packets", "1", "-drain", "10ms"}, 0},
		{"help", []string{"-h"}, 0},
		{"stray argument", []string{"-nodes", "9", "bogus", "-nodes", "400"}, 2},
		{"stray argument after trace", []string{"-trace", trace, "bogus"}, 2},
		{"unknown flag", []string{"-frobnicate"}, 2},
		{"malformed flag value", []string{"-nodes", "many"}, 2},
		{"unknown protocol", []string{"-protocol", "gossip"}, 2},
		{"observability with replications", []string{"-run-stats", "-", "-replications", "2"}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := run(c.args); got != c.want {
				t.Fatalf("run(%q) = %d, want %d", c.args, got, c.want)
			}
		})
	}
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Errorf("rejected command line still created %s (err=%v)", trace, err)
	}
}
