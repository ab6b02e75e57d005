package chaos

import (
	"path/filepath"
	"testing"
)

// FuzzParseCase feeds arbitrary text to the reproducer-line parser. It
// must never panic, and every accepted line must print canonically:
// ParseCase(c.String()) succeeds and prints the same line again.
//
//	go test -run '^$' -fuzz FuzzParseCase -fuzztime 30s -fuzzminimizetime 100x ./internal/chaos
func FuzzParseCase(f *testing.F) {
	for _, name := range []string{"seed_corpus.txt", "regressions.txt"} {
		lines, err := LoadCorpus(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range lines {
			f.Add(line)
		}
	}
	for _, line := range []string{
		"n=64 seed=1", "n=64 seed=1 loss=NaN", "n=64 seed=1 plan=rejoin:0",
		"n=16 topo=ring seed=3 loss=-0 qm=hms plan=NONE", "seed=1 n=2 topo=COMPLETE",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		c, err := ParseCase(line)
		if err != nil {
			return
		}
		s := c.String()
		again, err := ParseCase(s)
		if err != nil {
			t.Fatalf("ParseCase(%q) prints %q, which does not re-parse: %v", line, s, err)
		}
		if s2 := again.String(); s2 != s {
			t.Fatalf("String not canonical: %q -> %q", s, s2)
		}
	})
}
