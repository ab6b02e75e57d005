package faults

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseFaultPlan feeds arbitrary text to the fault-plan parser. A
// rejected spec must return an error wrapping ErrBadPlan; a plan that
// also passes Validate must round-trip: Parse(p.Canonical()) yields
// identical Events, and Canonical is a fixed point.
//
//	go test -run '^$' -fuzz FuzzParseFaultPlan -fuzztime 30s -fuzzminimizetime 100x ./internal/faults
func FuzzParseFaultPlan(f *testing.F) {
	for _, spec := range []string{
		// The grammar examples of parse.go.
		"crash:0.2@0.5", "churn:0.3:40", "part:2@0.25..0.75;loss:0.2@0.5..0.9",
		"rack:0.1@100r..400r", "rejoin", "rejoin:3@0.9", "flaky:0.25:0.8@5r..25r",
		"link:3-7@0.2..0.6", "crash:#3,7,9@2r", "none", "",
		// Out-of-range and degenerate amounts.
		"rejoin:0", "crash:0.0", "churn:NaN", "loss:NaN@0.1..0.5", "crash:1e-400",
	} {
		f.Add(spec)
	}
	// The fault plans of the chaos corpora.
	for _, name := range []string{"seed_corpus.txt", "regressions.txt"} {
		data, err := os.ReadFile(filepath.Join("..", "chaos", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		for _, field := range strings.Fields(string(data)) {
			if spec, ok := strings.CutPrefix(field, "plan="); ok {
				f.Add(spec)
			}
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(text)
		if err != nil {
			if !errors.Is(err, ErrBadPlan) {
				t.Fatalf("Parse(%q): error %v does not wrap ErrBadPlan", text, err)
			}
			return
		}
		if err := p.Validate(64); err != nil {
			if !errors.Is(err, ErrBadPlan) {
				t.Fatalf("Validate(%q): error %v does not wrap ErrBadPlan", text, err)
			}
			return
		}
		canon := p.Canonical()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) = %q does not re-parse: %v", text, canon, err)
		}
		if !reflect.DeepEqual(again.Events, p.Events) {
			t.Fatalf("Parse(%q) events %+v != re-parsed %+v (via %q)", text, p.Events, again.Events, canon)
		}
		if c2 := again.Canonical(); c2 != canon {
			t.Fatalf("Canonical not a fixed point: %q -> %q", canon, c2)
		}
	})
}
