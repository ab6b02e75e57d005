package drrgossip

import (
	"fmt"
	"testing"
)

// Answers must be bit-identical whether the overlay stores its graph
// implicitly/CSR (default) or as materialized jagged slices
// (LegacySliceAdjacency), at every worker count.
func TestFacadeBitIdenticalAcrossRepresentations(t *testing.T) {
	for _, topo := range []Topology{Chord, SmallWorld, Torus} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", topo, workers), func(t *testing.T) {
				cfg := Config{N: 512, Seed: 41, Topology: topo, Workers: workers, SampleNodes: AllNodes}
				legacy := cfg
				legacy.LegacySliceAdjacency = true
				values := uniformValues(cfg.N, 42)
				queries := []Query{AverageOf(values), QuantileOf(values, 0.5, 1)}

				nw, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				answers, _, err := nw.RunAll(queries)
				if err != nil {
					t.Fatal(err)
				}
				lnw, err := New(legacy)
				if err != nil {
					t.Fatal(err)
				}
				lanswers, _, err := lnw.RunAll(queries)
				if err != nil {
					t.Fatal(err)
				}
				if len(answers[0].PerNode) != cfg.N {
					t.Fatalf("Average PerNode has %d entries, want %d", len(answers[0].PerNode), cfg.N)
				}
				answersEqual(t, "Average across representations", answers[0], lanswers[0])
				answersEqual(t, "Quantile across representations", answers[1], lanswers[1])
			})
		}
	}
}
