package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"drrgossip"
	"drrgossip/internal/chord"
)

// workload is one fixed session configuration plus the query mix a
// single closed-loop client issues against it, one query at a time.
type workload struct {
	name     string
	n        int
	topology string // as printed in the host context
	// sessions is the number of independent sessions one repetition
	// runs, each on its own seed derived from the workload seed (see
	// sessionSeed). Most workloads run one.
	sessions int
	// config returns the session configuration for a seed. Workers and
	// Parallelism stay 0: the numbers measure the program, not the
	// scheduler of a small shared host.
	config func(seed uint64) drrgossip.Config
	// mix builds the query mix over the generated values.
	mix func(values []float64) []query
	// placement is the Chord placement the routing probes use. Complete
	// workloads route nothing; their probes run on an Even ring of the
	// same n and are off the query path.
	placement chord.Placement
}

// query is one labelled request of a mix.
type query struct {
	label string
	q     drrgossip.Query
}

// phiLabel names a quantile query by its φ, as the driver.quantile_runs
// metrics do.
func phiLabel(phi float64) string { return fmt.Sprintf("p%g", phi*100) }

var quantilePhis = []float64{0.5, 0.9, 0.99}

// quantileTol is the absolute tolerance every quantile query asks for.
const quantileTol = 1

var histogramEdges = []float64{1e5, 2.5e5, 5e5, 7.5e5, 9e5}

const rankProbe = 333333

func aggregatesMix(ops ...string) func([]float64) []query {
	return func(values []float64) []query {
		var qs []query
		for _, op := range ops {
			var q drrgossip.Query
			switch op {
			case "average":
				q = drrgossip.AverageOf(values)
			case "max":
				q = drrgossip.MaxOf(values)
			case "sum":
				q = drrgossip.SumOf(values)
			case "count":
				q = drrgossip.CountOf(values)
			default:
				panic("unknown op " + op)
			}
			qs = append(qs, query{label: op, q: q})
		}
		return qs
	}
}

func quantileMix(values []float64) []query {
	var qs []query
	for _, phi := range quantilePhis {
		qs = append(qs, query{label: "quantile." + phiLabel(phi), q: drrgossip.QuantileOf(values, phi, quantileTol)})
	}
	qs = append(qs,
		query{label: "histogram", q: drrgossip.HistogramOf(values, histogramEdges)},
		query{label: "rank", q: drrgossip.RankOf(values, rankProbe)})
	return qs
}

var workloads = []*workload{
	{
		name:     "complete-aggregates",
		n:        100000,
		sessions: 1,
		topology: "complete",
		config: func(seed uint64) drrgossip.Config {
			return drrgossip.Config{N: 100000, Seed: seed}
		},
		mix: aggregatesMix("average", "max", "sum", "count"),
	},
	{
		name:     "chord-aggregates",
		n:        1 << 15,
		sessions: 1,
		topology: "chord (even)",
		config: func(seed uint64) drrgossip.Config {
			return drrgossip.Config{N: 1 << 15, Seed: seed, Topology: drrgossip.Chord}
		},
		mix:       aggregatesMix("average", "max"),
		placement: chord.Even,
	},
	{
		name:     "quantile-session",
		n:        1 << 10,
		sessions: 32,
		topology: "complete, loss 0.05, crash 0.05, HMS",
		config: func(seed uint64) drrgossip.Config {
			return drrgossip.Config{N: 1 << 10, Seed: seed, Loss: 0.05, CrashFraction: 0.05,
				QuantileMethod: drrgossip.QuantileHMS}
		},
		mix: quantileMix,
	},
	{
		name:     "chord-hashed",
		n:        1 << 13,
		sessions: 1,
		topology: "chord (hashed)",
		config: func(seed uint64) drrgossip.Config {
			return drrgossip.Config{N: 1 << 13, Seed: seed, Topology: drrgossip.Chord, ChordHashed: true}
		},
		mix:       aggregatesMix("average", "max"),
		placement: chord.Hashed,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// sessionSeed derives session k's seed from the workload seed; session
// 0 uses the workload seed itself.
func sessionSeed(seed uint64, k int) uint64 { return seed + uint64(k)*0x9e3779b97f4a7c15 }

// genValues draws n values floor(U[0,1e6)) from the seed. The same seed
// always gives the same values.
func genValues(n int, seed uint64) []float64 {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Floor(r.Float64() * 1e6)
	}
	return v
}
