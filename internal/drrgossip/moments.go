// DRR-gossip-moments: mean and variance in one protocol run — the
// paper's "other aggregates … by a suitable modification" instantiated
// for second moments. The pipeline is Algorithm 8 with the pair
// (s, g) widened to the triple (Σv, Σv², g); message sizes stay bounded.
package drrgossip

import (
	"math"

	"drrgossip/internal/convergecast"
	"drrgossip/internal/forest"
	"drrgossip/internal/gossip"
	"drrgossip/internal/sim"
)

// MomentsResult reports a DRR-gossip-moments run.
type MomentsResult struct {
	// Mean and Variance are the consensus estimates (population
	// variance, i.e. E[v²] − E[v]²).
	Mean, Variance float64
	// Std is sqrt(max(Variance, 0)).
	Std float64
	// PerNodeMean / PerNodeVariance are the disseminated per-node values
	// (NaN for crashed nodes).
	PerNodeMean, PerNodeVariance []float64
	Consensus                    bool
	// Phases attributes the run's cost to its pipeline stages via
	// telescoping engine-counter snapshots, so the four phase deltas sum
	// to Stats exactly, field by field.
	Phases PhaseStats
	Stats  sim.Counters
}

// Moments computes the global mean and variance on the complete graph with
// a single DRR-gossip pipeline: DRR forest, three-component convergecast,
// largest-root election, triple push-sum, then two data-spreads (mean,
// variance) and the final tree broadcast.
func Moments(eng *sim.Engine, values []float64) (*MomentsResult, error) {
	var cov map[int]convergecast.MomentsVec
	t, f, m, err := begin(eng, nil, values, func(f *forest.Forest) (err error) {
		cov, _, err = convergecast.Moments(eng, f, values)
		return err
	})
	if err != nil {
		return nil, err
	}
	d := t.(*dense) // the complete graph's transport: Moments is dense-only

	// Elect the largest-tree root via Gossip-max on (size, id) keys.
	keys := make(map[int]float64, f.NumTrees())
	for r, mv := range cov {
		keys[r] = largestKey(int(mv.Count), r)
	}
	kest, err := d.gossipMax(eng, f, keys)
	if err != nil {
		return nil, err
	}
	maxKey := math.Inf(-1)
	for _, v := range kest {
		if v > maxKey {
			maxKey = v
		}
	}
	z := decodeKeyRoot(maxKey)

	mres, err := gossip.Moments(eng, f, d.rootTo, cov, gossip.AveOptions{TrackRoot: -1})
	if err != nil {
		return nil, err
	}
	mean := mres.Mean[z]
	variance := mres.M2[z] - mean*mean

	// Spread both values from z and broadcast them down the trees.
	sMean, err := d.spread(eng, f, z, mean)
	if err != nil {
		return nil, err
	}
	sVar, err := d.spread(eng, f, z, variance)
	if err != nil {
		return nil, err
	}
	m.next()
	perMean, _, err := convergecast.BroadcastValue(eng, f, sMean)
	if err != nil {
		return nil, err
	}
	perVar, _, err := convergecast.BroadcastValue(eng, f, sVar)
	if err != nil {
		return nil, err
	}

	consensus := true
	for i := range perMean {
		if !f.Member(i) {
			continue
		}
		if perMean[i] != mean || perVar[i] != variance {
			consensus = false
			break
		}
	}
	ph := m.phases()
	return &MomentsResult{
		Mean:            mean,
		Variance:        variance,
		Std:             math.Sqrt(math.Max(variance, 0)),
		PerNodeMean:     perMean,
		PerNodeVariance: perVar,
		Consensus:       consensus,
		Phases:          ph,
		Stats:           ph.Total(),
	}, nil
}
