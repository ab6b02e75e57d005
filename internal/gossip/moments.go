// Triple push-sum: the Gossip-ave machinery extended to second moments,
// computing mean and variance in a single Phase III run. Each root's
// state is (s1, s2, g) = (Σ values, Σ values², weight); every round it
// keeps half and pushes half via the tree relay, exactly as Algorithm 6.
// Because all three components ride in one bounded message and are mixed
// by the same contribution vector, the ratios s1/g and s2/g converge at
// the largest-tree root z to the global first and second moments at the
// Theorem 7 rate, and Var = s2/g − (s1/g)².
package gossip

import (
	"fmt"
	"math"

	"drrgossip/internal/convergecast"
	"drrgossip/internal/forest"
	"drrgossip/internal/sim"
)

const kindMomShare uint8 = 0x35

// MomentsResult is the outcome of the triple push-sum.
type MomentsResult struct {
	// Mean and M2 are each root's estimates of the first and second
	// moments (NaN where the weight never arrived).
	Mean, M2 map[int]float64
	Stats    sim.Counters
}

// Moments runs the triple push-sum over the roots of f. init gives each
// root its tree's convergecast moments; weights start at the tree sizes,
// so the Theorem 7 guarantee applies at the largest-tree root.
func Moments(eng *sim.Engine, f *forest.Forest, rootTo []int, init map[int]convergecast.MomentsVec, opts AveOptions) (*MomentsResult, error) {
	if err := checkInputs(eng, f, rootTo); err != nil {
		return nil, err
	}
	start := eng.Stats()
	roots := f.Roots()
	s1 := make(map[int]float64, len(roots))
	s2 := make(map[int]float64, len(roots))
	g := make(map[int]float64, len(roots))
	for _, r := range roots {
		mv, ok := init[r]
		if !ok {
			return nil, fmt.Errorf("gossip: missing moments init for root %d", r)
		}
		s1[r] = mv.Sum
		s2[r] = mv.Sum2
		g[r] = mv.Count
	}
	rounds := aveRounds(eng)
	for t := 0; t < rounds; t++ {
		for _, r := range roots {
			relay, dst := relayTarget(eng, rootTo, r)
			if !eng.Alive(relay) {
				// Call never established: retain the share.
				eng.Send(r, relay, sim.Payload{Kind: kindMomShare})
				continue
			}
			s1[r] /= 2
			s2[r] /= 2
			g[r] /= 2
			pay := sim.Payload{Kind: kindMomShare, A: s1[r], B: s2[r], C: g[r], X: int64(r)}
			before := eng.Stats().Drops
			eng.SendVia(r, relay, dst, pay)
			delivered := eng.Stats().Drops == before
			if opts.ReliableShares {
				for try := 0; try < 8 && !delivered; try++ {
					before = eng.Stats().Drops
					eng.SendVia(r, relay, dst, pay)
					delivered = eng.Stats().Drops == before
				}
				if !delivered {
					s1[r] *= 2
					s2[r] *= 2
					g[r] *= 2
				}
			}
		}
		eng.Tick()
		for _, r := range roots {
			for _, m := range eng.Inbox(r) {
				if m.Pay.Kind == kindMomShare {
					s1[r] += m.Pay.A
					s2[r] += m.Pay.B
					g[r] += m.Pay.C
				}
			}
		}
	}
	mean := make(map[int]float64, len(roots))
	m2 := make(map[int]float64, len(roots))
	for _, r := range roots {
		if g[r] != 0 {
			mean[r] = s1[r] / g[r]
			m2[r] = s2[r] / g[r]
		} else {
			mean[r] = math.NaN()
			m2[r] = math.NaN()
		}
	}
	return &MomentsResult{Mean: mean, M2: m2, Stats: eng.Stats().Sub(start)}, nil
}
