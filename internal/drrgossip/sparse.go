// The routed transport: DRR-gossip on a sparse network (Section 4 /
// Theorems 13-14). Local-DRR builds the forest over the overlay's links,
// convergecast and broadcast run on tree edges (which are graph edges),
// and Phase III gossips between roots via the overlay's routing
// protocol. Chord keeps its finger router and rejection sampler
// (T = O(log n) rounds, M = O(log n) messages per random-node sample,
// giving O(log^2 n) time and O(n log n) messages overall, Theorem 14),
// while arbitrary connected graphs route through the landmark tree of
// internal/overlay with per-sample cost bounded by twice the tree depth.
// Theorem 13 bounds the expected root count by the harmonic degree sum
// Σ 1/(d_i+1) on any graph.
package drrgossip

import (
	"errors"
	"math"

	"drrgossip/internal/convergecast"
	"drrgossip/internal/forest"
	"drrgossip/internal/gossip"
	"drrgossip/internal/localdrr"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
)

// ErrCrashedOverlay is returned when the engine has crashed nodes:
// overlay routing repair (e.g. Chord successor-list maintenance under
// churn) is outside this reproduction's scope, matching the paper, which
// analyses sparse topologies without the crash model.
var ErrCrashedOverlay = errors.New("drrgossip: sparse pipelines require all nodes alive")

const (
	kindSparseVal   uint8 = 0x41
	kindSparseInq   uint8 = 0x42
	kindSparseReply uint8 = 0x43
	kindSparseShare uint8 = 0x44
)

// appendClimb appends the tree path from node j up to its root
// (excluding j itself) to path; nothing when j is a root.
func appendClimb(path []int, f *forest.Forest, j int) []int {
	for cur := j; !f.IsRoot(cur); {
		cur = f.Parent(cur)
		path = append(path, cur)
	}
	return path
}

// sampleRootPath draws a near-uniform random node as seen from root r
// and writes the hop path to that node's root into buf (the caller's
// scratch, returned extended): overlay-route to the sampled node, then
// climb its ranking tree. The routing cost of rejected sampling attempts
// is charged to the engine. An empty path means the sample landed on r
// itself — or, under dynamic membership, on a node that has crashed out
// of the forest: the route is still paid for, but there is no tree to
// climb and callers keep their mass.
func sampleRootPath(eng *sim.Engine, ov overlay.Overlay, f *forest.Forest, r int, buf []int) []int {
	j, path, totalHops := ov.SampleInto(eng.RNG(r), r, buf)
	if extra := totalHops - len(path); extra > 0 {
		eng.Charge(int64(extra)) // rejected routing attempts are traffic too
	}
	if !f.Member(j) {
		eng.Charge(int64(len(path))) // the route to the dead end is traffic too
		return path[:0]
	}
	return appendClimb(path, f, j)
}

// shipToRandomRoot routes a payload from root r to the root of a
// near-uniform random node, using buf as path scratch (returned for
// reuse). It sends nothing when the sample landed on r itself.
func shipToRandomRoot(eng *sim.Engine, ov overlay.Overlay, f *forest.Forest, r int, pay sim.Payload, buf []int) []int {
	full := sampleRootPath(eng, ov, f, r, buf)
	if len(full) > 0 { // an empty path sampled r's own root: nothing to transmit
		eng.SendRouted(r, full, pay)
	}
	return full
}

// drainTicks advances the engine `ticks` rounds, invoking scan with the
// tree index of every root's inbox after each round (routed messages
// arrive at staggered times).
func drainTicks(eng *sim.Engine, roots []int, ticks int, scan func(k int, m sim.Message)) {
	for t := 0; t < ticks; t++ {
		eng.Tick()
		for k, r := range roots {
			for _, m := range eng.Inbox(r) {
				scan(k, m)
			}
		}
	}
}

// ticksPerIteration bounds the rounds a routed gossip exchange needs:
// an overlay route (<= RouteBound hops) plus a tree climb (<= max
// height).
func ticksPerIteration(ov overlay.Overlay, f *forest.Forest) int {
	return ov.RouteBound() + f.MaxHeight() + 2
}

// gossipIters is the number of gossip-procedure iterations: 2 log n + 12.
func gossipIters(n int) int { return 2*ceilLog2(n) + 12 }

// sampleIters is the number of sampling-procedure iterations: log n + 8.
func sampleIters(n int) int { return ceilLog2(n) + 8 }

// aveIters is the number of push-sum iterations: 4 log n + 24.
func aveIters(n int) int { return 4*ceilLog2(n) + 24 }

func ceilLog2(n int) int { return int(math.Ceil(math.Log2(float64(n)))) }

// routed is the overlay transport: Local-DRR, then root gossip over
// routed overlay paths.
type routed struct{ ov overlay.Overlay }

func (rt routed) forest(eng *sim.Engine) (*forest.Forest, error) {
	res, err := localdrr.Run(eng, rt.ov.Graph())
	if err != nil {
		return nil, err
	}
	return res.Forest, nil
}

// aggregate broadcasts root addresses before converging. No routed
// gossip reads the addresses, but the broadcast is part of the protocol
// and its bill.
func (rt routed) aggregate(eng *sim.Engine, f *forest.Forest, converge func() error) error {
	if _, _, err := convergecast.BroadcastRootAddr(eng, f); err != nil {
		return err
	}
	return converge()
}

// gossipMax runs the Gossip-max gossip+sampling procedures over routed
// overlay paths.
func (rt routed) gossipMax(eng *sim.Engine, f *forest.Forest, init []float64) ([]float64, error) {
	roots := f.Roots()
	val := append([]float64(nil), init...)
	ticks := ticksPerIteration(rt.ov, f)
	n := eng.N()
	var path []int // this run's route scratch

	for t := 0; t < gossipIters(n); t++ {
		for k, r := range roots {
			if !eng.Alive(r) {
				continue // crashed roots place no calls
			}
			path = shipToRandomRoot(eng, rt.ov, f, r, sim.Payload{Kind: kindSparseVal, A: val[k]}, path)
		}
		drainTicks(eng, roots, ticks, func(k int, m sim.Message) {
			if m.Pay.Kind == kindSparseVal && m.Pay.A > val[k] {
				val[k] = m.Pay.A
			}
		})
	}
	// An inquiry reaches responder (a tree index) from inquirer (a node).
	type inquiry struct{ responder, inquirer int }
	for t := 0; t < sampleIters(n); t++ {
		var inquiries []inquiry
		for _, r := range roots {
			if !eng.Alive(r) {
				continue
			}
			path = shipToRandomRoot(eng, rt.ov, f, r, sim.Payload{Kind: kindSparseInq, X: int64(r)}, path)
		}
		drainTicks(eng, roots, ticks, func(k int, m sim.Message) {
			if m.Pay.Kind == kindSparseInq {
				inquiries = append(inquiries, inquiry{responder: k, inquirer: int(m.Pay.X)})
			}
		})
		for _, inq := range inquiries {
			responder := roots[inq.responder]
			path = rt.ov.RouteInto(responder, inq.inquirer, path)
			if len(path) == 0 {
				continue
			}
			eng.SendRouted(responder, path, sim.Payload{Kind: kindSparseReply, A: val[inq.responder]})
		}
		drainTicks(eng, roots, ticks, func(k int, m sim.Message) {
			if m.Pay.Kind == kindSparseReply && m.Pay.A > val[k] {
				val[k] = m.Pay.A
			}
		})
	}
	return val, nil
}

// gossipAve runs push-sum over roots on routed overlay paths. With
// reliable set, shares travel with link-layer retransmission and are
// restored to the sender when undeliverable, so no push-sum mass is ever
// destroyed — required by the distinguished-root Sum/Count variants,
// whose denominator is a single unit of mass (see gossip.AveOptions).
// Shares carry (s, g) only: the routed transport has no Σv² component.
func (rt routed) gossipAve(eng *sim.Engine, f *forest.Forest, init []convergecast.SumCount, reliable bool) (*gossip.AveResult, error) {
	roots := f.Roots()
	s := make([]float64, len(roots))
	g := make([]float64, len(roots))
	for k, sc := range init {
		s[k], g[k] = sc.Sum, sc.Count
	}
	ticks := ticksPerIteration(rt.ov, f)
	// In reliable mode, shares are tracked until their delivery round:
	// if the destination root crashes while they are in flight, the
	// engine discards them and the sender's ack times out — the share is
	// restored, so mid-run crashes cannot bleed push-sum mass (a no-op
	// in the static model).
	type inflight struct {
		k, dst, due int // sender's tree index, destination node, due round
		s, g        float64
	}
	var pendingShares []inflight
	var full []int // this run's route scratch
	for t := 0; t < aveIters(eng.N()); t++ {
		for k, r := range roots {
			if !eng.Alive(r) {
				continue // a crashed root's (s, g) mass freezes in place
			}
			full = sampleRootPath(eng, rt.ov, f, r, full)
			if len(full) == 0 {
				continue // sampled own root (or a dead end); mass stays
			}
			halfS, halfG := s[k]/2, g[k]/2
			pay := sim.Payload{Kind: kindSparseShare, A: halfS, B: halfG}
			s[k], g[k] = halfS, halfG
			if reliable {
				if !eng.SendRoutedReliable(r, full, pay, 0) {
					s[k], g[k] = s[k]*2, g[k]*2 // undeliverable: restore
				} else {
					pendingShares = append(pendingShares, inflight{
						k: k, dst: full[len(full)-1],
						due: eng.Round() + len(full), s: halfS, g: halfG,
					})
				}
			} else {
				eng.SendRouted(r, full, pay)
			}
		}
		for tick := 0; tick < ticks; tick++ {
			eng.Tick()
			if len(pendingShares) > 0 {
				kept := pendingShares[:0]
				for _, sh := range pendingShares {
					switch {
					case sh.due > eng.Round():
						kept = append(kept, sh) // still in flight
					case !eng.Alive(sh.dst):
						s[sh.k] += sh.s // ack timeout: restore
						g[sh.k] += sh.g
					}
				}
				pendingShares = kept
			}
			for k, r := range roots {
				for _, m := range eng.Inbox(r) {
					if m.Pay.Kind == kindSparseShare {
						s[k] += m.Pay.A
						g[k] += m.Pay.B
					}
				}
			}
			if eng.WantResidual() {
				eng.ReportResidual(gossip.EstimateSpread(s, g))
			}
		}
	}
	return &gossip.AveResult{Estimates: gossip.Ratios(s, g), S: s, G: g}, nil
}
