// Package kashyap implements the "efficient gossip" baseline of Kashyap,
// Deb, Naidu, Rastogi and Srinivasan (PODS 2006) — the O(n log log n)
// message, O(log n log log n) time comparator of Table 1.
//
// The original paper is a closed comparator; this is a reconstruction
// from its published contract, which the reproduced paper restates:
// randomly cluster the nodes into groups of size O(log n), then let the
// group representatives gossip (DESIGN.md §4, substitution 2).
//
// Structure: Θ(log log n) synchronous merge phases build clusters
// (trees). In each phase every cluster root flips a proposer/acceptor
// coin (Boruvka-style symmetry breaking: proposal edges go proposer ->
// acceptor, so no cycles); proposers sample a random node, learn its
// root, and ask it to adopt their tree; acceptors adopt any number of
// trees up to a size cap of Θ(log n). Each phase ends with a root-address
// broadcast and is padded to a fixed Θ(log n) round budget — the
// synchronous schedule that gives the algorithm its Θ(log n log log n)
// running time. Messages: O(#roots + n) per phase = O(n log log n) total.
// Phases II/III then reuse the same convergecast and root-gossip
// machinery as DRR-gossip, so Table 1 measures exactly the cost of the
// different Phase I constructions.
package kashyap

import (
	"errors"
	"fmt"
	"math"

	"drrgossip/internal/convergecast"
	"drrgossip/internal/forest"
	"drrgossip/internal/gossip"
	"drrgossip/internal/sim"
)

// Result mirrors the DRR-gossip result shape for the harness.
type Result struct {
	Value     float64
	PerNode   []float64
	Consensus bool
	Forest    *forest.Forest
	// BuildStats covers the cluster construction (this algorithm's
	// phase I); Stats covers the whole run.
	BuildStats sim.Counters
	Stats      sim.Counters
}

// ErrNoNodes is returned when no node is alive.
var ErrNoNodes = errors.New("kashyap: no alive nodes")

const (
	kindWhoIsRoot uint8 = 0x61
	kindPropose   uint8 = 0x62
)

func ceilLog2(n int) int {
	l := int(math.Ceil(math.Log2(float64(n))))
	if l < 1 {
		l = 1
	}
	return l
}

// phases is the number of merge phases, ceil(log2 log2 n) (minimum 2).
func phases(n int) int {
	p := int(math.Ceil(math.Log2(float64(ceilLog2(n)))))
	if p < 2 {
		p = 2
	}
	return p
}

// subRounds is the number of merge attempts per phase.
const subRounds = 3

// sizeCap is the cluster size cap, 4·ceil(log2 n).
func sizeCap(n int) int { return 4 * ceilLog2(n) }

// phaseBudget is the synchronous round budget of one phase,
// ceil(log2 n) + 4.
func phaseBudget(n int) int { return ceilLog2(n) + 4 }

// BuildForest runs the clustering phases and returns the cluster forest
// plus each node's root address.
func BuildForest(eng *sim.Engine) (*forest.Forest, []int, sim.Counters, error) {
	n := eng.N()
	start := eng.Stats()
	parent := make([]int, n)
	rootTo := make([]int, n) // current root-address knowledge per node
	size := make([]int, n)   // cluster size, maintained at roots
	for i := 0; i < n; i++ {
		if eng.Alive(i) {
			parent[i] = forest.Root
			rootTo[i] = i
			size[i] = 1
		} else {
			parent[i] = forest.NotMember
			rootTo[i] = -1
		}
	}
	isRoot := func(i int) bool { return parent[i] == forest.Root }
	calls := make([]sim.Call, n)
	maxSize := sizeCap(n)

	for phase := 0; phase < phases(n); phase++ {
		phaseStart := eng.Round()
		for sub := 0; sub < subRounds; sub++ {
			// Role flip: proposers seek adoption, acceptors adopt.
			proposer := make([]bool, n)
			learned := make([]int, n) // sampled node's root, -1 unknown
			for i := 0; i < n; i++ {
				learned[i] = -1
				if eng.Alive(i) && isRoot(i) {
					proposer[i] = eng.RNG(i).Bool(0.5)
				}
			}
			// Step 1: proposers sample a random node and ask for its root.
			eng.Tick()
			for i := 0; i < n; i++ {
				calls[i] = sim.Call{}
				if eng.Alive(i) && isRoot(i) && proposer[i] {
					u := eng.RNG(i).IntnOther(n, i)
					calls[i] = sim.Call{Active: true, To: u, Pay: sim.Payload{Kind: kindWhoIsRoot}}
				}
			}
			eng.ResolveCalls(calls,
				func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
					return sim.Payload{Kind: kindWhoIsRoot, X: int64(rootTo[callee])}, true
				},
				func(caller int, resp sim.Payload) {
					learned[caller] = int(resp.X)
				})
			// Step 2: proposers ask the learned root to adopt their tree.
			eng.Tick()
			for i := 0; i < n; i++ {
				calls[i] = sim.Call{}
				if eng.Alive(i) && isRoot(i) && proposer[i] && learned[i] >= 0 && learned[i] != i {
					calls[i] = sim.Call{Active: true, To: learned[i], Pay: sim.Payload{Kind: kindPropose, X: int64(size[i])}}
				}
			}
			eng.ResolveCalls(calls,
				func(callee, caller int, req sim.Payload) (sim.Payload, bool) {
					// Adopt only while a root, an acceptor, and under cap.
					if !isRoot(callee) || proposer[callee] || size[callee]+int(req.X) > maxSize {
						return sim.Payload{}, false
					}
					size[callee] += int(req.X)
					return sim.Payload{Kind: kindPropose}, true
				},
				func(caller int, resp sim.Payload) {
					parent[caller] = learned[caller]
				})
		}
		// Refresh root-address knowledge down the merged trees.
		f, err := forest.FromParents(parent)
		if err != nil {
			return nil, nil, eng.Stats().Sub(start), fmt.Errorf("kashyap: invalid forest: %w", err)
		}
		fresh, _, err := convergecast.BroadcastRootAddr(eng, f)
		if err != nil {
			return nil, nil, eng.Stats().Sub(start), err
		}
		rootTo = fresh
		// Pad to the synchronous phase budget (idle rounds still tick).
		for eng.Round()-phaseStart < phaseBudget(n) {
			eng.Tick()
		}
	}
	f, err := forest.FromParents(parent)
	if err != nil {
		return nil, nil, eng.Stats().Sub(start), fmt.Errorf("kashyap: invalid forest: %w", err)
	}
	return f, rootTo, eng.Stats().Sub(start), nil
}

// Max computes the global maximum with efficient gossip.
func Max(eng *sim.Engine, values []float64) (*Result, error) {
	if len(values) != eng.N() {
		return nil, fmt.Errorf("kashyap: %d values for %d nodes", len(values), eng.N())
	}
	runStart := eng.Stats()
	f, rootTo, build, err := BuildForest(eng)
	if err != nil {
		return nil, err
	}
	if f.NumTrees() == 0 {
		return nil, ErrNoNodes
	}
	covmax, _, err := convergecast.Max(eng, f, values)
	if err != nil {
		return nil, err
	}
	gres, err := gossip.Max(eng, f, rootTo, covmax)
	if err != nil {
		return nil, err
	}
	perNode, _, err := convergecast.BroadcastValue(eng, f, gres.Estimates)
	if err != nil {
		return nil, err
	}
	return finish(eng, f, perNode[f.LargestRoot()], perNode, build, runStart), nil
}

// Ave computes the global average with efficient gossip, following the
// same elect/push-sum/spread structure as DRR-gossip-ave.
func Ave(eng *sim.Engine, values []float64) (*Result, error) {
	if len(values) != eng.N() {
		return nil, fmt.Errorf("kashyap: %d values for %d nodes", len(values), eng.N())
	}
	runStart := eng.Stats()
	f, rootTo, build, err := BuildForest(eng)
	if err != nil {
		return nil, err
	}
	if f.NumTrees() == 0 {
		return nil, ErrNoNodes
	}
	covsum, _, err := convergecast.Sum(eng, f, values)
	if err != nil {
		return nil, err
	}
	kres, err := gossip.Max(eng, f, rootTo, gossip.ElectionKeys(f, covsum))
	if err != nil {
		return nil, err
	}
	z := gossip.ElectedRoot(kres.Estimates)
	zk := f.RootIndex(z)
	if zk < 0 {
		return nil, fmt.Errorf("kashyap: elected node %d is not a root", z)
	}
	ares, err := gossip.Ave(eng, f, rootTo, covsum, gossip.AveOptions{TrackRoot: -1})
	if err != nil {
		return nil, err
	}
	sres, err := gossip.Spread(eng, f, rootTo, z, ares.Estimates[zk])
	if err != nil {
		return nil, err
	}
	perNode, _, err := convergecast.BroadcastValue(eng, f, sres.Estimates)
	if err != nil {
		return nil, err
	}
	return finish(eng, f, ares.Estimates[zk], perNode, build, runStart), nil
}

func finish(eng *sim.Engine, f *forest.Forest, value float64, perNode []float64, build, runStart sim.Counters) *Result {
	consensus := true
	for i, v := range perNode {
		if f.Member(i) && (v != value || math.IsNaN(v)) {
			consensus = false
			break
		}
	}
	return &Result{
		Value:      value,
		PerNode:    perNode,
		Consensus:  consensus,
		Forest:     f,
		BuildStats: build,
		Stats:      eng.Stats().Sub(runStart),
	}
}
