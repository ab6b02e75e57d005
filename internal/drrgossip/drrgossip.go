// Package drrgossip composes the three phases of the paper into the
// complete DRR-gossip algorithms: DRR-gossip-max (Algorithm 7),
// DRR-gossip-ave (Algorithm 8) and the derived aggregates (Min, Sum,
// Count, Rank, Moments) obtained by the paper's "suitable modifications".
//
// Every pipeline runs on the complete graph (a nil overlay) or on any
// overlay.Overlay. The three phases are the same on both; only the
// transport differs (see transport): DRR or Local-DRR builds the forest,
// and root gossip goes over random calls or routed overlay paths.
//
// Complexity on the complete graph (Theorems 2-7): O(log n) rounds and
// O(n log log n) messages, the message bill dominated by Phase I; Phases
// II and III cost O(n) messages each. On overlays see sparse.go.
//
// Sum and Count use the distinguished-root form of push-sum: Gossip-max
// on (tree size, root id) keys elects the largest-tree root z (as in
// Algorithm 8), and Gossip-ave runs with weight g0 = 1 at z and 0
// elsewhere, so every ratio converges to Σ s0 / 1 — the global sum (with
// s0 = tree sums) or the live node count (with s0 = tree sizes).
package drrgossip

import (
	"errors"
	"fmt"
	"math"

	"drrgossip/internal/agg"
	"drrgossip/internal/convergecast"
	"drrgossip/internal/drr"
	"drrgossip/internal/forest"
	"drrgossip/internal/gossip"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
)

// Phase labels the pipelines record on the engine (sim.SetPhase) as they
// progress, so per-round observers can attribute time to the paper's
// phases. Observability only — no protocol logic reads them.
const (
	PhaseDRR       = "drr"       // Phase I: (Local-)DRR forest building
	PhaseAggregate = "aggregate" // Phase II: convergecast + root-address broadcast
	PhaseGossip    = "gossip"    // Phase III: root-level gossip (max/ave/spread)
	PhaseBroadcast = "broadcast" // final dissemination down the trees
)

// PhaseStats breaks the run's cost into the paper's phases.
type PhaseStats struct {
	DRR       sim.Counters // Phase I
	Aggregate sim.Counters // Phase II: convergecast(s) + root-address broadcast
	Gossip    sim.Counters // Phase III: gossip-max (+ gossip-ave + data-spread)
	Broadcast sim.Counters // final dissemination down the trees
}

// Total sums the phase counters, all five fields.
func (p PhaseStats) Total() sim.Counters {
	t := p.DRR
	for _, c := range []sim.Counters{p.Aggregate, p.Gossip, p.Broadcast} {
		t.Rounds += c.Rounds
		t.Messages += c.Messages
		t.Drops += c.Drops
		t.Blocked += c.Blocked
		t.Calls += c.Calls
	}
	return t
}

// Result is the outcome of a DRR-gossip run.
type Result struct {
	// Value is the aggregate at the distinguished root (the consensus
	// value whp).
	Value float64
	// PerNode is every node's final value (NaN for crashed nodes).
	PerNode []float64
	// Variance is the population variance E[v²] − E[v]² of a Moments
	// run, disseminated like Value (zero for the other aggregates).
	Variance float64
	// Consensus reports whether all alive nodes ended with the same value
	// (and, for Moments, the same variance).
	Consensus bool
	Forest    *forest.Forest
	Phases    PhaseStats
	Stats     sim.Counters
}

// ErrNoNodes is returned when the engine has no alive nodes to aggregate.
var ErrNoNodes = errors.New("drrgossip: no alive nodes")

// Max runs DRR-gossip-max (Algorithm 7) on ov (nil = the complete graph).
func Max(eng *sim.Engine, ov overlay.Overlay, values []float64) (*Result, error) {
	return maxPipeline(eng, ov, values, false)
}

// Min runs the Min variant of Algorithm 7 (Gossip-max on negated values).
func Min(eng *sim.Engine, ov overlay.Overlay, values []float64) (*Result, error) {
	return maxPipeline(eng, ov, values, true)
}

// transport is the part of a pipeline that depends on the topology:
// dense on the complete graph, routed on an overlay (sparse.go). Root
// state is a slice indexed by tree (position in f.Roots()).
type transport interface {
	// forest runs Phase I.
	forest(eng *sim.Engine) (*forest.Forest, error)
	// aggregate runs Phase II: the pipeline's convergecast and the
	// root-address broadcast, in the transport's order. The order is
	// observable: per-message loss is hashed on the send sequence.
	aggregate(eng *sim.Engine, f *forest.Forest, converge func() error) error
	// gossipMax and gossipAve run Phase III among the roots (Data-spread
	// is gossipMax on gossip.SpreadInit). gossipMax returns every root's
	// estimate, gossipAve the push-sum outcome (Estimates, S, G; S2 on
	// the dense transport only).
	gossipMax(eng *sim.Engine, f *forest.Forest, init []float64) ([]float64, error)
	gossipAve(eng *sim.Engine, f *forest.Forest, init []convergecast.SumCount, reliable bool) (*gossip.AveResult, error)
}

// dense is the complete-graph transport: DRR, then uniform random calls
// relayed through the trees.
type dense struct{ rootTo []int }

func (d *dense) forest(eng *sim.Engine) (*forest.Forest, error) {
	res, err := drr.Run(eng, drr.Options{})
	if err != nil {
		return nil, err
	}
	return res.Forest, nil
}

func (d *dense) aggregate(eng *sim.Engine, f *forest.Forest, converge func() error) error {
	if err := converge(); err != nil {
		return err
	}
	var err error
	d.rootTo, _, err = convergecast.BroadcastRootAddr(eng, f)
	return err
}

func (d *dense) gossipMax(eng *sim.Engine, f *forest.Forest, init []float64) ([]float64, error) {
	res, err := gossip.Max(eng, f, d.rootTo, init)
	if err != nil {
		return nil, err
	}
	return res.Estimates, nil
}

func (d *dense) gossipAve(eng *sim.Engine, f *forest.Forest, init []convergecast.SumCount, reliable bool) (*gossip.AveResult, error) {
	return gossip.Ave(eng, f, d.rootTo, init, gossip.AveOptions{TrackRoot: -1, ReliableShares: reliable})
}

// meter labels a run's phases on the engine in paper order and bills
// each from telescoping engine-counter snapshots, so the phase deltas
// sum to the run's total exactly, field by field.
type meter struct {
	eng   *sim.Engine
	marks []sim.Counters
}

var phaseOrder = [...]string{PhaseDRR, PhaseAggregate, PhaseGossip, PhaseBroadcast}

func startMeter(eng *sim.Engine) *meter {
	m := &meter{eng: eng}
	m.next()
	return m
}

// next closes the running phase and enters the following one.
func (m *meter) next() {
	m.marks = append(m.marks, m.eng.Stats())
	if k := len(m.marks) - 1; k < len(phaseOrder) {
		m.eng.SetPhase(phaseOrder[k])
	}
}

// phases closes the last phase and returns the run's bill.
func (m *meter) phases() PhaseStats {
	m.next()
	d := func(k int) sim.Counters { return m.marks[k+1].Sub(m.marks[k]) }
	return PhaseStats{DRR: d(0), Aggregate: d(1), Gossip: d(2), Broadcast: d(3)}
}

// begin validates the input, picks the transport for ov and runs Phases
// I and II, with converge as the pipeline's convergecast. It returns the
// meter in Phase III.
func begin(eng *sim.Engine, ov overlay.Overlay, values []float64, converge func(f *forest.Forest) error) (transport, *forest.Forest, *meter, error) {
	if len(values) != eng.N() {
		return nil, nil, nil, fmt.Errorf("drrgossip: %d values for %d nodes", len(values), eng.N())
	}
	var t transport = &dense{}
	if ov != nil {
		if eng.NumAlive() != eng.N() {
			return nil, nil, nil, ErrCrashedOverlay
		}
		if ov.Graph().N() != eng.N() {
			return nil, nil, nil, fmt.Errorf("drrgossip: overlay %s has %d nodes, engine %d", ov.Name(), ov.Graph().N(), eng.N())
		}
		t = routed{ov}
	}
	m := startMeter(eng)
	f, err := t.forest(eng)
	if err != nil {
		return nil, nil, nil, err
	}
	if f.NumTrees() == 0 {
		return nil, nil, nil, ErrNoNodes
	}
	m.next()
	if err := t.aggregate(eng, f, func() error { return converge(f) }); err != nil {
		return nil, nil, nil, err
	}
	m.next()
	return t, f, m, nil
}

func maxPipeline(eng *sim.Engine, ov overlay.Overlay, values []float64, negate bool) (*Result, error) {
	work := values
	if negate {
		work = make([]float64, len(values))
		for i, v := range values {
			work[i] = -v
		}
	}
	var covmax []float64
	t, f, m, err := begin(eng, ov, work, func(f *forest.Forest) (err error) {
		covmax, _, err = convergecast.Max(eng, f, work)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Phase III: gossip-max among roots.
	est, err := t.gossipMax(eng, f, covmax)
	if err != nil {
		return nil, err
	}

	// Final dissemination down the trees.
	m.next()
	perNode, _, err := convergecast.BroadcastValue(eng, f, est)
	if err != nil {
		return nil, err
	}
	value := bestEffortValue(eng, f, perNode[f.LargestRoot()], est)
	if negate {
		for i := range perNode {
			perNode[i] = -perNode[i]
		}
		value = -value
	}
	return finish(eng, f, value, perNode, m.phases()), nil
}

// bestEffortValue picks the run's reported value. In a healthy run the
// preferred value (the largest root's disseminated result) is finite and
// wins; when mid-run crashes leave it NaN, the first finite estimate of
// a live root stands in (any dead root's frozen estimate as a last
// resort), so faulty runs report a degraded answer instead of NaN.
func bestEffortValue(eng *sim.Engine, f *forest.Forest, preferred float64, est []float64) float64 {
	if !math.IsNaN(preferred) && !math.IsInf(preferred, 0) {
		return preferred
	}
	for _, pass := range [2]bool{true, false} { // live roots first; sorted order
		for k, r := range f.Roots() {
			if eng.Alive(r) != pass {
				continue
			}
			if v := est[k]; !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	}
	return preferred
}

// Ave runs DRR-gossip-ave (Algorithm 8) on ov (nil = the complete graph).
func Ave(eng *sim.Engine, ov overlay.Overlay, values []float64) (*Result, error) {
	return avePipeline(eng, ov, values, pushAve)
}

// Sum computes the global sum with the distinguished-root push-sum.
func Sum(eng *sim.Engine, ov overlay.Overlay, values []float64) (*Result, error) {
	return avePipeline(eng, ov, values, pushSum)
}

// Count computes the number of alive nodes (the Count aggregate).
func Count(eng *sim.Engine, ov overlay.Overlay, values []float64) (*Result, error) {
	return avePipeline(eng, ov, values, pushCount)
}

// Moments computes the global mean (Value) and population variance in
// one DRR-gossip-ave run with the pair (s, g) widened to (s, s2, g); the
// variance is spread and broadcast after the mean. It runs on the
// complete graph only: routed shares carry no Σv².
func Moments(eng *sim.Engine, values []float64) (*Result, error) {
	return avePipeline(eng, nil, values, pushMoments)
}

// Rank computes Rank(q) = |{i alive : v_i <= q}| by summing indicator
// values (the paper's Rank reduction).
func Rank(eng *sim.Engine, ov overlay.Overlay, values []float64, q float64) (*Result, error) {
	return Sum(eng, ov, agg.Indicator(values, q))
}

// pushMode selects how the Gossip-ave initial vectors are built from the
// per-tree convergecast results, given the elected largest root z.
type pushMode int

const (
	pushAve pushMode = iota
	pushSum
	pushCount
	pushMoments
)

// electRoot resolves the distinguished root's tree index from the
// Gossip-max estimates kest over the election keys. In a healthy run the
// decoded winner is a live root and is returned as-is. When mid-run
// crashes killed it (its tree's mass would be unreachable), the election
// falls back to the live root with the largest own key —
// deterministically, since Roots() is sorted — so the push-sum
// denominator is placed where it can still circulate.
func electRoot(eng *sim.Engine, f *forest.Forest, kest, keys []float64) (int, error) {
	won := gossip.ElectedRoot(kest)
	z := f.RootIndex(won)
	if z >= 0 && eng.Alive(won) {
		return z, nil
	}
	best, bestKey := -1, math.Inf(-1)
	for k, r := range f.Roots() {
		if eng.Alive(r) && keys[k] > bestKey {
			best, bestKey = k, keys[k]
		}
	}
	if best >= 0 {
		return best, nil
	}
	if z >= 0 {
		return z, nil // every root is dead; keep the elected one
	}
	return -1, fmt.Errorf("drrgossip: elected node %d is not a root", won)
}

func buildInit(mode pushMode, covsum []convergecast.SumCount, z int) []convergecast.SumCount {
	init := make([]convergecast.SumCount, len(covsum))
	for k, sc := range covsum {
		g := 0.0
		if k == z {
			g = 1
		}
		switch mode {
		case pushSum:
			// (tree sum, [r==z]): ratios converge to Σsums/1.
			sc = convergecast.SumCount{Sum: sc.Sum, Count: g}
		case pushCount:
			// (tree size, [r==z]): ratios converge to Σsizes/1 = n_alive.
			sc = convergecast.SumCount{Sum: sc.Count, Count: g}
		}
		// pushAve and pushMoments keep (tree sum[, sum2], tree size):
		// ratios converge to Σsums/Σsizes (and Σsum2s/Σsizes).
		init[k] = sc
	}
	return init
}

func avePipeline(eng *sim.Engine, ov overlay.Overlay, values []float64, mode pushMode) (*Result, error) {
	converge := convergecast.Sum
	if mode == pushMoments {
		converge = convergecast.Moments
	}
	var covsum []convergecast.SumCount
	t, f, m, err := begin(eng, ov, values, func(f *forest.Forest) (err error) {
		covsum, _, err = converge(eng, f, values)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Phase III(a): Gossip-max on (tree size, root id) keys elects the
	// largest-tree root z; every root learns the winning key, hence z.
	keys := gossip.ElectionKeys(f, covsum)
	kest, err := t.gossipMax(eng, f, keys)
	if err != nil {
		return nil, err
	}
	z, err := electRoot(eng, f, kest, keys)
	if err != nil {
		return nil, err
	}

	// Phase III(b): Gossip-ave; the guarantee (Theorem 7) holds at z.
	// Sum and Count run with reliable (acknowledged) shares: their
	// distinguished-root denominator is a single unit of mass whose loss
	// cannot be averaged away, unlike the Ave ratio where losses cancel.
	ave, err := t.gossipAve(eng, f, buildInit(mode, covsum, z), mode == pushSum || mode == pushCount)
	if err != nil {
		return nil, err
	}

	// Phase III(c): Data-spread of z's estimate to all roots. Under
	// mid-run crashes z's estimate can be NaN (or z freshly dead); the
	// spread then carries the best surviving estimate instead.
	value := bestEffortValue(eng, f, ave.Estimates[z], ave.Estimates)
	sest, err := t.gossipMax(eng, f, gossip.SpreadInit(f.NumTrees(), z, value))
	if err != nil {
		return nil, err
	}
	var variance float64
	var svar []float64
	if mode == pushMoments {
		var s2 float64 // S2 is nil when every value is zero
		if ave.S2 != nil {
			s2 = ave.S2[z]
		}
		variance = s2/ave.G[z] - value*value
		if svar, err = t.gossipMax(eng, f, gossip.SpreadInit(f.NumTrees(), z, variance)); err != nil {
			return nil, err
		}
	}

	// Final dissemination down the trees.
	m.next()
	perNode, _, err := convergecast.BroadcastValue(eng, f, sest)
	if err != nil {
		return nil, err
	}
	var perVar []float64
	if svar != nil {
		if perVar, _, err = convergecast.BroadcastValue(eng, f, svar); err != nil {
			return nil, err
		}
	}
	res := finish(eng, f, value, perNode, m.phases())
	if perVar != nil {
		res.Variance = variance
		res.Consensus = res.Consensus && agreed(eng, f, variance, perVar)
	}
	return res, nil
}

// agreed reports whether every node still alive at the end of the run
// holds value: a node that crashed mid-protocol no longer holds (or
// needs) the answer. In the static model every member is alive, so this
// is the original all-members check.
func agreed(eng *sim.Engine, f *forest.Forest, value float64, perNode []float64) bool {
	for i, v := range perNode {
		if !f.Member(i) || !eng.Alive(i) {
			continue
		}
		if v != value || math.IsNaN(v) {
			return false
		}
	}
	return true
}

func finish(eng *sim.Engine, f *forest.Forest, value float64, perNode []float64, ph PhaseStats) *Result {
	return &Result{
		Value:     value,
		PerNode:   perNode,
		Consensus: agreed(eng, f, value, perNode),
		Forest:    f,
		Phases:    ph,
		Stats:     ph.Total(),
	}
}
