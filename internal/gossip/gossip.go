// Package gossip implements Phase III of DRR-gossip: the root-level
// gossip algorithms of the paper — Gossip-max (Algorithm 4), Data-spread
// (Algorithm 5) and Gossip-ave (Algorithm 6, a push-sum variant, which
// also carries Σv² for mean and variance).
//
// All three run on the virtual clique G̃ = clique(V̂) of tree roots. A root
// selects a node uniformly at random from all of V and sends it a message;
// a non-root forwards the message to its own root within the same round
// (the non-address-oblivious step, 2 hops = 2 messages via sim.SendVia).
// Consequently a root is selected with probability proportional to its
// tree size — exactly the non-uniformity the paper's Theorems 5-7 analyse.
//
// Root state is a slice indexed by tree: position k holds the state of
// root f.Roots()[k].
//
// Per-message loss needs no special handling here: Gossip-max tolerates it
// statistically (Theorem 5 carries the (1-ρ) factor) and is finished off
// by the sampling procedure (Theorem 6); in Gossip-ave a lost share
// removes proportional (s, g) mass, which perturbs but does not bias the
// converging ratio (Lemma 8 keeps the (1-δ) selection factor).
package gossip

import (
	"fmt"
	"math"

	"drrgossip/internal/convergecast"
	"drrgossip/internal/forest"
	"drrgossip/internal/sim"
)

const (
	kindGossipVal uint8 = 0x31
	kindInquiry   uint8 = 0x32
	kindInqReply  uint8 = 0x33
	kindAveShare  uint8 = 0x34
)

// lossInflate scales a round budget by the paper's 1/(1-ρ) factor, where
// ρ = 2δ is the per-relay link-failure probability, further divided by the
// alive fraction (shares aimed at initially-crashed relays are wasted
// rounds).
func lossInflate(base int, eng *sim.Engine) int {
	rho := 2 * eng.Loss()
	if rho >= 0.9 {
		rho = 0.9
	}
	alive := float64(eng.NumAlive()) / float64(eng.N())
	return int(math.Ceil(float64(base)/((1-rho)*alive))) + 1
}

// gossipRounds is Gossip-max's O(log n) gossip-procedure length,
// 2·ceil(log2 n) + 12 iterations of one round each, loss-inflated.
func gossipRounds(eng *sim.Engine) int {
	return lossInflate(2*ceilLog2(eng.N())+12, eng)
}

// sampleRounds is Gossip-max's O(log n) sampling-procedure length,
// ceil(log2 n) + 8 iterations of two rounds each, loss-inflated.
func sampleRounds(eng *sim.Engine) int {
	return lossInflate(ceilLog2(eng.N())+8, eng)
}

// aveRounds is the push-sum length of Gossip-ave, 4·ceil(log2 n) + 24
// iterations — the paper's
// O(log m + log 1/ε) with ε = n^-2 — loss-inflated.
func aveRounds(eng *sim.Engine) int {
	return lossInflate(4*ceilLog2(eng.N())+24, eng)
}

func ceilLog2(n int) int {
	l := int(math.Ceil(math.Log2(float64(n))))
	if l < 1 {
		l = 1
	}
	return l
}

// MaxResult is the outcome of Gossip-max.
type MaxResult struct {
	// Estimates holds each root's final Max estimate (after sampling),
	// indexed by tree.
	Estimates []float64
	// AfterGossip holds the estimates after the gossip procedure only —
	// the quantity Theorem 5 bounds (a constant fraction of roots already
	// hold the true Max).
	AfterGossip []float64
	Stats       sim.Counters
}

// checkInputs validates the shared preconditions of the Phase III entry
// points; inits is the length of the per-tree init slice.
func checkInputs(eng *sim.Engine, f *forest.Forest, rootTo []int, inits int) error {
	if f.N() != eng.N() {
		return fmt.Errorf("gossip: forest has %d nodes, engine %d", f.N(), eng.N())
	}
	if len(rootTo) != eng.N() {
		return fmt.Errorf("gossip: rootTo has %d entries, engine %d", len(rootTo), eng.N())
	}
	if f.NumTrees() == 0 {
		return fmt.Errorf("gossip: empty forest")
	}
	if inits != f.NumTrees() {
		return fmt.Errorf("gossip: %d init values for %d trees", inits, f.NumTrees())
	}
	return nil
}

// relayTarget picks the relay node j (uniform over V minus the chooser)
// and the destination root it forwards to. A crashed or root-less relay
// still consumes the send (the message dies at the relay).
func relayTarget(eng *sim.Engine, rootTo []int, chooser int) (relay, dst int) {
	j := eng.RNG(chooser).IntnOther(eng.N(), chooser)
	dst = rootTo[j]
	if dst < 0 {
		dst = j // dead end: deliver "to the relay", which drops it
	}
	return j, dst
}

// Max runs Algorithm 4 on the roots of f. init holds every tree's
// initial value (e.g. the convergecast-max of its tree); rootTo gives
// every node's root address (from the Phase II broadcast).
func Max(eng *sim.Engine, f *forest.Forest, rootTo []int, init []float64) (*MaxResult, error) {
	if err := checkInputs(eng, f, rootTo, len(init)); err != nil {
		return nil, err
	}
	start := eng.Stats()
	roots := f.Roots()
	val := append([]float64(nil), init...)

	gRounds, sRounds := gossipRounds(eng), sampleRounds(eng)

	// Gossip procedure: push the current estimate to a random node's root.
	// Roots that crash mid-run place no further calls (their estimate
	// freezes; the rest of the clique keeps gossiping).
	for t := 0; t < gRounds; t++ {
		for k, r := range roots {
			if !eng.Alive(r) {
				continue
			}
			relay, dst := relayTarget(eng, rootTo, r)
			eng.SendVia(r, relay, dst, sim.Payload{Kind: kindGossipVal, A: val[k]})
		}
		eng.Tick()
		for k, r := range roots {
			for _, m := range eng.Inbox(r) {
				if m.Pay.Kind == kindGossipVal && m.Pay.A > val[k] {
					val[k] = m.Pay.A
				}
			}
		}
	}
	after := append([]float64(nil), val...)

	// Sampling procedure: inquire a random node's root and adopt its
	// value if larger. Each iteration takes two rounds (inquiry out,
	// reply back).
	for t := 0; t < sRounds; t++ {
		for _, r := range roots {
			if !eng.Alive(r) {
				continue
			}
			relay, dst := relayTarget(eng, rootTo, r)
			eng.SendVia(r, relay, dst, sim.Payload{Kind: kindInquiry, X: int64(r)})
		}
		eng.Tick()
		for k, r := range roots {
			for _, m := range eng.Inbox(r) {
				if m.Pay.Kind == kindInquiry {
					eng.Send(r, int(m.Pay.X), sim.Payload{Kind: kindInqReply, A: val[k]})
				}
			}
		}
		eng.Tick()
		for k, r := range roots {
			for _, m := range eng.Inbox(r) {
				if m.Pay.Kind == kindInqReply && m.Pay.A > val[k] {
					val[k] = m.Pay.A
				}
			}
		}
	}
	return &MaxResult{
		Estimates:   val,
		AfterGossip: after,
		Stats:       eng.Stats().Sub(start),
	}, nil
}

// Spread runs Data-spread (Algorithm 5): the source root's value is
// spread to all roots by running Gossip-max with every other root
// initialised to -Inf.
func Spread(eng *sim.Engine, f *forest.Forest, rootTo []int, source int, value float64) (*MaxResult, error) {
	k := f.RootIndex(source)
	if k < 0 {
		return nil, fmt.Errorf("gossip: spread source %d is not a root", source)
	}
	return Max(eng, f, rootTo, SpreadInit(f.NumTrees(), k, value))
}

// SpreadInit is Data-spread's Gossip-max input: value at tree source,
// -Inf at every other tree.
func SpreadInit(trees, source int, value float64) []float64 {
	init := make([]float64, trees)
	for k := range init {
		init[k] = math.Inf(-1)
	}
	init[source] = value
	return init
}

// ElectionKeys encodes every tree's (size, root id), indexed by tree,
// into an exactly-representable float64, so Gossip-max over the keys
// elects a unique largest-tree root. Sizes come from the
// convergecast-sum counts. Sizes and ids stay below 2^24, so
// size*2^24 + id < 2^48 < 2^53.
func ElectionKeys(f *forest.Forest, sums []convergecast.SumCount) []float64 {
	keys := make([]float64, len(sums))
	for k, sc := range sums {
		keys[k] = float64(int(sc.Count))*(1<<24) + float64(f.Roots()[k])
	}
	return keys
}

// ElectedRoot decodes the root id of the winning key from Gossip-max's
// estimates over election keys. Each root compares the winning key
// against its own to decide whether it won; the winner's own estimate
// is always >= its own key, so the maximum estimate is exactly the
// winning key.
func ElectedRoot(est []float64) int {
	maxKey := math.Inf(-1)
	for _, v := range est {
		if v > maxKey {
			maxKey = v
		}
	}
	return int(int64(maxKey) & (1<<24 - 1))
}

// AveOptions tune Gossip-ave.
type AveOptions struct {
	// TrackRoot records the per-round estimate trajectory of this root
	// (-1 to disable): the convergence curve of Theorem 7.
	TrackRoot int
	// TrackPotential additionally maintains the contribution vectors
	// y_{t,i} of the analysis and records the potential Φ_t of Lemma 8
	// every round. Costs O(m^2) memory; enable only in experiments.
	TrackPotential bool
	// ReliableShares retransmits each share until delivered (bounded
	// retries) and restores it to the sender if it never arrives, so no
	// push-sum mass is ever destroyed — the paper's "repeated calls"
	// remedy for lossy links. The Ave aggregate does not need this
	// (losses cancel in its ratio), but the distinguished-root Sum and
	// Count variants do: their denominator starts as a single unit of
	// mass whose early loss would permanently skew the result.
	ReliableShares bool
}

// AveResult is the outcome of Gossip-ave.
type AveResult struct {
	// Estimates holds each root's final Ave estimate s/g, indexed by
	// tree.
	Estimates []float64
	// S and G are the final push-sum components by tree; S2 is the Σv²
	// component, nil unless some init vector carried Sum2.
	S, G, S2 []float64
	// Trajectory is the estimate of TrackRoot after each round.
	Trajectory []float64
	// Potential is Φ_t after each round when TrackPotential is set.
	Potential []float64
	Stats     sim.Counters
}

// Ave runs Algorithm 6 (push-sum over roots with tree-relay): every root
// starts with (s, g) = (local sum, tree size) from Convergecast-sum
// (init, indexed by tree); each
// round it keeps half and pushes half to a random node's root. The ratio
// s/g at the largest-tree root converges to the global average at the
// rate of Theorem 7.
// When some init vector carries Sum2 (Σv², from convergecast.Moments),
// s2 rides in the same shares, so s2/g converges to the mean square. An
// all-zero component stays zero, so without Sum2 none is tracked.
func Ave(eng *sim.Engine, f *forest.Forest, rootTo []int, init []convergecast.SumCount, opts AveOptions) (*AveResult, error) {
	if err := checkInputs(eng, f, rootTo, len(init)); err != nil {
		return nil, err
	}
	track := -1
	if opts.TrackRoot >= 0 {
		if track = f.RootIndex(opts.TrackRoot); track < 0 {
			return nil, fmt.Errorf("gossip: tracked node %d is not a root", opts.TrackRoot)
		}
	}
	start := eng.Stats()
	roots := f.Roots()
	s := make([]float64, len(roots))
	g := make([]float64, len(roots))
	var s2 []float64 // nil unless some root carries Sum2
	for k, sc := range init {
		s[k] = sc.Sum
		g[k] = sc.Count
		if sc.Sum2 != 0 {
			if s2 == nil {
				s2 = make([]float64, len(roots))
			}
			s2[k] = sc.Sum2
		}
	}
	rounds := aveRounds(eng)

	// Optional contribution tracking for the Lemma 8 potential.
	var (
		y [][]float64 // y[i][j]: root i's contribution from root j
		w []float64   // dummy weights, w0 = 1
	)
	if opts.TrackPotential {
		m := len(roots)
		y = make([][]float64, m)
		for k := range y {
			y[k] = make([]float64, m)
			y[k][k] = 1
		}
		w = make([]float64, m)
		for k := range w {
			w[k] = 1
		}
	}
	potential := func() float64 {
		m := float64(len(roots))
		phi := 0.0
		for k := range y {
			for j := range y[k] {
				d := y[k][j] - w[k]/m
				phi += d * d
			}
		}
		return phi
	}

	var trajectory, potentials []float64
	for t := 0; t < rounds; t++ {
		// Halve and push. The half leaves the sender regardless of
		// delivery (loss destroys mass, as in the analysis).
		type shipment struct {
			dst int
			vec []float64 // snapshot of the shipped contribution share
			w   float64
		}
		var shipped []shipment
		type inflight struct {
			k, dst int  // sender's tree index, destination node
			lost   bool // every retry failed
		}
		var reliableSent []inflight
		for k, r := range roots {
			if !eng.Alive(r) {
				// A crashed root pushes nothing: its mass freezes in
				// place instead of being silently halved away.
				continue
			}
			relay, dst := relayTarget(eng, rootTo, r)
			if !eng.Alive(relay) ||
				(opts.ReliableShares && (!f.IsRoot(dst) || !eng.Alive(dst))) {
				// The call to the relay is never established (crashed
				// relay), or — in reliable mode — the destination cannot
				// take the share: no live root to credit, or the root is
				// currently down (a dead-at-send destination never has
				// the message scheduled, so Drops-sniffing would wrongly
				// report it delivered). Both are possible only under
				// dynamic membership. The sender detects the failure and
				// retains its share; only the call attempt is paid for.
				// Silent link loss below does destroy mass, as in the
				// paper's (1-δ) analysis.
				eng.Send(r, relay, sim.Payload{Kind: kindAveShare})
				continue
			}
			s[k] /= 2
			g[k] /= 2
			pay := sim.Payload{Kind: kindAveShare, A: s[k], B: g[k], X: int64(r)}
			if s2 != nil {
				s2[k] /= 2
				pay.C = s2[k]
			}
			before := eng.Stats().Drops
			eng.SendVia(r, relay, dst, pay)
			delivered := eng.Stats().Drops == before
			if opts.ReliableShares {
				for try := 0; try < 8 && !delivered; try++ {
					before = eng.Stats().Drops
					eng.SendVia(r, relay, dst, pay)
					delivered = eng.Stats().Drops == before
				}
				// Track the share until its ack: if every retry failed,
				// or dst crashes before the next Tick (the engine then
				// discards the message; mid-run crashes only), the
				// sender takes it back, so no mass leaves the system.
				reliableSent = append(reliableSent, inflight{k: k, dst: dst, lost: !delivered})
			}
			if opts.TrackPotential {
				// Mirror the halving in the contribution vectors and
				// snapshot the shipped share before any delivery this
				// round can mutate it. A reliably-restored share leaves
				// the vectors untouched.
				if !(opts.ReliableShares && !delivered) {
					for j := range y[k] {
						y[k][j] /= 2
					}
					w[k] /= 2
					if dk := f.RootIndex(dst); delivered && dk >= 0 {
						shipped = append(shipped, shipment{
							dst: dk,
							vec: append([]float64(nil), y[k]...),
							w:   w[k],
						})
					}
				}
			}
		}
		eng.Tick()
		for _, sh := range reliableSent {
			if sh.lost || !eng.Alive(sh.dst) {
				// Ack timeout: put the share back. Until the inbox pass
				// below the sender still holds exactly the half it
				// shipped, so doubling restores it.
				s[sh.k] *= 2
				g[sh.k] *= 2
				if s2 != nil {
					s2[sh.k] *= 2
				}
			}
		}
		for k, r := range roots {
			for _, m := range eng.Inbox(r) {
				if m.Pay.Kind == kindAveShare {
					s[k] += m.Pay.A
					g[k] += m.Pay.B
					if s2 != nil {
						s2[k] += m.Pay.C
					}
				}
			}
		}
		if eng.WantResidual() {
			eng.ReportResidual(EstimateSpread(s, g))
		}
		if opts.TrackPotential {
			for _, sh := range shipped {
				for j := range y[sh.dst] {
					y[sh.dst][j] += sh.vec[j]
				}
				w[sh.dst] += sh.w
			}
			potentials = append(potentials, potential())
		}
		if track >= 0 {
			if gv := g[track]; gv != 0 {
				trajectory = append(trajectory, s[track]/gv)
			} else {
				trajectory = append(trajectory, math.NaN())
			}
		}
	}

	return &AveResult{
		Estimates:  Ratios(s, g),
		S:          s,
		G:          g,
		S2:         s2,
		Trajectory: trajectory,
		Potential:  potentials,
		Stats:      eng.Stats().Sub(start),
	}, nil
}

// Ratios is each tree's push-sum estimate num/g, NaN where no weight
// ever arrived. The sparse pipeline reads its estimates the same way.
func Ratios(num, g []float64) []float64 {
	est := make([]float64, len(g))
	for k, gv := range g {
		if gv != 0 {
			est[k] = num[k] / gv
		} else {
			est[k] = math.NaN()
		}
	}
	return est
}

// EstimateSpread is the convergence residual the gossip drivers report
// when a round observer is attached: the spread (max − min) of the
// running ratio estimate s/g across roots with nonzero mass, which
// push-sum drives to zero as shares mix. NaN when no root has mass yet.
// It only reads driver state, so reporting it cannot perturb a run. The
// sparse pipeline reports the same quantity over its own share slices.
func EstimateSpread(s, g []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for k, gv := range g {
		if gv != 0 {
			est := s[k] / gv
			if est < lo {
				lo = est
			}
			if est > hi {
				hi = est
			}
		}
	}
	if hi < lo {
		return math.NaN()
	}
	return hi - lo
}
