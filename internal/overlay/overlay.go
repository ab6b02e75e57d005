// Package overlay abstracts the communication substrate of the
// Section 4 sparse pipeline (Local-DRR → routed root-level gossip →
// dissemination) behind a single interface, so the pipeline runs on any
// connected graph instead of only the Chord ring it was written against.
//
// An Overlay bundles the three capabilities the sparse protocols need:
//
//   - a communication graph (Local-DRR exchanges ranks over its edges and
//     the ranking trees are subgraphs of it),
//   - a point-to-point router that turns a "virtual edge" between tree
//     roots into a hop path of real graph edges, and
//   - a random-node sampler (the paper's "choosing a random peer"
//     primitive) whose message cost the routing bill must include.
//
// Chord keeps its native finger-table router and rejection sampler
// (preserving the pre-refactor message accounting exactly); every other
// graph gets the generic landmark-tree router of this package, which
// needs only O(n) state and routes in at most 2·ecc(landmark) hops.
//
// Overlays are built by name through a registry (see registry.go), so a
// new topology is one Register call plus a graph generator.
package overlay

import (
	"drrgossip/internal/graph"
	"drrgossip/internal/xrand"
)

// Overlay is a pluggable communication substrate for the sparse
// DRR-gossip pipeline.
type Overlay interface {
	// Name identifies the overlay for reports ("chord(1024)", ...).
	Name() string

	// Graph returns the undirected communication graph the overlay is
	// built on. Local-DRR runs on its edges; the result must be the same
	// object on every call (construction happens once).
	Graph() *graph.Graph

	// RouteInto appends the hop path from node `from` to node `to` to
	// buf[:0] and returns the extended buffer: the path excludes `from`,
	// ends at `to`, and is empty when from == to. Every consecutive pair
	// must be an edge of Graph(). The caller owns buf (the contract of
	// graph.NeighborsInto): implementations write nothing else, so batch
	// workers sharing one overlay each pass their own buffer.
	RouteInto(from, to int, buf []int) []int

	// SampleInto draws a (near-)uniform random node using rng, as seen
	// from node `from`. It returns the sampled node, the hop path from
	// `from` to it (written into buf as RouteInto does; empty when the
	// sample is `from` itself), and the total routing hops spent
	// including rejected attempts — the message cost of the sample,
	// which callers must charge to the network bill.
	SampleInto(rng *xrand.Stream, from int, buf []int) (node int, path []int, totalHops int)

	// RouteBound returns an upper bound on the length of any path that
	// RouteInto or SampleInto can return. The pipeline uses it to size its
	// per-iteration drain window.
	RouteBound() int
}
