package chord

import (
	"fmt"
	"math"
	"testing"

	"drrgossip/internal/xrand"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1, Options{}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := New(10, Options{Bits: 63}); err == nil {
		t.Fatal("Bits=63 accepted")
	}
}

func TestNewTooManyNodes(t *testing.T) {
	if _, err := New(10, Options{Bits: 3}); err == nil {
		t.Fatal("10 nodes in 8-id space accepted")
	}
}

func TestEvenPlacementIDs(t *testing.T) {
	r := MustNew(8, Options{Bits: 6})
	for i := 0; i < 8; i++ {
		if r.ID(i) != uint64(i*8) {
			t.Fatalf("even ID(%d) = %d", i, r.ID(i))
		}
		if r.Arc(i) != 8 {
			t.Fatalf("even Arc(%d) = %d", i, r.Arc(i))
		}
	}
}

func TestSuccessorOf(t *testing.T) {
	r := MustNew(8, Options{Bits: 6}) // ids 0,8,16,...,56
	cases := []struct {
		id   uint64
		want int
	}{
		{0, 0}, {1, 1}, {8, 1}, {9, 2}, {56, 7}, {57, 0}, {63, 0},
	}
	for _, c := range cases {
		if got := r.SuccessorOf(c.id); got != c.want {
			t.Fatalf("SuccessorOf(%d) = %d, want %d", c.id, got, c.want)
		}
	}
}

func TestRouteReachesOwner(t *testing.T) {
	for _, placement := range []Placement{Even, Hashed} {
		r := MustNew(128, Options{Bits: 20, Placement: placement, Seed: 5})
		rng := xrand.New(9)
		for trial := 0; trial < 500; trial++ {
			from := rng.Intn(128)
			id := rng.Uint64n(1 << 20)
			owner := r.SuccessorOf(id)
			path := r.RouteInto(from, id, nil)
			if from == owner {
				if len(path) != 0 {
					t.Fatalf("self-route has hops: %v", path)
				}
				continue
			}
			if len(path) == 0 || path[len(path)-1] != owner {
				t.Fatalf("route from %d to id %d (owner %d): path %v", from, id, owner, path)
			}
		}
	}
}

func TestRouteHopBound(t *testing.T) {
	// Greedy finger routing takes O(log n) hops.
	for _, n := range []int{64, 256, 1024} {
		r := MustNew(n, Options{Bits: 32, Placement: Hashed, Seed: 3})
		rng := xrand.New(4)
		maxHops := 0
		for trial := 0; trial < 300; trial++ {
			from := rng.Intn(n)
			path := r.RouteInto(from, rng.Uint64n(1<<32), nil)
			if len(path) > maxHops {
				maxHops = len(path)
			}
		}
		bound := 3 * int(math.Log2(float64(n)))
		if maxHops > bound {
			t.Fatalf("n=%d: max hops %d exceeds 3 log n = %d", n, maxHops, bound)
		}
	}
}

func TestRouteToNode(t *testing.T) {
	r := MustNew(64, Options{Bits: 16, Placement: Hashed, Seed: 8})
	rng := xrand.New(2)
	for trial := 0; trial < 200; trial++ {
		from, to := rng.Intn(64), rng.Intn(64)
		path := r.RouteInto(from, r.ID(to), nil)
		if from == to {
			if len(path) != 0 {
				t.Fatal("self route nonempty")
			}
			continue
		}
		if len(path) == 0 || path[len(path)-1] != to {
			t.Fatalf("route %d->%d = %v", from, to, path)
		}
	}
}

func TestFingersIncludeSuccessor(t *testing.T) {
	r := MustNew(50, Options{Bits: 24, Placement: Hashed, Seed: 1})
	for i := 0; i < 50; i++ {
		succ := (i + 1) % 50
		found := false
		for _, f := range r.Fingers(i) {
			if f == succ {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("node %d fingers %v missing successor %d", i, r.Fingers(i), succ)
		}
	}
}

func TestFingerCountLogarithmic(t *testing.T) {
	r := MustNew(1024, Options{Bits: 40, Placement: Hashed, Seed: 2})
	for i := 0; i < 1024; i += 37 {
		if f := len(r.Fingers(i)); f > 40 || f < 2 {
			t.Fatalf("node %d has %d fingers", i, f)
		}
	}
}

func TestSampleUniformEven(t *testing.T) {
	const n = 64
	r := MustNew(n, Options{Bits: 20})
	rng := xrand.New(7)
	counts := make([]int, n)
	const trials = 64000
	totalHops := 0
	for i := 0; i < trials; i++ {
		node, _, hops := r.SampleInto(rng, i%n, nil)
		counts[node]++
		totalHops += hops
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("node %d sampled %d times, want ~%v", v, c, want)
		}
	}
	if avg := float64(totalHops) / trials; avg > 3*math.Log2(n) {
		t.Fatalf("average sample cost %v hops too high", avg)
	}
}

func TestSampleHashedCoverage(t *testing.T) {
	// With Hashed placement sampling is near-uniform: every node must be
	// hit, and no node more than a few times its fair share.
	const n = 64
	r := MustNew(n, Options{Bits: 30, Placement: Hashed, Seed: 11})
	rng := xrand.New(13)
	counts := make([]int, n)
	const trials = 64000
	for i := 0; i < trials; i++ {
		node, _, _ := r.SampleInto(rng, 0, nil)
		counts[node]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if c == 0 {
			t.Fatalf("node %d never sampled", v)
		}
		if float64(c) > 5*want {
			t.Fatalf("node %d sampled %d times (fair share %v)", v, c, want)
		}
	}
}

func TestSamplePathMatchesNode(t *testing.T) {
	r := MustNew(32, Options{Bits: 16, Placement: Hashed, Seed: 21})
	rng := xrand.New(5)
	for i := 0; i < 200; i++ {
		from := rng.Intn(32)
		node, path, hops := r.SampleInto(rng, from, nil)
		if len(path) > 0 && path[len(path)-1] != node {
			t.Fatalf("path %v does not end at sampled node %d", path, node)
		}
		if len(path) == 0 && node != from {
			t.Fatalf("empty path but node %d != from %d", node, from)
		}
		if hops < len(path) {
			t.Fatalf("total hops %d < accepted path %d", hops, len(path))
		}
	}
}

func TestGraphStructure(t *testing.T) {
	r := MustNew(256, Options{Bits: 30, Placement: Hashed, Seed: 6})
	g := r.Graph()
	if g.N() != 256 {
		t.Fatalf("graph N = %d", g.N())
	}
	if !g.Connected() {
		t.Fatal("chord graph disconnected")
	}
	// Degree is O(log n): fingers in + out.
	if d := g.MaxDegree(); d > 8*30 {
		t.Fatalf("max degree %d too large", d)
	}
	// Ring edges present.
	for i := 0; i < 256; i++ {
		if !g.HasEdge(i, (i+1)%256) {
			t.Fatalf("missing successor edge at %d", i)
		}
	}
}

func TestHashedIDsSortedDistinct(t *testing.T) {
	r := MustNew(512, Options{Bits: 34, Placement: Hashed, Seed: 77})
	for i := 1; i < 512; i++ {
		if r.ID(i) <= r.ID(i-1) {
			t.Fatalf("ids not strictly increasing at %d", i)
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := MustNew(100, Options{Bits: 24, Placement: Hashed, Seed: 3})
	b := MustNew(100, Options{Bits: 24, Placement: Hashed, Seed: 3})
	for i := 0; i < 100; i++ {
		if a.ID(i) != b.ID(i) {
			t.Fatalf("ids differ at %d", i)
		}
	}
}

func BenchmarkRoute(b *testing.B) {
	r := MustNew(4096, Options{Bits: 40, Placement: Hashed, Seed: 1})
	rng := xrand.New(2)
	var path []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path = r.RouteInto(rng.Intn(4096), rng.Uint64n(1<<40), path)
	}
}

func BenchmarkSample(b *testing.B) {
	r := MustNew(4096, Options{Bits: 40, Placement: Hashed, Seed: 1})
	rng := xrand.New(2)
	var path []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, path, _ = r.SampleInto(rng, i%4096, path)
	}
}

func TestRouteDistanceMonotone(t *testing.T) {
	// The defining greedy-routing invariant: every hop strictly decreases
	// the clockwise identifier distance to the target — except the final
	// hop onto the owner, whose identifier sits just past the target (the
	// distance wraps there by construction).
	r := MustNew(512, Options{Bits: 30, Placement: Hashed, Seed: 31})
	rng := xrand.New(32)
	space := uint64(1) << 30
	dist := func(a, b uint64) uint64 { return (b - a) & (space - 1) }
	for trial := 0; trial < 300; trial++ {
		from := rng.Intn(512)
		id := rng.Uint64n(space)
		path := r.RouteInto(from, id, nil)
		owner := r.SuccessorOf(id)
		d := dist(r.ID(from), id)
		for k, hop := range path {
			if hop == owner {
				if k != len(path)-1 {
					t.Fatalf("owner reached mid-path at hop %d of %v", k, path)
				}
				break
			}
			nd := dist(r.ID(hop), id)
			if nd >= d {
				t.Fatalf("hop %d did not progress: %d -> %d", hop, d, nd)
			}
			d = nd
		}
	}
}

func TestFingerDistanceHalving(t *testing.T) {
	// With even placement the farthest finger covers half the ring, the
	// next a quarter, etc. — the structural reason routing is O(log n).
	r := MustNew(64, Options{Bits: 12})
	for i := 0; i < 64; i++ {
		far := 0
		for _, f := range r.Fingers(i) {
			gap := (f - i + 64) % 64
			if gap > far {
				far = gap
			}
		}
		if far < 16 {
			t.Fatalf("node %d farthest finger only spans %d of 64", i, far)
		}
	}
}

// scanClosestPreceding is the reference closest-preceding finger: it
// evaluates every shift k and keeps the finger strictly inside
// (ID(cur), id) that is nearest to id. closestPreceding must agree with
// it on every input.
func scanClosestPreceding(r *Ring, cur int, id uint64) int {
	curID := r.ID(cur)
	best := cur
	bestDist := r.dist(curID, id)
	if bestDist == 0 {
		return cur
	}
	for k := 0; k < r.bits; k++ {
		f := r.SuccessorOf((curID + (uint64(1) << uint(k))) & (r.space - 1))
		if f == cur {
			continue
		}
		if d := r.dist(r.ID(f), id); d < bestDist && d > 0 {
			best = f
			bestDist = d
		}
	}
	return best
}

func ceilLog2(n int) int { return int(math.Ceil(math.Log2(float64(n)))) }

func TestClosestPrecedingMatchesScan(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17, 4096, 1 << 15, 100000} {
		for _, bits := range []int{ceilLog2(n), 20, 40} {
			for _, placement := range []Placement{Even, Hashed} {
				r := MustNew(n, Options{Bits: bits, Placement: placement, Seed: uint64(n + bits)})
				rng := xrand.New(uint64(7*n + bits))
				check := func(cur int, id uint64) {
					id &= r.space - 1
					if got, want := r.closestPreceding(cur, id), scanClosestPreceding(r, cur, id); got != want {
						t.Fatalf("n=%d bits=%d placement=%d: closestPreceding(%d, %d) = %d, scan says %d",
							n, bits, placement, cur, id, got, want)
					}
				}
				for trial := 0; trial < 1500; trial++ {
					cur := rng.Intn(n)
					check(cur, rng.Uint64n(r.space))
					// Boundaries: an exact node identifier and the one
					// just below it.
					j := rng.Intn(n)
					check(cur, r.ID(j))
					check(cur, r.ID(j)-1)
				}
			}
		}
	}
}

// FuzzRoute checks greedy routing on arbitrary rings: a dirty reused
// buffer routes like a fresh one, the route ends at the identifier's
// owner, every hop is an edge of the communication graph, and every hop
// is the reference scan's choice.
func FuzzRoute(f *testing.F) {
	f.Add(uint16(100), uint8(20), false, uint64(1), uint16(3), uint64(12345))
	f.Add(uint16(2), uint8(1), false, uint64(0), uint16(1), uint64(0))
	f.Add(uint16(17), uint8(5), true, uint64(9), uint16(16), uint64(31))
	f.Add(uint16(4000), uint8(40), true, uint64(5), uint16(2999), uint64(1)<<39)
	f.Fuzz(func(t *testing.T, n16 uint16, bits8 uint8, hashed bool, seed uint64, from16 uint16, id uint64) {
		n := 2 + int(n16)%4095
		bits := ceilLog2(n) + int(bits8)%(63-ceilLog2(n))
		placement := Even
		if hashed {
			placement = Hashed
		}
		r, err := New(n, Options{Bits: bits, Placement: placement, Seed: seed})
		if err != nil {
			t.Fatalf("n=%d bits=%d: %v", n, bits, err)
		}
		from := int(from16) % n

		want := r.RouteInto(from, id, nil)
		dirty := []int{-1, -2, -3, -4, -5, -6, -7, -8}
		got := r.RouteInto(from, id, dirty[:3])
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("reused buffer routes %v, fresh %v", got, want)
		}

		owner := r.SuccessorOf(id)
		if from == owner {
			if len(want) != 0 {
				t.Fatalf("self-route %d -> id %d has hops %v", from, id, want)
			}
			return
		}
		if len(want) == 0 || want[len(want)-1] != owner {
			t.Fatalf("route %d -> id %d ends at %v, owner %d", from, id, want, owner)
		}
		g := r.Graph()
		cur := from
		for _, hop := range want {
			if !g.HasEdge(cur, hop) {
				t.Fatalf("route %d -> id %d uses non-edge (%d,%d)", from, id, cur, hop)
			}
			next := scanClosestPreceding(r, cur, id&(r.space-1))
			if next == cur {
				next = (cur + 1) % n
			}
			if hop != next {
				t.Fatalf("route %d -> id %d hops %d -> %d, scan says %d", from, id, cur, hop, next)
			}
			cur = hop
		}
	})
}
