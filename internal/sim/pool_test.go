package sim

// Queue-pool behavior: drained ring slots recycle their backing arrays
// through a shared pool bounded by poolBudget, steady-state traffic runs
// allocation-free out of the pool, and burst capacity beyond the budget
// is released to the GC instead of retained forever.

import (
	"math/bits"
	"testing"
)

// The retained pool capacity must never exceed the budget, even after
// burst rounds far larger than steady state, and must stay consistent
// with the parked arrays.
func TestPoolBudgetBoundsRetention(t *testing.T) {
	n := 64
	e := NewEngine(n, Options{Seed: 1})
	if e.poolBudget != 8192 {
		t.Fatalf("poolBudget = %d, want floor 8192", e.poolBudget)
	}
	burst := func(size int) {
		for i := 0; i < size; i++ {
			e.Send(i%n, (i+1)%n, Payload{})
		}
		e.Tick()
	}
	checkPool := func(when string) {
		t.Helper()
		total := 0
		for _, q := range e.pool {
			if len(q) != 0 {
				t.Fatalf("%s: pooled array with live length %d", when, len(q))
			}
			total += cap(q)
		}
		if total != e.poolCap {
			t.Fatalf("%s: poolCap = %d, parked capacity = %d", when, e.poolCap, total)
		}
		if e.poolCap > e.poolBudget {
			t.Fatalf("%s: poolCap %d exceeds budget %d", when, e.poolCap, e.poolBudget)
		}
	}
	// Steady rounds, then a burst several times the budget, then more
	// steady rounds: the burst array must not be parked.
	for round := 0; round < 5; round++ {
		burst(n)
		checkPool("steady")
	}
	burst(5 * e.poolBudget)
	checkPool("after burst")
	if e.poolCap >= 5*e.poolBudget {
		t.Fatal("burst backing array was retained despite exceeding the budget")
	}
	for round := 0; round < 5; round++ {
		burst(n)
		checkPool("steady after burst")
	}
	// The pool survives Reset (engine reuse is when recycling pays off).
	before := e.poolCap
	e.Reset(Options{Seed: 1})
	checkPool("after Reset")
	if e.poolCap < before {
		t.Fatalf("Reset shrank the pool: %d -> %d", before, e.poolCap)
	}
}

// Steady-state scheduling — including routed sends that spread deliveries
// over future ring slots — must run out of recycled queues without
// allocating.
func TestPoolSteadyStateAllocationFree(t *testing.T) {
	n := 128
	e := NewEngine(n, Options{Seed: 2})
	path := []int{1, 2, 3, 4, 5, 6, 7}
	run := func() {
		for round := 0; round < 20; round++ {
			for i := 0; i < n; i++ {
				e.Send(i, (i+1)%n, Payload{})
			}
			e.SendRouted(0, path, Payload{})
			e.Tick()
		}
		for i := 0; i < len(path)+1; i++ {
			e.Tick() // drain routed tail
		}
	}
	run() // warm up: grow queues once
	allocs := testing.AllocsPerRun(10, run)
	if allocs > 0 {
		t.Fatalf("steady-state scheduling allocates %v objects per cycle", allocs)
	}
}

// Pooled reuse cannot change results: a reused engine must reproduce a
// fresh engine's counters bit-for-bit after heavy mixed traffic.
func TestPoolReuseBitIdentical(t *testing.T) {
	n := 96
	opts := Options{Seed: 3, Loss: 0.1}
	drive := func(e *Engine) Counters {
		for round := 0; round < 40; round++ {
			for i := 0; i < n; i++ {
				e.Send(i, e.RNG(i).IntnOther(n, i), Payload{})
			}
			e.SendRouted(round%n, []int{(round + 1) % n, (round + 2) % n, (round + 3) % n}, Payload{})
			e.Tick()
		}
		return e.Stats()
	}
	fresh := drive(NewEngine(n, opts))
	e := NewEngine(n, opts)
	drive(e)
	e.Reset(opts)
	if got := drive(e); got != fresh {
		t.Fatalf("reused engine diverged:\n fresh  %+v\n reused %+v", fresh, got)
	}
}

// A burst into one slot grows its queue by doubling once it passes
// doublingFloor, so 2^20 sends cost about log2(2^20/doublingFloor)
// allocations rather than the dozens of ~1.25× steps plain append takes.
func TestBurstQueueGrowsByDoubling(t *testing.T) {
	const burst = 1 << 20
	e := NewEngine(2, Options{Seed: 1}) // poolBudget 8192: the burst array is never retained
	bound := float64(bits.Len(burst/doublingFloor-1) + 2)
	allocs := testing.AllocsPerRun(3, func() {
		// Start from a pooled doublingFloor-sized queue, as earlier
		// traffic leaves one; below the floor append already doubles.
		e.recycle(make([]Message, 0, doublingFloor))
		for i := 0; i < burst; i++ {
			e.Send(0, 1, Payload{})
		}
		e.Tick()
	})
	if allocs > bound {
		t.Fatalf("burst of %d sends allocated %v times, want <= %v", burst, allocs, bound)
	}
}
