package main

import (
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"time"

	"drrgossip/internal/chord"
	"drrgossip/internal/overlay"
	"drrgossip/internal/sim"
)

// The probes time single layers from outside, on the workload's n and
// engine options, with inputs drawn from the workload seed.

const (
	probeReps      = 5    // repetitions per probe; the median is reported
	routePairs     = 4096 // node pairs per route repetition
	resetCalls     = 20   // Engine.Reset calls per reset repetition
	msgProbeRounds = 4    // rounds per Send+Tick repetition (n messages each)
)

type probeResult struct {
	buildS     float64 // overlay build (chord.New + overlay.NewChord)
	routeNs    float64 // per overlay.Chord.Route call
	routeHops  float64 // mean hops per route
	routeBytes float64 // heap bytes allocated per route
	resetNs    float64 // per Engine.Reset
	msgNs      float64 // per message of a Send+Tick loop
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes reads the runtime's cumulative heap-allocation counter
// without allocating itself.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func runProbes(w *workload, seed uint64, opts sim.Options) (probeResult, error) {
	var pr probeResult
	copts := chord.Options{Placement: w.placement, Seed: seed}

	var builds []float64
	var ov *overlay.Chord
	for i := 0; i < probeReps; i++ {
		ov = nil
		runtime.GC()
		t := time.Now()
		ring, err := chord.New(w.n, copts)
		if err != nil {
			return pr, err
		}
		ov = overlay.NewChord(ring)
		builds = append(builds, time.Since(t).Seconds())
	}
	pr.buildS = median(builds)

	r := rand.New(rand.NewPCG(seed, 0x5eed))
	from := make([]int, routePairs)
	to := make([]int, routePairs)
	for i := range from {
		from[i] = r.IntN(w.n)
		to[i] = r.IntN(w.n)
	}
	hops := 0
	for i := range from {
		hops += len(ov.Route(from[i], to[i]))
	}
	pr.routeHops = float64(hops) / routePairs
	var routeNs, routeB []float64
	for rep := 0; rep < probeReps; rep++ {
		b0 := heapAllocBytes()
		t := time.Now()
		for i := range from {
			ov.Route(from[i], to[i])
		}
		routeNs = append(routeNs, float64(time.Since(t).Nanoseconds())/routePairs)
		routeB = append(routeB, float64(heapAllocBytes()-b0)/routePairs)
	}
	pr.routeNs = median(routeNs)
	pr.routeBytes = median(routeB)
	ov = nil

	eng := sim.NewEngine(w.n, opts)
	var resets []float64
	for rep := 0; rep < probeReps; rep++ {
		t := time.Now()
		for i := 0; i < resetCalls; i++ {
			eng.Reset(opts)
		}
		resets = append(resets, float64(time.Since(t).Nanoseconds())/resetCalls)
	}
	pr.resetNs = median(resets)

	// Every alive node sends one message per round to a node a fixed
	// stride away, then the round ticks: the engine's direct delivery
	// path with the workload's loss and crash model.
	var msgs []float64
	for rep := 0; rep < probeReps; rep++ {
		eng.Reset(opts)
		t := time.Now()
		for round := 0; round < msgProbeRounds; round++ {
			stride := 1 + (round*7919)%(w.n-1)
			for i := 0; i < w.n; i++ {
				eng.Send(i, (i+stride)%w.n, sim.Payload{A: float64(i)})
			}
			eng.Tick()
		}
		d := time.Since(t)
		if m := eng.Stats().Messages; m > 0 {
			msgs = append(msgs, float64(d.Nanoseconds())/float64(m))
		}
	}
	pr.msgNs = median(msgs)
	return pr, nil
}
