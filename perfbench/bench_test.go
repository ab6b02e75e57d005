package main

import (
	"errors"
	"math"
	"testing"

	"drrgossip"
	"drrgossip/internal/sim"
	"drrgossip/internal/telemetry"
)

// TestLedgerBillsSegmentsToRunningPhase feeds a synthetic event stream
// and checks that each delta lands in the phase that was running, that
// round events count busy and idle rounds, and that out-of-run events
// are reported.
func TestLedgerBillsSegmentsToRunningPhase(t *testing.T) {
	l := newLedger()
	emit := func(k telemetry.Kind, phase string, d sim.Counters) {
		l.Emit(&telemetry.Event{Kind: k, Phase: phase, Delta: d})
	}
	emit(telemetry.KindRunStart, "", sim.Counters{})
	emit(telemetry.KindPhase, "drr", sim.Counters{})
	emit(telemetry.KindRound, "drr", sim.Counters{Rounds: 1, Messages: 5})
	emit(telemetry.KindPhase, "gossip", sim.Counters{Messages: 2}) // billed to drr
	emit(telemetry.KindRound, "gossip", sim.Counters{Rounds: 1, Messages: 3})
	emit(telemetry.KindRound, "gossip", sim.Counters{Rounds: 1})
	emit(telemetry.KindRunEnd, "gossip", sim.Counters{Messages: 1})
	if l.err != nil {
		t.Fatal(l.err)
	}
	drr, g := l.phases["drr"], l.phases["gossip"]
	if drr.c.Rounds != 1 || drr.c.Messages != 7 || drr.busyRounds != 1 {
		t.Errorf("drr billed %+v busy %d", drr.c, drr.busyRounds)
	}
	if g.c.Rounds != 2 || g.c.Messages != 4 || g.roundEvents != 2 || g.busyRounds != 1 {
		t.Errorf("gossip billed %+v rounds %d busy %d", g.c, g.roundEvents, g.busyRounds)
	}
	emit(telemetry.KindPhase, "drr", sim.Counters{})
	if l.err == nil {
		t.Error("phase event outside a run not reported")
	}
}

func TestCheck(t *testing.T) {
	values := []float64{1, 2, 3, 4}
	hist := query{label: "histogram", q: drrgossip.HistogramOf(values, []float64{2})}
	quant := query{label: "quantile.p50", q: drrgossip.QuantileOf(values, 0.5, 1)}
	avg := query{label: "average", q: drrgossip.AverageOf(values)}
	ok := drrgossip.Quality{Converged: true}
	cases := []struct {
		name string
		mq   query
		ref  reference
		a    *drrgossip.Answer
		err  error
		want bool
	}{
		{"histogram exact", hist, reference{counts: []float64{2, 2}}, &drrgossip.Answer{Counts: []float64{2, 2}, Converged: true, Quality: ok}, nil, true},
		{"histogram off by one", hist, reference{counts: []float64{2, 2}}, &drrgossip.Answer{Counts: []float64{3, 1}, Converged: true, Quality: ok}, nil, false},
		{"quantile within tol", quant, reference{value: 2}, &drrgossip.Answer{Value: 2.9, Converged: true, Quality: ok}, nil, true},
		{"quantile beyond tol", quant, reference{value: 2}, &drrgossip.Answer{Value: 3.1, Converged: true, Quality: ok}, nil, false},
		{"quantile not converged", quant, reference{value: 2}, &drrgossip.Answer{Value: 2, Quality: ok}, nil, false},
		{"average no consensus", avg, reference{value: 2.5}, &drrgossip.Answer{Value: 2.5, Converged: true, Quality: ok}, nil, false},
		{"average exact", avg, reference{value: 2.5}, &drrgossip.Answer{Value: 2.5, Consensus: true, Converged: true, Quality: ok}, nil, true},
		{"partial", avg, reference{value: 2.5}, &drrgossip.Answer{Value: 2.5, Consensus: true, Converged: true, Quality: drrgossip.Quality{Partial: true}}, nil, false},
		{"error", avg, reference{value: 2.5}, nil, errors.New("boom"), false},
	}
	for _, c := range cases {
		if got, _, why := check(c.mq, c.ref, c.a, c.err); got != c.want {
			t.Errorf("%s: check = %v (%s), want %v", c.name, got, why, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("median empty = %v", m)
	}
}
