package drrgossip

import (
	"reflect"
	"testing"
)

// TestMomentsPinned pins MomentsOf at n=512 in the static model: its mean
// is bit-identical to AverageOf's value on the same session (both run the
// same push-sum), and its variance, cost and phase bill are fixed
// literals.
func TestMomentsPinned(t *testing.T) {
	const n = 512
	cases := []struct {
		name     string
		cfg      Config
		value    float64
		variance float64
		cost     Cost
		phases   []PhaseCost
	}{
		{
			name:     "lossless",
			cfg:      Config{N: n, Seed: 151},
			value:    510.088321147557,
			variance: 81815.65651213721,
			cost:     Cost{Runs: 1, Rounds: 318, Messages: 33248},
			phases: []PhaseCost{
				{Phase: "drr", Rounds: 10, Messages: 3700, Calls: 1850},
				{Phase: "aggregate", Rounds: 20, Messages: 1816, Calls: 908},
				{Phase: "gossip", Rounds: 262, Messages: 25916},
				{Phase: "broadcast", Rounds: 26, Messages: 1816, Calls: 908},
			},
		},
		{
			name:     "loss",
			cfg:      Config{N: n, Seed: 152, Loss: 0.05},
			value:    495.75343944831457,
			variance: 82532.03222733538,
			cost:     Cost{Runs: 1, Rounds: 360, Messages: 36736, Drops: 1817},
			phases: []PhaseCost{
				{Phase: "drr", Rounds: 12, Messages: 3836, Drops: 189, Calls: 1971},
				{Phase: "aggregate", Rounds: 24, Messages: 1949, Drops: 95, Calls: 999},
				{Phase: "gossip", Rounds: 293, Messages: 29009, Drops: 1441},
				{Phase: "broadcast", Rounds: 31, Messages: 1942, Drops: 92, Calls: 996},
			},
		},
		{
			name:     "crash",
			cfg:      Config{N: n, Seed: 153, CrashFraction: 0.1},
			value:    510.10086708893584,
			variance: 79409.39449077769,
			cost:     Cost{Runs: 1, Rounds: 343, Messages: 36011},
			phases: []PhaseCost{
				{Phase: "drr", Rounds: 10, Messages: 3344, Calls: 1742},
				{Phase: "aggregate", Rounds: 18, Messages: 1588, Calls: 794},
				{Phase: "gossip", Rounds: 293, Messages: 29491},
				{Phase: "broadcast", Rounds: 22, Messages: 1588, Calls: 794},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			values := uniformValues(n, tc.cfg.Seed+1000)
			nw, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			mom, err := nw.Run(MomentsOf(values))
			if err != nil {
				t.Fatal(err)
			}
			ave, err := nw.Run(AverageOf(values))
			if err != nil {
				t.Fatal(err)
			}
			if mom.Mean != ave.Value {
				t.Errorf("Moments mean %v != Average value %v", mom.Mean, ave.Value)
			}
			if mom.Value != tc.value || mom.Mean != tc.value {
				t.Errorf("Value = %v, Mean = %v, want %v", mom.Value, mom.Mean, tc.value)
			}
			if mom.Variance != tc.variance {
				t.Errorf("Variance = %v, want %v", mom.Variance, tc.variance)
			}
			if !mom.Consensus {
				t.Error("no consensus")
			}
			if mom.Cost != tc.cost {
				t.Errorf("Cost = %+v, want %+v", mom.Cost, tc.cost)
			}
			if !reflect.DeepEqual(mom.PhaseCosts, tc.phases) {
				t.Errorf("PhaseCosts = %+v, want %+v", mom.PhaseCosts, tc.phases)
			}
		})
	}
}
