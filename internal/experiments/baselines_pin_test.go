package experiments

import (
	"testing"

	"drrgossip/internal/agg"
	"drrgossip/internal/drrapps"
	"drrgossip/internal/karp"
	"drrgossip/internal/kashyap"
	"drrgossip/internal/oblivious"
	"drrgossip/internal/pietro"
	"drrgossip/internal/sim"
)

// TestBaselineBillsPinned pins the exact bill (rounds, messages) and
// answer of every baseline at one small size and seed. The baselines'
// schedules are fixed functions of n (phase counts, probe caps, round
// budgets, retransmission caps), and these rows catch any change to
// them: a drifted constant moves the rounds or the messages even when
// the property tests still pass.
func TestBaselineBillsPinned(t *testing.T) {
	const n, seed = 256, 11
	values := agg.GenUniform(n, 0, 1000, seed)
	eng := func(loss float64) *sim.Engine {
		return sim.NewEngine(n, sim.Options{Seed: seed, Loss: loss})
	}
	// Each run returns the engine-billed rounds and messages plus the
	// baseline's answer (for karp, its rumor transmissions; for the
	// drrapps protocols, the leader id and tree depth; for oblivious,
	// the messages at which half the nodes knew every value).
	type bill struct {
		rounds int
		msgs   int64
		value  float64
	}
	rows := []struct {
		name string
		run  func() (bill, error)
		want bill
	}{
		{"kashyap.Max", func() (bill, error) {
			r, err := kashyap.Max(eng(0), values)
			if err != nil {
				return bill{}, err
			}
			return bill{r.Stats.Rounds, r.Stats.Messages, r.Value}, nil
		}, bill{125, 7838, 997.5195897121575}},
		{"kashyap.Ave", func() (bill, error) {
			r, err := kashyap.Ave(eng(0), values)
			if err != nil {
				return bill{}, err
			}
			return bill{r.Stats.Rounds, r.Stats.Messages, r.Value}, nil
		}, bill{245, 16134, 510.9145271169462}},
		{"kashyap.Ave/loss", func() (bill, error) {
			r, err := kashyap.Ave(eng(0.05), values)
			if err != nil {
				return bill{}, err
			}
			return bill{r.Stats.Rounds, r.Stats.Messages, r.Value}, nil
		}, bill{274, 22816, 508.5288931397765}},
		{"pietro.Max", func() (bill, error) {
			r, err := pietro.Max(eng(0), values)
			if err != nil {
				return bill{}, err
			}
			return bill{r.Stats.Rounds, r.Stats.Messages, r.Value}, nil
		}, bill{122, 6936, 997.5195897121575}},
		{"pietro.Ave", func() (bill, error) {
			r, err := pietro.Ave(eng(0), values)
			if err != nil {
				return bill{}, err
			}
			return bill{r.Stats.Rounds, r.Stats.Messages, r.Value}, nil
		}, bill{242, 14463, 510.914527281016}},
		{"pietro.Ave/loss", func() (bill, error) {
			r, err := pietro.Ave(eng(0.05), values)
			if err != nil {
				return bill{}, err
			}
			return bill{r.Stats.Rounds, r.Stats.Messages, r.Value}, nil
		}, bill{273, 16446, 510.9853638864768}},
		{"karp.Spread", func() (bill, error) {
			r, err := karp.Spread(eng(0), 0)
			if err != nil {
				return bill{}, err
			}
			return bill{r.Stats.Rounds, r.Stats.Messages, float64(r.Transmissions)}, nil
		}, bill{13, 6656, 2033}},
		{"karp.Spread/loss", func() (bill, error) {
			r, err := karp.Spread(eng(0.05), 0)
			if err != nil {
				return bill{}, err
			}
			return bill{r.Stats.Rounds, r.Stats.Messages, float64(r.Transmissions)}, nil
		}, bill{14, 6982, 2075}},
		{"drrapps.ElectLeader", func() (bill, error) {
			r, err := drrapps.ElectLeader(eng(0))
			if err != nil {
				return bill{}, err
			}
			return bill{r.Stats.Rounds, r.Stats.Messages, float64(r.Leader)}, nil
		}, bill{99, 6738, 141}},
		{"drrapps.ElectLeader/loss", func() (bill, error) {
			r, err := drrapps.ElectLeader(eng(0.05))
			if err != nil {
				return bill{}, err
			}
			return bill{r.Stats.Rounds, r.Stats.Messages, float64(r.Leader)}, nil
		}, bill{112, 7846, 141}},
		{"drrapps.BuildSpanningTree", func() (bill, error) {
			r, err := drrapps.BuildSpanningTree(eng(0))
			if err != nil {
				return bill{}, err
			}
			return bill{r.Stats.Rounds, r.Stats.Messages, float64(r.Depth)}, nil
		}, bill{100, 6772, 8}},
		{"oblivious.Run", func() (bill, error) {
			r, err := oblivious.Run(n, oblivious.Options{Protocol: oblivious.PushPull, Seed: seed})
			if err != nil {
				return bill{}, err
			}
			return bill{r.Rounds, r.Messages, float64(r.MessagesHalf)}, nil
		}, bill{9, 4608, 4096}},
	}
	for _, row := range rows {
		got, err := row.run()
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if got != row.want {
			t.Errorf("%s: got {rounds %d, msgs %d, value %v}, want {rounds %d, msgs %d, value %v}",
				row.name, got.rounds, got.msgs, got.value, row.want.rounds, row.want.msgs, row.want.value)
		}
	}
}
