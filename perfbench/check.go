package main

import (
	"fmt"
	"math"

	"drrgossip"
)

// reference is the exact offline answer one query is checked against,
// computed once per process and never inside a timed region.
type reference struct {
	value  float64   // scalar ops and quantiles
	counts []float64 // histogram buckets
}

// relTol bounds the relative error of Sum and Average, the two ops whose
// consensus value passes through floating-point mass splitting.
const relTol = 1e-6

// references computes the exact answer of every query of the mix with
// drrgossip.ExactOf. Histogram buckets come from differences of exact
// Rank counts at the edges, the last bucket from the exact Count.
func references(cfg drrgossip.Config, mix []query) ([]reference, error) {
	refs := make([]reference, len(mix))
	for i, mq := range mix {
		q := mq.q
		if q.Op != drrgossip.OpHistogram {
			v, err := drrgossip.ExactOf(cfg, q)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mq.label, err)
			}
			refs[i].value = v
			continue
		}
		prev := 0.0
		for _, e := range q.Edges {
			r, err := drrgossip.ExactOf(cfg, drrgossip.RankOf(q.Values, e))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mq.label, err)
			}
			refs[i].counts = append(refs[i].counts, r-prev)
			prev = r
		}
		c, err := drrgossip.ExactOf(cfg, drrgossip.CountOf(q.Values))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mq.label, err)
		}
		refs[i].counts = append(refs[i].counts, c-prev)
	}
	return refs, nil
}

// check reports whether an answer is correct. errTol is
// |answer − exact| ÷ tolerance for quantile queries and 0 otherwise.
func check(mq query, ref reference, a *drrgossip.Answer, err error) (ok bool, errTol float64, why string) {
	if err != nil {
		return false, 0, err.Error()
	}
	if a.Quality.Partial {
		return false, 0, "partial answer: " + a.Quality.Reason
	}
	if !a.Converged {
		return false, 0, "not converged"
	}
	switch mq.q.Op {
	case drrgossip.OpQuantile:
		errTol = math.Abs(a.Value-ref.value) / mq.q.Tol
		if !(errTol <= 1) {
			return false, errTol, fmt.Sprintf("quantile %v, exact %v, tol %v", a.Value, ref.value, mq.q.Tol)
		}
		return true, errTol, ""
	case drrgossip.OpHistogram:
		if len(a.Counts) != len(ref.counts) {
			return false, 0, fmt.Sprintf("%d buckets, want %d", len(a.Counts), len(ref.counts))
		}
		for i := range ref.counts {
			if math.Abs(a.Counts[i]-ref.counts[i]) > 0.5 {
				return false, 0, fmt.Sprintf("bucket %d = %v, exact %v", i, a.Counts[i], ref.counts[i])
			}
		}
		return true, 0, ""
	}
	// Single-run aggregates: the surviving nodes must agree exactly.
	if !a.Consensus {
		return false, 0, "no consensus"
	}
	var good bool
	switch mq.q.Op {
	case drrgossip.OpMax, drrgossip.OpMin:
		good = a.Value == ref.value
	case drrgossip.OpCount, drrgossip.OpRank:
		good = math.Abs(a.Value-ref.value) <= 0.5
	default:
		good = relErr(a.Value, ref.value) <= relTol
	}
	if !good {
		return false, 0, fmt.Sprintf("value %v, exact %v", a.Value, ref.value)
	}
	return true, 0, ""
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
