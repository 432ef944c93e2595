package core

import (
	"fmt"
	"math"
	"testing"

	"gpssn/internal/roadnet/hl"
	"gpssn/internal/socialnet"
)

// TestEngineMatchesBaselineUnderHL reruns the engine-vs-Baseline oracle
// gate with the hub-label oracle attached, across every ablation variant
// and at P1 and P8: the batched label kernel must leave answers and top-k
// lists exact whichever pruning stages are toggled, on the tie-heavy input
// too.
func TestEngineMatchesBaselineUnderHL(t *testing.T) {
	params := []Params{
		{Gamma: 0.2, Tau: 2, Theta: 0.3, R: 2, Metric: MetricDotProduct},
		{Gamma: 0.25, Tau: 3, Theta: 0.4, R: 2, Metric: MetricDotProduct},
		{Gamma: 0.0, Tau: 2, Theta: 0.0, R: 0.5, Metric: MetricDotProduct},
	}
	variants := map[string]Options{
		"default":             {},
		"no-index-pruning":    {DisableIndexPruning: true},
		"no-distance-pruning": {DisableDistancePruning: true},
		"corollary2":          {UseCorollary2: true},
		"both-off":            {DisableIndexPruning: true, DisableDistancePruning: true},
		"parallel-1":          {Parallelism: 1},
		"parallel-8":          {Parallelism: 8},
	}
	ties := 0
	for _, in := range baselineInputs(t, 9) {
		ds := in.ds
		ds.Road.SetDistanceOracle(hl.Build(ds.Road))
		oracle := &Baseline{DS: ds}
		engines := map[string]*Engine{}
		for name, opts := range variants {
			engines[name] = buildEngine(t, ds, opts)
		}
		for pi, p := range params {
			for _, uq := range []socialnet.UserID{2, 19, 44} {
				wantK, _ := oracle.QueryTopK(uq, p, 3)
				want := Result{MaxDist: math.Inf(1)}
				if len(wantK) > 0 {
					want = wantK[0]
				}
				if in.name == "tied" {
					ties += countTies(wantK)
				}
				for name, e := range engines {
					label := fmt.Sprintf("%s %s params %d uq %d", in.name, name, pi, uq)
					got, _, err := e.Query(uq, p)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got.Found != want.Found {
						t.Fatalf("%s: found=%v, baseline %v", label, got.Found, want.Found)
					}
					if got.Found && math.Abs(got.MaxDist-want.MaxDist) > 1e-6 {
						t.Fatalf("%s: cost %v, baseline %v (S=%v R=%v vs S=%v R=%v)",
							label, got.MaxDist, want.MaxDist, got.S, got.R, want.S, want.R)
					}
					if got.Found {
						checkFeasible(t, ds, uq, p, got)
					}
					gotK, _, err := e.QueryTopK(uq, p, 3)
					if err != nil {
						t.Fatalf("%s top-k: %v", label, err)
					}
					matchBaselineTopK(t, label, gotK, wantK)
				}
			}
		}
		ds.Road.SetDistanceOracle(nil)
	}
	if ties == 0 {
		t.Fatal("tie-heavy input produced no tied top-k costs")
	}
}
