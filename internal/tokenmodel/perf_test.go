package tokenmodel

import (
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/defense"
	"lotuseater/internal/graph"
	"lotuseater/internal/simrng"
)

// TestStepAllocsIndependentOfPopulation: once the round scratch has grown,
// a round's allocations must not grow with the population. The contact
// draws sample into one reused buffer and the snapshot and merge passes
// write preallocated per-node and per-shard storage, so only a handful of
// per-round objects remain (the round's RNG child and the worker-pool
// handoff of the sharded passes). Both pairs run a trade adversary, whose
// attacker contacts share the sample buffer, and a rate-limiting defense,
// which sends every transfer through the Admit path. The first pair starts
// on the inline single-shard passes; the second is multi-shard on both
// sides.
func TestStepAllocsIndependentOfPopulation(t *testing.T) {
	measure := func(n int) float64 {
		cfg := Config{
			Graph:    graph.RandomRegularish(n, 4, simrng.New(5).Child("graph")),
			Tokens:   24,
			Contacts: 2,
			Rounds:   1 << 20,
		}
		adv := &attack.Strategy{Kind: attack.Trade, Fraction: 0.10, SatiateFraction: 0.50}
		s, err := New(cfg, 11, WithAdversary(adv), WithDefense(defense.NewLimit(2)))
		if err != nil {
			t.Fatal(err)
		}
		// Grow the scratch and the defense's per-pair state.
		for i := 0; i < 3; i++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The absolute bound is loose; the point is the comparison: one
	// allocation per node or per contact anywhere would blow it up at the
	// larger population immediately.
	for _, c := range []struct{ small, big int }{
		{1024, 8192},
		{1 << 13, 1 << 15},
	} {
		small, big := measure(c.small), measure(c.big)
		if small > 64 {
			t.Fatalf("steady-state Step allocates %.0f objects at n=%d, want a small constant", small, c.small)
		}
		if big > small+16 {
			t.Fatalf("Step allocations grew with population: %.0f at n=%d vs %.0f at n=%d", small, c.small, big, c.big)
		}
		t.Logf("allocs per round: %.0f at n=%d, %.0f at n=%d", small, c.small, big, c.big)
	}
}
