package coding

import (
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/defense"
	"lotuseater/internal/graph"
	"lotuseater/internal/simrng"
)

// TestStepAllocsIndependentOfPopulation: once the round scratch has grown,
// a plain-mode round's allocations must not grow with the population. The
// contact draws, candidate symbols and queued transfers all live in
// buffers reused across rounds. A trade adversary exercises the attacker
// contact path and a rate-limiting defense the Admit gate on every
// transfer.
func TestStepAllocsIndependentOfPopulation(t *testing.T) {
	measure := func(n int) float64 {
		cfg := DisseminationConfig{
			Graph:       graph.RandomRegularish(n, 4, simrng.New(5).Child("graph")),
			Symbols:     16,
			PayloadSize: 8,
			Contacts:    2,
			Rounds:      1 << 20,
		}
		adv := &attack.Strategy{Kind: attack.Trade, Fraction: 0.10, SatiateFraction: 0.50}
		d, err := NewDissemination(cfg, 11, nil, WithAdversary(adv), WithDefense(defense.NewLimit(1)))
		if err != nil {
			t.Fatal(err)
		}
		// Grow the scratch and the defense's per-pair state.
		for i := 0; i < 3; i++ {
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, big = 1024, 8192
	a, b := measure(small), measure(big)
	if a > 32 {
		t.Fatalf("steady-state Step allocates %.0f objects at n=%d, want a small constant", a, small)
	}
	if b > a+8 {
		t.Fatalf("Step allocations grew with population: %.0f at n=%d vs %.0f at n=%d", a, small, b, big)
	}
	t.Logf("allocs per round: %.0f at n=%d, %.0f at n=%d", a, small, b, big)
}
