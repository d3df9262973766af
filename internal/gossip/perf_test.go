package gossip

import (
	"reflect"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/population"
	"lotuseater/internal/sim"
)

// bigPathConfig is the shape the gossip-1m scenario uses, shrunk to a
// test-sized population: one update per round so the steady state is easy
// to reason about, ideal satiation of 30% of the system.
func bigPathConfig(n int) Config {
	cfg := DefaultConfig()
	cfg.Nodes = n
	cfg.UpdatesPerRound = 1
	cfg.Lifetime = 8
	cfg.CopiesSeeded = 32
	cfg.Warmup = 0
	cfg.Rounds = 1 << 20 // effectively unbounded for the measured window
	return cfg
}

// TestStepAllocsIndependentOfPopulation is the sparse-satiation acceptance
// test: once the engine's pools are primed, a steady-state round's
// allocations must not grow with the population — the satiation and
// planning paths are O(|satiated set|) updates into pooled storage, and
// everything O(Nodes) (holder arrays, permutations, initiation flags,
// partner draws, pairing lists, needs buffers) is recycled. Both planning
// paths are measured: the inline pass at single-shard populations and the
// sharded pass at multi-shard ones, where a per-round make of any
// per-node column would show up at once.
func TestStepAllocsIndependentOfPopulation(t *testing.T) {
	measure := func(n int, sharded bool) float64 {
		adv := &attack.Strategy{Kind: attack.Ideal, Fraction: 0.02, SatiateFraction: 0.30}
		e, err := New(bigPathConfig(n), 11, WithAdversary(adv), WithEvalParallel(sharded))
		if err != nil {
			t.Fatal(err)
		}
		// Prime the pools: one full lifetime of updates plus slack.
		for i := 0; i < e.cfg.Lifetime+2; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The absolute bound is loose (per-round RNG children, the update record
	// and the worker-pool handoff allocate a handful of objects); the point
	// is the comparison: an O(Nodes) allocation anywhere would blow it up
	// immediately at the larger population.
	for _, c := range []struct {
		small, big int
		sharded    bool
	}{
		{1024, 8192, false},
		{1 << 13, 1 << 15, true},
	} {
		small, big := measure(c.small, c.sharded), measure(c.big, c.sharded)
		if small > 96 {
			t.Fatalf("sharded=%v: steady-state Step allocates %.0f objects at n=%d, want a small constant", c.sharded, small, c.small)
		}
		if big > small+16 {
			t.Fatalf("sharded=%v: Step allocations grew with population: %.0f at n=%d vs %.0f at n=%d", c.sharded, small, c.small, big, c.big)
		}
	}
}

// TestEvalParallelBitIdentical extends the workers-parity guarantee to the
// in-replicate sharded planning pass: an engine with the initiation flags
// and partner draws forced onto sim.ParallelFor must produce exactly the
// result of the inline pass. The population spans several
// sim.DefaultGrain shards, so the pass really splits. The cases cover
// every attack kind, a churn schedule and a reporting run with evictions,
// which exercise the departed/evicted gate inside the pass.
func TestEvalParallelBitIdentical(t *testing.T) {
	const n = 3 * sim.DefaultGrain
	cfg := bigPathConfig(n)
	cfg.Rounds = 14
	reporting := cfg
	reporting.ObedientFraction = 0.5
	reporting.ReportThreshold = 1
	reporting.EvictAfterReports = 2
	var churn []population.Event
	for r := 1; r < cfg.Rounds; r++ {
		for k := 0; k < 64; k++ {
			churn = append(churn, population.Event{Round: r, Node: (r*7919 + k*104729) % n, Join: (r+k)%3 == 0})
		}
	}
	type tc struct {
		name string
		cfg  Config
		kind attack.Kind
		opts []Option
	}
	cases := []tc{
		{"churn", cfg, attack.Trade, []Option{WithChurn(churn)}},
		{"reporting", reporting, attack.Trade, nil},
	}
	for _, kind := range []attack.Kind{attack.None, attack.Crash, attack.Ideal, attack.Trade} {
		cases = append(cases, tc{kind.String(), cfg, kind, nil})
	}
	for _, c := range cases {
		run := func(sharded bool) Result {
			// RotatePeriod covers epoch re-draws mid-run.
			adv := &attack.Strategy{Kind: c.kind, Fraction: 0.15, SatiateFraction: 0.70, RotatePeriod: 5}
			opts := append([]Option{WithAdversary(adv), WithEvalParallel(sharded)}, c.opts...)
			e, err := New(c.cfg, 23, opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		seq, par := run(false), run(true)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s: sharded evaluation diverged from inline:\n%+v\nvs\n%+v", c.name, seq, par)
		}
		if c.name == "reporting" && seq.Evictions == 0 {
			t.Fatalf("reporting case evicted nobody, so the evicted gate went untested")
		}
	}
}
