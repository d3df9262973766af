package experiment

import (
	"lotuseater/internal/attack"
	"lotuseater/internal/graph"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
	"lotuseater/internal/sweep"
	"lotuseater/internal/tokenmodel"
)

// AltruismExperiment (E1) sweeps the token model's altruism parameter a
// under a static satiation attack on half the system. Satiated nodes are
// dead weight at a = 0 (the isolated half gossips on a diluted graph and
// stalls); as a grows, satiated nodes keep responding and the isolated half
// completes. The y value is the completed fraction among non-targets.
func AltruismExperiment(seed uint64, q Quality) (*Series, error) {
	q = q.Normalize()
	// The transition happens at very small a: even a few-percent chance of
	// a satiated node responding restores the isolated half. Sweep the
	// interesting region.
	xs := sweep.Range(0, 0.1, q.Points)
	return sweep.Run(sweep.Config{Name: "isolated-completed-fraction", Xs: xs, Seeds: q.Seeds}, seed, func(a float64, rng *simrng.Source, ws *sim.Workspace) (float64, error) {
		const n = 200
		g := graph.RandomRegularish(n, 4, rng.Child("graph"))
		cfg := tokenmodel.Config{
			Graph:    g,
			Tokens:   50,
			Contacts: 2,
			Altruism: a,
			Rounds:   80,
		}
		targets := rng.Child("targets").SampleInts(n, n/2)
		m, err := tokenmodel.New(cfg, rng.Uint64(), satiating(targets), tokenmodel.WithWorkspace(ws))
		if err != nil {
			return 0, err
		}
		if _, err := m.Run(); err != nil {
			return 0, err
		}
		isTarget := make([]bool, n)
		for _, t := range targets {
			isTarget[t] = true
		}
		done, total := 0, 0
		for v := 0; v < n; v++ {
			if isTarget[v] {
				continue
			}
			total++
			if m.Satiated(v) {
				done++
			}
		}
		if total == 0 {
			return 0, nil
		}
		return float64(done) / float64(total), nil
	})
}

// satiating is the targeted ideal attack: the attacker satiates exactly
// the named nodes at the start of every round.
func satiating(targets []int) tokenmodel.Option {
	return tokenmodel.WithAdversary(&attack.Strategy{Kind: attack.Ideal, TargetList: targets})
}

// GridCutResult is one row of the grid-cut experiment (E2).
type GridCutResult struct {
	Topology string
	// SatiatedNodes is the attack cost (16 of 256 nodes for the cut).
	SatiatedNodes int
	// RareTokenCoverage is the fraction of nodes ever holding the rare
	// token — the denial metric.
	RareTokenCoverage float64
	// CompletedFraction is the fraction of nodes that collected everything.
	CompletedFraction float64
}

// GridCutExperiment (E2) satiates a column of a 16x16 grid — a cheap cut —
// versus the same number of random nodes in a degree-matched random graph,
// with altruism a = 0 so satiated nodes are true barriers. A rare token
// lives only on the grid's left edge; with the column satiated, "nodes on
// that side of the cut will never be able to collect all the tokens": the
// rare token's coverage pins to the left side exactly. The random graph has
// no cheap cut, so the same-sized attack leaves coverage at 1.
//
// Note the pure a = 0 model is absorbing — nodes that complete naturally
// stop serving too, so CompletedFraction stalls near zero even without an
// attack (a dynamic the paper itself points out). Coverage of the rare
// token is the meaningful denial metric.
func GridCutExperiment(seed uint64) ([]GridCutResult, error) {
	const (
		rows, cols = 16, 16
		cutCol     = 8
		tokens     = 50
		rareCopies = 16
	)
	rng := simrng.New(seed)
	n := rows * cols

	// Tokens 1..49 are spread uniformly at random; token 0's sixteen
	// holders sit on the left edge (grid) or anywhere (random graph —
	// placement is irrelevant without a cut).
	alloc := make([]int, n)
	allocRNG := rng.Child("alloc")
	for v := range alloc {
		alloc[v] = 1 + allocRNG.IntN(tokens-1)
	}
	for i := 0; i < rareCopies; i++ {
		alloc[(rows/rareCopies*i)*cols+0] = 0
	}
	cut := graph.GridColumnCut(rows, cols, cutCol)

	run := func(name string, g *graph.Graph, targets []int, runSeed uint64) (GridCutResult, error) {
		cfg := tokenmodel.Config{
			Graph:      g,
			Tokens:     tokens,
			Contacts:   2,
			Altruism:   0,
			Rounds:     120,
			Allocation: alloc,
		}
		m, err := tokenmodel.New(cfg, runSeed, satiating(targets))
		if err != nil {
			return GridCutResult{}, err
		}
		res, err := m.Run()
		if err != nil {
			return GridCutResult{}, err
		}
		return GridCutResult{
			Topology:          name,
			SatiatedNodes:     len(targets),
			RareTokenCoverage: res.TokenCoverage[0],
			CompletedFraction: res.CompletedFraction,
		}, nil
	}

	grid := graph.Grid(rows, cols)
	random := graph.RandomRegularish(n, 4, rng.Child("random-graph"))
	randomTargets := rng.Child("random-targets").SampleInts(n, len(cut))

	var out []GridCutResult
	for _, spec := range []struct {
		name    string
		g       *graph.Graph
		targets []int
	}{
		{"grid/no-attack", grid, nil},
		{"grid/column-cut", grid, cut},
		{"random/no-attack", random, nil},
		{"random/same-size-target", random, randomTargets},
	} {
		row, err := run(spec.name, spec.g, spec.targets, rng.Child("run-"+spec.name).Uint64())
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// RareTokenExperiment (E3) satiates the single initial holder of a rare
// token and sweeps altruism a: with a = 0 the whole system is denied that
// token for the cost of satiating one node; any a > 0 eventually leaks it.
func RareTokenExperiment(seed uint64, q Quality) (*Series, error) {
	q = q.Normalize()
	xs := sweep.Range(0, 0.3, q.Points)
	return sweep.Run(sweep.Config{Name: "completed-fraction", Xs: xs, Seeds: q.Seeds}, seed, func(a float64, rng *simrng.Source, ws *sim.Workspace) (float64, error) {
		const n, tokens = 100, 10
		alloc := make([]int, n)
		alloc[0] = 0 // node 0 is the sole holder of token 0
		for v := 1; v < n; v++ {
			alloc[v] = 1 + (v-1)%(tokens-1)
		}
		cfg := tokenmodel.Config{
			Graph:      graph.Complete(n),
			Tokens:     tokens,
			Contacts:   1,
			Altruism:   a,
			Rounds:     60,
			Allocation: alloc,
		}
		m, err := tokenmodel.New(cfg, rng.Uint64(), satiating([]int{0}), tokenmodel.WithWorkspace(ws))
		if err != nil {
			return 0, err
		}
		res, err := m.Run()
		return res.CompletedFraction, err
	})
}
