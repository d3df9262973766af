package experiment

import (
	"lotuseater/internal/attack"
	"lotuseater/internal/coding"
	"lotuseater/internal/graph"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
	"lotuseater/internal/sweep"
)

// CodingExperiment (E6) compares plain token gossip against random linear
// network coding under the rare-token attack: the attacker satiates the s
// unique holders of s source symbols. Plain dissemination loses those
// symbols outright; coded dissemination is indifferent because every packet
// mixes all symbols. Returns mean progress (fraction of the file
// reconstructible) versus s for both modes.
func CodingExperiment(seed uint64, q Quality) ([]*Series, error) {
	q = q.Normalize()
	const (
		n       = 120
		symbols = 24
	)
	xs := make([]float64, 0, 7)
	for s := 0; s <= 12; s += 2 {
		xs = append(xs, float64(s))
	}

	runMode := func(name string, coded bool, offset uint64) (*Series, error) {
		return sweep.Run(sweep.Config{Name: name, Xs: xs, Seeds: q.Seeds}, seed+offset, func(x float64, rng *simrng.Source, _ *sim.Workspace) (float64, error) {
			s := int(x)
			// Unique holders: node i holds symbol i for i < symbols; the
			// rest duplicate symbols >= s (so only the first s symbols are
			// rare).
			alloc := make([]int, n)
			for v := 0; v < n; v++ {
				if v < symbols {
					alloc[v] = v
				} else {
					alloc[v] = symbols - 1 - (v % (symbols - 12))
				}
			}
			targets := make([]int, s)
			for i := range targets {
				targets[i] = i
			}
			cfg := coding.DisseminationConfig{
				Graph:       graph.RandomRegularish(n, 4, rng.Child("graph")),
				Symbols:     symbols,
				PayloadSize: 32,
				Contacts:    2,
				Rounds:      50,
				Coded:       coded,
				Allocation:  alloc,
			}
			var t attack.Targeter
			if s > 0 {
				t = attack.NewListTargeter(n, targets)
			}
			d, err := coding.NewDissemination(cfg, rng.Uint64(), t)
			if err != nil {
				return 0, err
			}
			res, err := d.Run()
			return res.MeanProgress, err
		})
	}
	plain, err := runMode("plain", false, 0)
	if err != nil {
		return nil, err
	}
	coded, err := runMode("coded", true, 1)
	if err != nil {
		return nil, err
	}
	return []*Series{plain, coded}, nil
}
