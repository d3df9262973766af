// Package sweep runs parameter sweeps concurrently and deterministically.
//
// Every figure in the paper is a sweep: "for each attacker fraction x in
// [0, 1], run the simulation and record the fraction of updates delivered to
// isolated nodes". Points are independent, so they run on the shared
// bounded worker pool from internal/sim; determinism is preserved by
// deriving each point's seed from the sweep seed and the point index, and by
// collecting results into a slice keyed by index rather than by completion
// order — the series is bit-identical for any worker count.
package sweep

import (
	"fmt"

	"lotuseater/internal/metrics"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// PointFunc runs one sweep point. x is the swept parameter value, rng is a
// stream derived deterministically from the sweep seed and the point index,
// and ws is the executing worker's scratch arena (pass it to simulators that
// accept one to avoid per-replicate allocations). It returns the measured y,
// or the error that kept it from being measured.
type PointFunc func(x float64, rng *simrng.Source, ws *sim.Workspace) (float64, error)

// Config controls a sweep.
type Config struct {
	// Name labels the resulting series.
	Name string
	// Xs are the parameter values to evaluate, in output order.
	Xs []float64
	// Seeds is the number of independent replications averaged per point.
	// Zero means 1.
	Seeds int
	// Workers bounds this sweep's in-flight tasks on the shared pool; the
	// pool width is the hard ceiling either way. Zero means pool width.
	// Results never depend on it.
	Workers int
}

// Run evaluates fn at every (x, seed replicate) pair concurrently and
// returns the per-x means as a series. The result is deterministic for a
// fixed (cfg, seed, fn): replicate r of point i always sees the stream
// derived with ChildN("sweep", i*Seeds+r). If any replicate fails, Run
// returns the error of the lowest failing (point, replicate) index — the
// same error for any worker count — and no series. Nested sweeps (a
// PointFunc that itself calls Run) are safe: when the shared pool is
// saturated, tasks fall back to inline execution instead of queueing.
func Run(cfg Config, seed uint64, fn PointFunc) (*metrics.Series, error) {
	seeds := cfg.Seeds
	if seeds <= 0 {
		seeds = 1
	}

	results := make([][]float64, len(cfg.Xs))
	for i := range results {
		results[i] = make([]float64, seeds)
	}
	errs := make([]error, len(cfg.Xs)*seeds)

	root := simrng.New(seed)
	sim.Go(len(cfg.Xs)*seeds, cfg.Workers, func(j int, ws *sim.Workspace) {
		pt, rep := j/seeds, j%seeds
		rng := root.ChildN("sweep", j)
		results[pt][rep], errs[j] = fn(cfg.Xs[pt], rng, ws)
	})
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep %q at x=%g: %w", cfg.Name, cfg.Xs[j/seeds], err)
		}
	}

	out := &metrics.Series{Name: cfg.Name}
	for i, x := range cfg.Xs {
		out.Add(x, metrics.Mean(results[i]))
	}
	return out, nil
}

// Range returns count evenly spaced values from lo to hi inclusive.
// count < 2 returns []float64{lo}.
func Range(lo, hi float64, count int) []float64 {
	if count < 2 {
		return []float64{lo}
	}
	out := make([]float64, count)
	step := (hi - lo) / float64(count-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[count-1] = hi
	return out
}
