package main

import (
	"fmt"
	"time"

	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
)

// sweepSpecs are the registry specs of the figure-regeneration path, run at
// registry settings: many short, small-n replicates (below ParallelFor's
// fan-out), three per point, a CI-targeted adaptive spec, churn and classes.
var sweepSpecs = []string{
	"gossip-trade",
	"gossip-trade-auto",
	"token-trade-defended",
	"scrip-trade-satiation",
	"swarm-ideal",
	"coding-ideal",
	"gossip-trade-churn",
	"scrip-classes",
}

// sweepSetups is how many times a run sets the sweep up; setup_s is the
// median.
const sweepSetups = 3

// runSweep runs scenario.Run over the spec list back to back from one
// goroutine, with the pool at full width, pass after pass until the timed
// phase is over (at least one pass). Every artifact's address must repeat
// in every pass and, for the default seed, match pins.json. A traced run
// executes fixed specs through scenario's exported pieces (PlanOf,
// PointSpec, FoldWindow, Assemble) so points and assembly get their own
// spans; their artifacts must match the same pins.
func runSweep(p params, tr *tracer) outcome {
	out := outcome{}
	opts := scenario.RunOptions{Replicates: p.sizes.sweepReplicates, Points: p.sizes.sweepPoints}

	var setups []float64
	var specs []*scenario.Spec
	for i := 0; i < sweepSetups; i++ {
		t0 := time.Now()
		got, err := setUpSweep(p.seed, opts)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			out.fail("sweep setup: %v", err)
			return out
		}
		specs = got
	}

	type perSub struct {
		wall time.Duration
		reps int
	}
	var unit = map[string][]float64{}
	var encodes, perRep, bytesOut []float64
	addresses := map[string]string{}
	var busy busyMeter
	points, reps := 0, 0
	deadline := time.Now().Add(p.seconds)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		subs := map[string]*perSub{}
		var passWall time.Duration
		passReps := 0
		points, reps = 0, 0
		for i, spec := range specs {
			trace := uint64(pass*len(specs) + i + 1)
			root := tr.begin("sweep.spec", trace, 0)
			out.attempted++
			busy.start()
			t0 := time.Now()
			a, n, err := runSpec(spec, p.seed, opts, tr, trace, root.id())
			wall := time.Since(t0)
			busy.stop()
			if err != nil {
				root.end()
				out.fail("sweep/%s: %v", spec.Name, err)
				continue
			}
			e0 := time.Now()
			body, err := a.CanonicalJSON()
			enc := time.Since(e0)
			tr.record("metrics.encode", trace, root.id(), e0, e0.Add(enc))
			root.end()
			if err != nil {
				out.fail("sweep/%s: encoding: %v", spec.Name, err)
				continue
			}
			encodes = append(encodes, ms(enc))
			bytesOut = append(bytesOut, float64(len(body)))
			addr := digest(body)
			if first, ok := addresses[spec.Name]; !ok {
				addresses[spec.Name] = addr
				out.checkPin(p.pins, "sweep/"+spec.Name, addr)
			} else if first != addr {
				out.fail("sweep/%s: pass %d address %s differs from pass 0 %s", spec.Name, pass, addr, first)
			}
			ps := subs[spec.Substrate]
			if ps == nil {
				ps = &perSub{}
				subs[spec.Substrate] = ps
			}
			ps.wall += wall
			ps.reps += n
			passWall += wall
			passReps += n
			points += len(scenario.PlanOf(spec, opts).Xs)
			reps += n
		}
		for _, s := range substrates {
			if ps := subs[s]; ps != nil && ps.reps > 0 {
				unit[s] = append(unit[s], ms(ps.wall)/float64(ps.reps))
			}
		}
		if passReps > 0 {
			perRep = append(perRep, ms(passWall)/float64(passReps))
		}
		if tr != nil {
			replicateProbe(specs, p.seed, tr, &out)
		}
	}

	out.primary = median(perRep)
	out.e2e = map[string]float64{
		"setup_s":   median(setups),
		"result_ms": median(encodes),
	}
	for _, s := range substrates {
		out.e2e["unit_ms."+s] = median(unit[s])
	}
	out.layer = zeroLayers()
	out.layer["sim.cpu_busy_frac"] = busy.frac()
	if tr != nil {
		for _, s := range substrates {
			out.layer["sim.replicate_ms."+s] = median(tr.durations("sim.replicate." + s))
		}
		out.layer["scenario.point_ms"] = median(tr.durations("scenario.point"))
		out.layer["scenario.assemble_ms"] = median(tr.durations("scenario.assemble"))
		out.layer["scenario.points"] = float64(points)
		out.layer["scenario.replicates"] = float64(reps)
		out.layer["metrics.encode_ms"] = median(tr.durations("metrics.encode"))
		out.layer["metrics.artifact_bytes"] = median(bytesOut)
	}
	return out
}

// setUpSweep is the sweep's set-up: look up every spec, validate it,
// resolve its execution plan and point specs, derive its canonical form,
// and warm it with one replicate of its first point, so that lazy set-up
// (the worker pool, first-touch allocation) is done before timing.
func setUpSweep(seed uint64, opts scenario.RunOptions) ([]*scenario.Spec, error) {
	specs := make([]*scenario.Spec, 0, len(sweepSpecs))
	for _, name := range sweepSpecs {
		spec, ok := scenario.Get(name)
		if !ok {
			return nil, fmt.Errorf("%s is not in the registry", name)
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		var first *scenario.Spec
		for _, x := range scenario.PlanOf(spec, opts).Xs {
			pt, err := spec.PointSpec(x)
			if err != nil {
				return nil, err
			}
			if first == nil {
				first = pt
			}
		}
		if _, err := spec.CanonicalJSON(); err != nil {
			return nil, err
		}
		if err := scenario.FoldWindow(first, seed, 0, 1, 0, func(int, float64) {}); err != nil {
			return nil, fmt.Errorf("%s: warm-up replicate: %w", name, err)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// runSpec runs one spec and returns its artifact and replicate count.
// Untraced, it is one scenario.Run call. Traced, a fixed spec runs point by
// point through PointSpec and FoldWindow and is put together by Assemble;
// an adaptive spec runs through scenario.Run with a PointProgress callback
// marking where each point ends.
func runSpec(spec *scenario.Spec, seed uint64, opts scenario.RunOptions, tr *tracer, trace, parent uint64) (*metrics.Artifact, int, error) {
	ep := scenario.PlanOf(spec, opts)
	if tr == nil || ep.Adaptive {
		o := opts
		var run *openSpan
		if tr != nil {
			run = tr.begin("scenario.run", trace, parent)
			last := time.Now()
			o.PointProgress = func(point, reps int, _ float64, met bool) {
				if met || reps >= ep.Plan.MaxReps {
					now := time.Now()
					tr.record("scenario.point", trace, run.id(), last, now)
					last = now
				}
			}
		}
		a, err := scenario.Run(spec, seed, o)
		run.end()
		if err != nil {
			return nil, 0, err
		}
		n, err := replicatesOf(spec, opts, a)
		return a, n, err
	}

	results := make([]scenario.PointResult, 0, len(ep.Xs))
	for _, x := range ep.Xs {
		ps := tr.begin("scenario.point", trace, parent)
		pt, err := spec.PointSpec(x)
		if err != nil {
			return nil, 0, err
		}
		st := metrics.NewStream()
		fw := tr.begin("sim.fold_window", trace, ps.id())
		err = scenario.FoldWindow(pt, seed, 0, ep.Replicates, opts.Workers, func(_ int, y float64) { st.Add(y) })
		fw.end()
		ps.end()
		if err != nil {
			return nil, 0, err
		}
		results = append(results, scenario.PointResult{X: x, Stream: st})
	}
	as := tr.begin("scenario.assemble", trace, parent)
	a, err := scenario.Assemble(spec, opts, results)
	as.end()
	return a, len(ep.Xs) * ep.Replicates, err
}

// replicatesOf counts the replicates a run folded: points x replicates for
// a fixed spec, the artifact's per-point "reps" series for an adaptive one.
func replicatesOf(spec *scenario.Spec, opts scenario.RunOptions, a *metrics.Artifact) (int, error) {
	if !scenario.PlanOf(spec, opts).Adaptive {
		return scenario.TotalReplicates(spec, opts), nil
	}
	for _, s := range a.Series {
		if s.Name == "reps" {
			n := 0
			for _, pt := range s.Points {
				n += int(pt.Y)
			}
			return n, nil
		}
	}
	return 0, fmt.Errorf("%s: adaptive artifact has no reps series", spec.Name)
}

// replicateProbe times single-replicate FoldWindow calls, three per
// substrate, at the middle point of the first spec of each substrate.
func replicateProbe(specs []*scenario.Spec, seed uint64, tr *tracer, out *outcome) {
	seen := map[string]bool{}
	for _, spec := range specs {
		if seen[spec.Substrate] {
			continue
		}
		seen[spec.Substrate] = true
		xs := scenario.PlanOf(spec, scenario.RunOptions{}).Xs
		pt, err := spec.PointSpec(xs[len(xs)/2])
		if err != nil {
			out.fail("sweep/%s: point spec: %v", spec.Name, err)
			continue
		}
		for rep := 0; rep < 3; rep++ {
			out.attempted++
			s := tr.begin("sim.replicate."+spec.Substrate, 0, 0)
			err := scenario.FoldWindow(pt, seed, rep, 1, 1, func(int, float64) {})
			s.end()
			if err != nil {
				out.fail("sweep/%s: replicate %d: %v", spec.Name, rep, err)
			}
		}
	}
}
