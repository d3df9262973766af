package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"lotuseater/internal/attack"
	"lotuseater/internal/coding"
	"lotuseater/internal/gossip"
	"lotuseater/internal/graph"
	"lotuseater/internal/scrip"
	"lotuseater/internal/sign"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
	"lotuseater/internal/swarm"
	"lotuseater/internal/tokenmodel"
)

// scaleSub is one substrate's replicate in the scale workload. Its rounds
// are fixed by index: warmup rounds [0, warmup), then the measured window
// [warmup, warmup+window), inside a horizon that never depends on how long
// the run is. Per-round cost changes with the round index (the swarm's
// transfers ramp up, rotation rounds spike) but repeats at each index, so
// only a window fixed by index is comparable between runs.
type scaleSub struct {
	name                    string
	warmup, window, horizon int
	build                   func(n, horizon int, seed uint64, prof *swarm.PhaseProfile) (sim.Model, error)
}

var scaleSubs = []scaleSub{
	{"gossip", 12, 10, 24, buildGossip},
	{"swarm", 9, 6, 40, buildSwarm},
	{"token", 10, 100, 120, buildToken},
	{"scrip", 200, 600, 1000, buildScrip},
	{"coding", 10, 100, 120, buildCoding},
}

// The replicate shapes follow the registry's big-N scenarios (gossip-1m,
// swarm-1m) and cross-product shapes (token, scrip, coding).

func buildGossip(n, horizon int, seed uint64, _ *swarm.PhaseProfile) (sim.Model, error) {
	cfg := gossip.DefaultConfig()
	cfg.Nodes = n
	cfg.Rounds = horizon
	cfg.UpdatesPerRound = 1
	cfg.Lifetime = 8
	cfg.CopiesSeeded = min(64, n)
	cfg.Warmup = 0
	adv := &attack.Strategy{Kind: attack.Ideal, Fraction: 0.02, SatiateFraction: 0.30}
	return gossip.New(cfg, seed, gossip.WithAdversary(adv))
}

func buildSwarm(n, horizon int, seed uint64, prof *swarm.PhaseProfile) (sim.Model, error) {
	cfg := swarm.DefaultConfig()
	cfg.Leechers = n
	cfg.Ticks = horizon
	cfg.Pieces = 32
	cfg.PeerSetSize = 8
	cfg.AttackerUplink = 4096
	adv := &attack.Strategy{Kind: attack.Ideal, Fraction: 0.01, SatiateFraction: 0.10}
	opts := []swarm.Option{swarm.WithAdversary(adv)}
	if prof != nil {
		opts = append(opts, swarm.WithPhaseProfile(prof))
	}
	return swarm.New(cfg, seed, opts...)
}

func buildToken(n, horizon int, seed uint64, _ *swarm.PhaseProfile) (sim.Model, error) {
	rng := simrng.New(seed)
	cfg := tokenmodel.Config{
		Graph:    graph.RandomRegularish(n, 4, rng.Child("graph")),
		Tokens:   24,
		Contacts: 2,
		Rounds:   horizon,
	}
	adv := &attack.Strategy{Kind: attack.Ideal, Fraction: 0.10, SatiateFraction: 0.50}
	return tokenmodel.New(cfg, rng.Uint64(), tokenmodel.WithAdversary(adv))
}

func buildScrip(n, horizon int, seed uint64, _ *swarm.PhaseProfile) (sim.Model, error) {
	cfg := scrip.DefaultConfig()
	cfg.Agents = n
	cfg.Rounds = horizon
	adv := &attack.Strategy{Kind: attack.Trade, Fraction: 0.05, SatiateFraction: 0.50}
	return scrip.New(cfg, seed, scrip.WithAdversary(adv))
}

func buildCoding(n, horizon int, seed uint64, _ *swarm.PhaseProfile) (sim.Model, error) {
	rng := simrng.New(seed)
	cfg := coding.DisseminationConfig{
		Graph:       graph.RandomRegularish(n, 4, rng.Child("graph")),
		Symbols:     16,
		PayloadSize: 32,
		Contacts:    2,
		Rounds:      horizon,
	}
	adv := &attack.Strategy{Kind: attack.Ideal, Fraction: 0.10, SatiateFraction: 0.70}
	return coding.NewDissemination(cfg, rng.Uint64(), nil, coding.WithAdversary(adv))
}

// scalePass is what one pass measured for one substrate.
type scalePass struct {
	build, window, result time.Duration
	digest                string
	allocs, bytes         float64 // per window round (traced passes)
	phases                map[string]float64
}

// runScale runs passes over the five substrates until the timed phase is
// over (at least one pass). Each pass builds every replicate afresh (set-up),
// steps it through its warm-up, times its window, and reads the
// end-of-window snapshot, whose digest must repeat in every pass and, for
// the default seed, match pins.json.
func runScale(p params, tr *tracer) outcome {
	out := outcome{env: map[string]any{}}
	passes := map[string][]scalePass{}
	var busy busyMeter
	deadline := time.Now().Add(p.seconds)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		root := tr.begin("scale.pass", uint64(pass+1), 0)
		for _, sub := range scaleSubs {
			ps, err := scaleOne(sub, p, tr, uint64(pass+1), root.id(), &busy, &out)
			if err != nil {
				out.fail("scale/%s pass %d: %v", sub.name, pass, err)
				continue
			}
			passes[sub.name] = append(passes[sub.name], ps)
		}
		root.end()
	}

	var builds, results []float64
	for pass := 0; ; pass++ {
		b, r, complete := 0.0, 0.0, true
		for _, sub := range scaleSubs {
			ps := passes[sub.name]
			if pass >= len(ps) {
				complete = false
				break
			}
			b += ps[pass].build.Seconds()
			r += ms(ps[pass].result)
		}
		if !complete {
			break
		}
		builds, results = append(builds, b), append(results, r)
	}
	out.e2e = map[string]float64{
		"setup_s":   median(builds),
		"result_ms": median(results),
	}
	out.layer = zeroLayers()
	out.layer["sim.cpu_busy_frac"] = busy.frac()
	for _, sub := range scaleSubs {
		ps := passes[sub.name]
		var perRound, allocs, bytes []float64
		for i, pass := range ps {
			perRound = append(perRound, ms(pass.window)/float64(sub.window))
			allocs = append(allocs, pass.allocs)
			bytes = append(bytes, pass.bytes)
			if pass.digest != ps[0].digest {
				out.fail("scale/%s: pass %d digest %s differs from pass 0 %s", sub.name, i, pass.digest, ps[0].digest)
			}
		}
		if len(ps) > 0 {
			out.checkPin(p.pins, "scale/"+sub.name, ps[0].digest)
		}
		out.e2e["unit_ms."+sub.name] = median(perRound)
		if sub.name == "swarm" {
			out.primary = median(perRound)
		}
		if tr == nil {
			continue
		}
		out.layer["sim.build_s."+sub.name] = median(tr.durations("sim.build."+sub.name)) / 1e3
		out.layer["sim.allocs_per_round."+sub.name] = median(allocs)
		out.layer["sim.bytes_per_round."+sub.name] = median(bytes)
		if sub.name == "swarm" {
			for _, ph := range swarmPhases {
				var v []float64
				for _, pass := range ps {
					v = append(v, pass.phases[ph])
				}
				out.layer["swarm.phase_ms."+ph] = median(v)
			}
		}
	}
	if tr != nil {
		if d := tr.durations("sign.partner"); len(d) > 0 {
			out.layer["sign.partner_ns"] = median(d) * 1e6 / float64(p.sizes.scaleNodes["gossip"])
		}
	}
	return out
}

// scaleOne runs one substrate's replicate for one pass.
func scaleOne(sub scaleSub, p params, tr *tracer, trace, parent uint64, busy *busyMeter, out *outcome) (scalePass, error) {
	var ps scalePass
	n := p.sizes.scaleNodes[sub.name]
	seed := simrng.New(p.seed).Child("scale/" + sub.name).Uint64()
	var prof *swarm.PhaseProfile
	if tr != nil && sub.name == "swarm" {
		prof = &swarm.PhaseProfile{}
	}
	debug.FreeOSMemory()
	rss0 := rssBytes()

	t0 := time.Now()
	m, err := sub.build(n, sub.horizon, seed, prof)
	ps.build = time.Since(t0)
	tr.record("sim.build."+sub.name, trace, parent, t0, t0.Add(ps.build))
	if err != nil {
		return ps, fmt.Errorf("build: %w", err)
	}

	warm := tr.begin("sim.warmup."+sub.name, trace, parent)
	for r := 0; r < sub.warmup; r++ {
		out.attempted++
		if err := m.Step(); err != nil {
			return ps, fmt.Errorf("warm-up round %d: %w", r, err)
		}
	}
	warm.end()
	if sub.name == "swarm" {
		out.env["scale_swarm_resident_bytes"] = rssBytes() - rss0
	}

	if tr != nil && sub.name == "gossip" {
		// sign.Partner is the gossip exchange's partner schedule; time one
		// call per node for this round, outside the window.
		pseed := sign.PartnerSeed(seed)
		s := tr.begin("sign.partner", trace, parent)
		for v := 0; v < n; v++ {
			if q := sign.Partner(pseed, "balanced", sub.warmup, v, n); q == v || q < 0 || q >= n {
				out.fail("sign.Partner(%d) = %d out of range", v, q)
				break
			}
		}
		s.end()
	}

	var before, after runtime.MemStats
	if tr != nil {
		if prof != nil {
			prof.Reset()
		}
		runtime.ReadMemStats(&before)
	}
	win := tr.begin("sim.window."+sub.name, trace, parent)
	busy.start()
	w0 := time.Now()
	for r := sub.warmup; r < sub.warmup+sub.window; r++ {
		out.attempted++
		step := tr.begin("sim.step."+sub.name, trace, win.id())
		err := m.Step()
		step.end()
		if err != nil {
			busy.stop()
			return ps, fmt.Errorf("round %d: %w", r, err)
		}
	}
	ps.window = time.Since(w0)
	busy.stop()
	win.end()
	if tr != nil {
		runtime.ReadMemStats(&after)
		ps.allocs = float64(after.Mallocs-before.Mallocs) / float64(sub.window)
		ps.bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(sub.window)
		if prof != nil {
			ps.phases = map[string]float64{}
			for name, ns := range prof.Phases() {
				ps.phases[name] = ns / 1e6 / float64(sub.window)
			}
		}
	}

	out.attempted++
	r0 := time.Now()
	snap, err := m.Snapshot()
	if err != nil {
		return ps, fmt.Errorf("snapshot: %w", err)
	}
	text := fmt.Sprintf("%T%+v", snap, snap)
	ps.result = time.Since(r0)
	tr.record("sim.snapshot."+sub.name, trace, parent, r0, r0.Add(ps.result))
	ps.digest = digest([]byte(text))
	return ps, nil
}
