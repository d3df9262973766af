package experiment

import (
	"fmt"

	"lotuseater/internal/attack"
	"lotuseater/internal/defense"
	"lotuseater/internal/gossip"
	"lotuseater/internal/metrics"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
	"lotuseater/internal/sweep"
)

// Series re-exports the metrics series type used by all experiment drivers.
type Series = metrics.Series

// paperAttack is the paper's attack of the given kind: the adversary
// controls fraction of the nodes and targets 70% of the system.
func paperAttack(kind attack.Kind, fraction float64) gossip.Option {
	return gossip.WithAdversary(&attack.Strategy{Kind: kind, Fraction: fraction, SatiateFraction: 0.70})
}

// runGossip runs one gossip replicate to its horizon.
func runGossip(cfg gossip.Config, seed uint64, opts ...gossip.Option) (gossip.Result, error) {
	eng, err := gossip.New(cfg, seed, opts...)
	if err != nil {
		return gossip.Result{}, err
	}
	return eng.Run()
}

// gossipDeliverySweep sweeps attacker fraction for one attack/config
// variant and returns the isolated-node delivery series.
func gossipDeliverySweep(name string, base gossip.Config, kind attack.Kind, xs []float64, seeds int, seed uint64) (*Series, error) {
	return sweep.Run(sweep.Config{Name: name, Xs: xs, Seeds: seeds}, seed, func(x float64, rng *simrng.Source, _ *sim.Workspace) (float64, error) {
		res, err := runGossip(base, rng.Uint64(), paperAttack(kind, x))
		return res.Isolated.MeanDelivery, err
	})
}

// figureAttacks are the three curves of Figures 1 and 2.
var figureAttacks = []struct {
	name string
	kind attack.Kind
}{
	{"crash", attack.Crash},
	{"ideal-lotus-eater", attack.Ideal},
	{"trade-lotus-eater", attack.Trade},
}

// attackFigure sweeps attacker fraction over [0, 0.9] for each of
// figureAttacks on base.
func attackFigure(base gossip.Config, seed uint64, q Quality) ([]*Series, error) {
	q = q.Normalize()
	xs := sweep.Range(0, 0.9, q.Points)
	return collect(len(figureAttacks), func(i int) (*Series, error) {
		a := figureAttacks[i]
		return gossipDeliverySweep(a.name, base, a.kind, xs, q.Seeds, seed)
	})
}

// Figure1 regenerates Figure 1 of the paper: fraction of updates received
// by isolated nodes versus the fraction of nodes controlled by the
// attacker, for the crash, ideal lotus-eater, and trade lotus-eater
// attacks, at Table 1 parameters (push size 2).
func Figure1(seed uint64, q Quality) ([]*Series, error) {
	return attackFigure(gossip.DefaultConfig(), seed, q)
}

// Figure2 regenerates Figure 2: the same three attacks with the optimistic
// push size raised to 10, which makes partial satiation far less effective.
func Figure2(seed uint64, q Quality) ([]*Series, error) {
	base := gossip.DefaultConfig()
	base.PushSize = 10
	return attackFigure(base, seed, q)
}

// Figure3 regenerates Figure 3: the trade lotus-eater attack against the
// obedient "slightly unbalanced exchange" variant (give one more update
// than received), alone and combined with a push size of 4.
func Figure3(seed uint64, q Quality) ([]*Series, error) {
	q = q.Normalize()
	xs := sweep.Range(0, 0.7, q.Points)
	variants := []struct {
		name            string
		pushSize, slack int
	}{
		{"push2-balanced", 2, 0},
		{"push2-unbalanced", 2, 1},
		{"push4-balanced", 4, 0},
		{"push4-unbalanced", 4, 1},
	}
	return collect(len(variants), func(i int) (*Series, error) {
		v := variants[i]
		base := gossip.DefaultConfig()
		base.PushSize = v.pushSize
		base.BalanceSlack = v.slack
		return gossipDeliverySweep(v.name, base, attack.Trade, xs, q.Seeds, seed)
	})
}

// resultSweeps runs one sweep per named metric over the same replicates:
// each sweep re-runs run at every point and extracts its metric from the
// result. Replicate streams depend only on (seed, point, replicate), so
// every series sees the same runs.
func resultSweeps(xs []float64, seeds int, seed uint64, run func(x float64, rng *simrng.Source) (gossip.Result, error),
	metrics ...namedMetric) ([]*Series, error) {
	return collect(len(metrics), func(i int) (*Series, error) {
		m := metrics[i]
		return sweep.Run(sweep.Config{Name: m.name, Xs: xs, Seeds: seeds}, seed, func(x float64, rng *simrng.Source, _ *sim.Workspace) (float64, error) {
			res, err := run(x, rng)
			return m.of(res), err
		})
	})
}

// namedMetric extracts one series value from a gossip result.
type namedMetric struct {
	name string
	of   func(gossip.Result) float64
}

func isolatedDelivery(res gossip.Result) float64 { return res.Isolated.MeanDelivery }

// SatiateFractionAblation (A1) reproduces the paper's reasoning for
// targeting 70% of the system: "it strikes a balance between the need to
// satiate enough nodes to limit trade opportunities for isolated nodes and
// a desire to isolate as many as possible." At a fixed attacker fraction,
// sweep the satiation target and report isolated-node delivery — the
// attacker wants to starve as many nodes as possible. Satiating more nodes
// starves each isolated node harder (fewer trading partners) but shrinks
// the isolated population — so per-victim damage rises monotonically while
// the *victim count* (isolated nodes with unusable service) peaks in
// between, which is what makes ~70% the attacker's sweet spot. Returns both
// series: "isolated-delivery" and "unusable-victims".
func SatiateFractionAblation(seed uint64, q Quality) ([]*Series, error) {
	q = q.Normalize()
	run := func(x float64, rng *simrng.Source) (gossip.Result, error) {
		return runGossip(gossip.DefaultConfig(), rng.Uint64(),
			gossip.WithAdversary(&attack.Strategy{Kind: attack.Trade, Fraction: 0.25, SatiateFraction: x}))
	}
	return resultSweeps(sweep.Range(0.3, 0.95, q.Points), q.Seeds, seed, run,
		namedMetric{"isolated-delivery", isolatedDelivery},
		namedMetric{"unusable-victims", func(res gossip.Result) float64 {
			return float64(res.Isolated.Nodes) * (1 - res.Isolated.UsableFraction)
		}})
}

// ReportingExperiment (E7) sweeps the obedient fraction under a trade
// lotus-eater attack with the reporting defense on: obedient satiation
// targets report the attacker's excessive deliveries using signed receipts,
// and accused nodes are evicted. Returns isolated-node delivery and the
// eviction count versus obedient fraction.
func ReportingExperiment(seed uint64, q Quality) ([]*Series, error) {
	q = q.Normalize()
	// Excess service beyond the balance slack is already a protocol
	// violation (honest exchanges are one-for-one up to slack), so an
	// excess of 2+ is reportable, and two independent witnesses suffice.
	base := gossip.DefaultConfig()
	base.ReportThreshold = 1
	base.EvictAfterReports = 2
	run := func(x float64, rng *simrng.Source) (gossip.Result, error) {
		cfg := base
		cfg.ObedientFraction = x
		return runGossip(cfg, rng.Uint64(), paperAttack(attack.Trade, 0.30))
	}
	return resultSweeps(sweep.Range(0, 1, q.Points), q.Seeds, seed, run,
		namedMetric{"isolated-delivery", isolatedDelivery},
		namedMetric{"evicted-nodes", func(res gossip.Result) float64 { return float64(res.Evictions) }})
}

// RateLimitExperiment (E8) addresses Section 5's open problem: limit the
// rate at which any peer can provide service so the attacker cannot
// satiate "sufficiently rapidly". All honest nodes are obedient and accept
// at most `cap` updates per peer per round. Returns isolated delivery under
// an ideal lotus-eater attack and under no attack (the cost of the defense)
// versus the cap; x = 0 means the limiter is off.
func RateLimitExperiment(seed uint64, q Quality) ([]*Series, error) {
	q = q.Normalize()
	xs := []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24}
	cfg := gossip.DefaultConfig()
	cfg.ObedientFraction = 1
	arms := []struct {
		name     string
		kind     attack.Kind
		fraction float64
	}{
		{"ideal-attack(10%)", attack.Ideal, 0.10},
		{"no-attack", attack.None, 0},
	}
	return collect(len(arms), func(i int) (*Series, error) {
		arm := arms[i]
		return sweep.Run(sweep.Config{Name: arm.name, Xs: xs, Seeds: q.Seeds}, seed+uint64(i), func(x float64, rng *simrng.Source, _ *sim.Workspace) (float64, error) {
			opts := []gossip.Option{paperAttack(arm.kind, arm.fraction)}
			if x > 0 {
				opts = append(opts, gossip.WithDefense(defense.NewLimit(int(x))))
			}
			res, err := runGossip(cfg, rng.Uint64(), opts...)
			return res.Isolated.MeanDelivery, err
		})
	})
}

// RotatingResult summarizes one arm of the rotating-target experiment (E9).
type RotatingResult struct {
	// Name labels the arm (static vs rotating).
	Name string
	// MeanDelivery is the honest population's overall delivery.
	MeanDelivery float64
	// NodesWithOutage is the fraction of honest nodes that experienced at
	// least one epoch (RotatePeriod-round window) of unusable service.
	NodesWithOutage float64
	// MeanOutageEpochs is the average number of unusable epochs per honest
	// node.
	MeanOutageEpochs float64
	// Epochs is how many measured epochs the run contained.
	Epochs int
}

// RotatingExperiment (E9) demonstrates the paper's remark that "by changing
// who is satiated over time, the attacker could even make the service
// intermittently unusable for all nodes". It runs the trade attack twice —
// with a static satiated set and with the set re-drawn every `period`
// rounds — and reports, per arm, how many nodes ever suffered an unusable
// window. Static: only the permanently isolated minority suffers. Rotating:
// nearly every node takes its turn being starved.
func RotatingExperiment(seed uint64, period int) ([]RotatingResult, error) {
	run := func(name string, rotate int) (RotatingResult, error) {
		cfg := gossip.DefaultConfig()
		cfg.Rounds = 15 + 10*period
		cfg.TrackPerNode = true
		res, err := runGossip(cfg, seed, gossip.WithAdversary(&attack.Strategy{
			Kind: attack.Ideal, Fraction: 0.08, SatiateFraction: 0.70, RotatePeriod: rotate}))
		if err != nil {
			return RotatingResult{}, err
		}
		out := RotatingResult{Name: name, MeanDelivery: res.AllHonest.MeanDelivery}
		var outageNodes, honest int
		var outageEpochs float64
		for _, rounds := range res.NodeRoundDelivery {
			// Group this node's measured rounds into period-length epochs.
			type acc struct{ sum, n float64 }
			epochs := map[int]*acc{}
			for r, frac := range rounds {
				if frac < 0 {
					continue
				}
				ep := r / period
				a := epochs[ep]
				if a == nil {
					a = &acc{}
					epochs[ep] = a
				}
				a.sum += frac
				a.n++
			}
			if len(epochs) == 0 {
				continue // attacker node
			}
			honest++
			if len(epochs) > out.Epochs {
				out.Epochs = len(epochs)
			}
			bad := 0
			for _, a := range epochs {
				if a.sum/a.n < cfg.UsableThreshold {
					bad++
				}
			}
			if bad > 0 {
				outageNodes++
			}
			outageEpochs += float64(bad)
		}
		if honest > 0 {
			out.NodesWithOutage = float64(outageNodes) / float64(honest)
			out.MeanOutageEpochs = outageEpochs / float64(honest)
		}
		return out, nil
	}
	staticArm, err := run("static", 0)
	if err != nil {
		return nil, err
	}
	rotatingArm, err := run("rotating", period)
	if err != nil {
		return nil, err
	}
	return []RotatingResult{staticArm, rotatingArm}, nil
}

// Table1 returns the paper's simulation parameters (Table 1) as rendered
// rows, sourced from gossip.DefaultConfig so the table cannot drift from
// the code.
func Table1() [][]string {
	cfg := gossip.DefaultConfig()
	return [][]string{
		{"Parameter", "Value"},
		{"Number of Nodes", fmt.Sprintf("%d", cfg.Nodes)},
		{"Updates per Round", fmt.Sprintf("%d", cfg.UpdatesPerRound)},
		{"Update Lifetime (rds)", fmt.Sprintf("%d", cfg.Lifetime)},
		{"Copies Seeded", fmt.Sprintf("%d", cfg.CopiesSeeded)},
		{"Opt. Push Size (upd)", fmt.Sprintf("%d", cfg.PushSize)},
	}
}
