package experiment

import (
	"fmt"

	"lotuseater/internal/metrics"
)

// seriesArtifact wraps figure curves into an artifact, annotating the
// 0.93-usability crossover when asked (the paper's headline statistic).
func seriesArtifact(name, title, xLabel string, crossover bool, series ...*Series) *metrics.Artifact {
	a := &metrics.Artifact{Name: name, Title: title, XLabel: xLabel, Series: series}
	if crossover {
		for _, s := range series {
			if x, ok := s.CrossoverBelow(0.93); ok {
				a.Notes = append(a.Notes,
					fmt.Sprintf("%s drops below the 0.93 usability threshold at x = %.3f", s.Name, x))
			}
		}
	}
	return a
}

// curves adapts a driver returning figure series to a registry Run func.
func curves(name, title, xLabel string, crossover bool, run func(uint64, Quality) ([]*Series, error)) func(uint64, Quality) (*metrics.Artifact, error) {
	return func(seed uint64, q Quality) (*metrics.Artifact, error) {
		series, err := run(seed, q)
		if err != nil {
			return nil, err
		}
		return seriesArtifact(name, title, xLabel, crossover, series...), nil
	}
}

// one adapts a single-series driver to curves.
func one(run func(uint64, Quality) (*Series, error)) func(uint64, Quality) ([]*Series, error) {
	return func(seed uint64, q Quality) ([]*Series, error) {
		s, err := run(seed, q)
		if err != nil {
			return nil, err
		}
		return []*Series{s}, nil
	}
}

func tableArtifact(name, title string, rows [][]string) *metrics.Artifact {
	return &metrics.Artifact{Name: name, Title: title, Table: rows}
}

// The full catalogue: every table and figure of the paper plus the
// extension experiments, keyed by registry name. `lotus-sim list` prints
// this; `lotus-sim run <name>` executes it.
func init() {
	Register(Experiment{
		Name:        "table1",
		Description: "Table 1: the paper's simulation parameters, sourced from the live defaults",
		Run: func(seed uint64, q Quality) (*metrics.Artifact, error) {
			return tableArtifact("table1", "Table 1: Simulation Parameters", Table1()), nil
		},
	})
	Register(Experiment{
		Name:        "figure1",
		Description: "Figure 1: crash vs ideal vs trade lotus-eater attacks on BAR Gossip (push size 2)",
		Run: curves("figure1", "Figure 1: three attacks on BAR Gossip (isolated-node delivery)",
			"attacker-fraction", true, Figure1),
	})
	Register(Experiment{
		Name:        "figure2",
		Description: "Figure 2: raising the optimistic push size to 10 blunts all three attacks",
		Run: curves("figure2", "Figure 2: push size 10 reduces attack effectiveness",
			"attacker-fraction", true, Figure2),
	})
	Register(Experiment{
		Name:        "figure3",
		Description: "Figure 3: slightly unbalanced exchanges defend against the trade attack",
		Run: curves("figure3", "Figure 3: obedient (unbalanced) exchanges reduce effectiveness",
			"attacker-fraction", true, Figure3),
	})
	Register(Experiment{
		Name:        "altruism",
		Description: "E1: altruism a restores completion under half-system satiation (token model)",
		Run: curves("altruism", "E1: altruism a vs completion under half-system satiation (token model)",
			"altruism-a", false, one(AltruismExperiment)),
	})
	Register(Experiment{
		Name:        "gridcut",
		Description: "E2: satiating a 16-node grid column cuts the system; a random graph shrugs it off",
		Run: func(seed uint64, q Quality) (*metrics.Artifact, error) {
			rows, err := GridCutExperiment(seed)
			if err != nil {
				return nil, err
			}
			table := [][]string{{"topology/attack", "satiated", "rare-token-coverage", "completed-fraction"}}
			for _, r := range rows {
				table = append(table, []string{
					r.Topology,
					fmt.Sprintf("%d", r.SatiatedNodes),
					fmt.Sprintf("%.4f", r.RareTokenCoverage),
					fmt.Sprintf("%.4f", r.CompletedFraction),
				})
			}
			return tableArtifact("gridcut", "E2: satiating a grid cut vs a random graph (token model)", table), nil
		},
	})
	Register(Experiment{
		Name:        "raretoken",
		Description: "E3: satiating one rare-token holder denies the whole system at a = 0",
		Run: curves("raretoken", "E3: rare-token denial vs altruism (token model)",
			"altruism-a", false, one(RareTokenExperiment)),
	})
	Register(Experiment{
		Name:        "scrip-money-supply",
		Description: "E4a: an earned-budget attacker cannot satiate a large fraction of a scrip economy",
		Run: curves("scrip-money-supply", "E4a: scrip-system satiation is bounded by the money supply",
			"targeted-fraction", false, one(ScripMoneySupplyExperiment)),
	})
	Register(Experiment{
		Name:        "scrip-rare-provider",
		Description: "E4b: satiating rare providers denies specialty service; altruist providers restore it",
		Run: curves("scrip-rare-provider", "E4b: satiating rare providers denies specialty service; altruists restore it",
			"attack-budget", false, ScripRareProviderExperiment),
	})
	Register(Experiment{
		Name:        "swarm",
		Description: "E5: lotus-eater attacks on a BitTorrent-like swarm are weak or even helpful",
		Run: func(seed uint64, q Quality) (*metrics.Artifact, error) {
			rows, err := SwarmExperiment(seed, q.Normalize().Seeds)
			if err != nil {
				return nil, err
			}
			table := [][]string{{"scenario", "completed", "mean-tick", "median-tick", "lost-pieces"}}
			for _, r := range rows {
				table = append(table, []string{
					r.Scenario,
					fmt.Sprintf("%.3f", r.CompletedFraction),
					fmt.Sprintf("%.1f", r.MeanCompletionTick),
					fmt.Sprintf("%.1f", r.MedianCompletionTick),
					fmt.Sprintf("%d", r.LostPieces),
				})
			}
			return tableArtifact("swarm", "E5: lotus-eater attacks on a BitTorrent-like swarm", table), nil
		},
	})
	Register(Experiment{
		Name:        "coding",
		Description: "E6: random linear network coding neutralizes rare-token satiation",
		Run: curves("coding", "E6: network coding neutralizes rare-token satiation",
			"satiated-unique-holders", false, CodingExperiment),
	})
	Register(Experiment{
		Name:        "reporting",
		Description: "E7: obedient nodes reporting excessive deliveries evict the attacker",
		Run: curves("reporting", "E7: obedient reporting evicts over-providers (trade attack, 30%)",
			"obedient-fraction", false, ReportingExperiment),
	})
	Register(Experiment{
		Name:        "ratelimit",
		Description: "E8: per-peer service rate limiting blunts the ideal attack at no healthy-system cost",
		Run: curves("ratelimit", "E8: per-peer rate limiting vs the ideal attack (cap=0 means off)",
			"rate-cap", false, RateLimitExperiment),
	})
	Register(Experiment{
		Name:        "rotating",
		Description: "E9: rotating the satiated set makes service intermittently unusable for everyone",
		Run: func(seed uint64, q Quality) (*metrics.Artifact, error) {
			rows, err := RotatingExperiment(seed, 20)
			if err != nil {
				return nil, err
			}
			table := [][]string{{"arm", "mean-delivery", "nodes-with-outage", "mean-outage-epochs", "epochs"}}
			for _, r := range rows {
				table = append(table, []string{
					r.Name,
					fmt.Sprintf("%.4f", r.MeanDelivery),
					fmt.Sprintf("%.3f", r.NodesWithOutage),
					fmt.Sprintf("%.2f", r.MeanOutageEpochs),
					fmt.Sprintf("%d", r.Epochs),
				})
			}
			return tableArtifact("rotating", "E9: rotating the satiated set makes service intermittently unusable for all", table), nil
		},
	})
	Register(Experiment{
		Name:        "inflation",
		Description: "E10 (extension): untargeted scrip gifts satiate the whole economy past a cliff",
		Run: curves("inflation", "E10: satiation by monetary inflation (untargeted scrip gifts)",
			"injected-scrip-per-capita", false, one(ScripInflationExperiment)),
	})
	Register(Experiment{
		Name:        "hoarding",
		Description: "E11 (extension): service hoarders drain the money supply and centralize the system",
		Run: curves("hoarding", "E11: service hoarders drain the money supply and centralize the system",
			"hoarder-fraction", false, one(ScripHoardingExperiment)),
	})
	Register(Experiment{
		Name:        "satiate-ablation",
		Description: "A1: why the attacker satiates ~70% — per-victim damage vs victim count",
		Run: curves("satiate-ablation", "A1: why satiate 70%? (trade attack, 25% attackers)",
			"satiate-fraction", false, SatiateFractionAblation),
	})
}
