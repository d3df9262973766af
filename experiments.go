package lotuseater

import (
	"lotuseater/internal/experiment"
	"lotuseater/internal/metrics"
)

// The experiment drivers live in internal/experiment, where each one is
// also a named entry in the experiment registry (run `lotus-sim list` for
// the catalogue, or call Experiments / RunExperiment from Go). This file
// keeps the original top-level API as thin shims over that package.

// Series re-exports the metrics series type used by all experiment drivers.
type Series = metrics.Series

// Artifact is a named experiment output (series or table) with text, CSV,
// and JSON encoders.
type Artifact = metrics.Artifact

// Quality controls the fidelity/runtime trade-off of an experiment sweep.
type Quality = experiment.Quality

// ExperimentEntry is a named, self-describing experiment in the registry.
type ExperimentEntry = experiment.Experiment

// GridCutResult is one row of the grid-cut experiment (E2).
type GridCutResult = experiment.GridCutResult

// SwarmRow is one scenario of the swarm experiment (E5).
type SwarmRow = experiment.SwarmRow

// RotatingResult summarizes one arm of the rotating-target experiment (E9).
type RotatingResult = experiment.RotatingResult

// FullQuality reproduces the figures at paper fidelity.
func FullQuality() Quality { return experiment.FullQuality() }

// QuickQuality is for tests and smoke runs.
func QuickQuality() Quality { return experiment.QuickQuality() }

// Experiments returns every registered experiment sorted by name.
func Experiments() []ExperimentEntry { return experiment.All() }

// RunExperiment executes a registered experiment by name, e.g. "figure1".
func RunExperiment(name string, seed uint64, q Quality) (*Artifact, error) {
	return experiment.Run(name, seed, q)
}

// Figure1 regenerates Figure 1 of the paper: fraction of updates received
// by isolated nodes versus the fraction of nodes controlled by the
// attacker, for the crash, ideal lotus-eater, and trade lotus-eater
// attacks, at Table 1 parameters (push size 2).
func Figure1(seed uint64, q Quality) ([]*Series, error) { return experiment.Figure1(seed, q) }

// Figure2 regenerates Figure 2: the same three attacks with the optimistic
// push size raised to 10, which makes partial satiation far less effective.
func Figure2(seed uint64, q Quality) ([]*Series, error) { return experiment.Figure2(seed, q) }

// Figure3 regenerates Figure 3: the trade lotus-eater attack against the
// obedient "slightly unbalanced exchange" variant (give one more update
// than received), alone and combined with a push size of 4.
func Figure3(seed uint64, q Quality) ([]*Series, error) { return experiment.Figure3(seed, q) }

// AltruismExperiment (E1) sweeps the token model's altruism parameter a
// under a static satiation attack on half the system.
func AltruismExperiment(seed uint64, q Quality) (*Series, error) {
	return experiment.AltruismExperiment(seed, q)
}

// GridCutExperiment (E2) satiates a column of a 16x16 grid — a cheap cut —
// versus the same number of random nodes in a degree-matched random graph.
func GridCutExperiment(seed uint64) ([]GridCutResult, error) {
	return experiment.GridCutExperiment(seed)
}

// RareTokenExperiment (E3) satiates the single initial holder of a rare
// token and sweeps altruism a.
func RareTokenExperiment(seed uint64, q Quality) (*Series, error) {
	return experiment.RareTokenExperiment(seed, q)
}

// ScripMoneySupplyExperiment (E4a) sweeps the fraction of agents the
// attacker tries to keep satiated from in-system earnings alone.
func ScripMoneySupplyExperiment(seed uint64, q Quality) (*Series, error) {
	return experiment.ScripMoneySupplyExperiment(seed, q)
}

// ScripRareProviderExperiment (E4b) reproduces the paper's rare-resource
// harm and the altruist-provider defense.
func ScripRareProviderExperiment(seed uint64, q Quality) ([]*Series, error) {
	return experiment.ScripRareProviderExperiment(seed, q)
}

// SatiateFractionAblation (A1) reproduces the paper's reasoning for
// targeting 70% of the system.
func SatiateFractionAblation(seed uint64, q Quality) ([]*Series, error) {
	return experiment.SatiateFractionAblation(seed, q)
}

// ScripInflationExperiment (E10, extension) satiates the whole economy by
// untargeted scrip gifts.
func ScripInflationExperiment(seed uint64, q Quality) (*Series, error) {
	return experiment.ScripInflationExperiment(seed, q)
}

// ScripHoardingExperiment (E11, extension) shows service hoarders draining
// the money supply.
func ScripHoardingExperiment(seed uint64, q Quality) (*Series, error) {
	return experiment.ScripHoardingExperiment(seed, q)
}

// SwarmExperiment (E5) reproduces the paper's BitTorrent analysis.
func SwarmExperiment(seed uint64, seeds int) ([]SwarmRow, error) {
	return experiment.SwarmExperiment(seed, seeds)
}

// CodingExperiment (E6) compares plain token gossip against random linear
// network coding under the rare-token attack.
func CodingExperiment(seed uint64, q Quality) ([]*Series, error) {
	return experiment.CodingExperiment(seed, q)
}

// ReportingExperiment (E7) sweeps the obedient fraction under a trade
// lotus-eater attack with the reporting defense on.
func ReportingExperiment(seed uint64, q Quality) ([]*Series, error) {
	return experiment.ReportingExperiment(seed, q)
}

// RateLimitExperiment (E8) sweeps the per-peer service rate cap against the
// ideal lotus-eater attack.
func RateLimitExperiment(seed uint64, q Quality) ([]*Series, error) {
	return experiment.RateLimitExperiment(seed, q)
}

// RotatingExperiment (E9) contrasts static and rotating satiated sets.
func RotatingExperiment(seed uint64, period int) ([]RotatingResult, error) {
	return experiment.RotatingExperiment(seed, period)
}

// Table1 returns the paper's simulation parameters (Table 1) as rendered
// rows, sourced from DefaultGossipConfig so the table cannot drift from the
// code.
func Table1() [][]string { return experiment.Table1() }
