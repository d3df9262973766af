// Package lotuseater is a reproduction of "The Lotus-Eater Attack" (Kash,
// Friedman, Halpern; PODC 2008). It provides, behind one import:
//
//   - a BAR Gossip simulator with the paper's three attacks (crash, ideal
//     lotus-eater, trade lotus-eater) and its defenses (larger optimistic
//     pushes, slightly unbalanced exchanges, obedient reporting, rate
//     limiting) — see NewGossip, which takes the attack as an
//     AttackStrategy;
//   - the abstract token-collecting model (G, T, sat, f, c, a) of Section 3
//     — see NewTokenModel;
//   - a scrip economy with threshold strategies — see NewScrip;
//   - a BitTorrent-like swarm — see NewSwarm;
//   - random linear network coding over GF(2^8) and the coded-dissemination
//     defense — see NewDissemination;
//   - a registry of named, self-describing experiments covering every table
//     and figure in the paper plus the extension experiments — see
//     Experiments and RunExperiment (or `lotus-sim list` / `lotus-sim run
//     <name>` on the command line), with the classic typed drivers
//     (Figure1 and friends in experiments.go) kept as thin shims.
//
// All five simulators implement the sim.Model interface of the shared
// simulation kernel (internal/sim) — Step / Finished / Snapshot — and
// experiment sweeps execute on the kernel's process-wide bounded worker
// pool with per-worker scratch reuse, so results are deterministic in
// (configuration, seed) for any worker count. Everything uses only the
// standard library.
package lotuseater

import (
	"lotuseater/internal/attack"
	"lotuseater/internal/coding"
	"lotuseater/internal/defense"
	"lotuseater/internal/gossip"
	"lotuseater/internal/graph"
	"lotuseater/internal/scrip"
	"lotuseater/internal/simrng"
	"lotuseater/internal/swarm"
	"lotuseater/internal/tokenmodel"
)

// Re-exported configuration and result types. The facade keeps downstream
// callers to a single import; the implementations live in internal packages.
type (
	// GossipConfig configures the BAR Gossip simulator (Table 1 defaults
	// via DefaultGossipConfig).
	GossipConfig = gossip.Config
	// GossipResult is a BAR Gossip run's outcome.
	GossipResult = gossip.Result
	// GossipEngine is a single BAR Gossip simulation.
	GossipEngine = gossip.Engine

	// TokenModelConfig configures the Section 3 token-collecting model.
	TokenModelConfig = tokenmodel.Config
	// TokenModelResult is a token-model run's outcome.
	TokenModelResult = tokenmodel.Result

	// ScripConfig configures the scrip economy.
	ScripConfig = scrip.Config
	// ScripResult is a scrip run's outcome.
	ScripResult = scrip.Result
	// ScripAttackPlan configures the money-gifting lotus-eater attack.
	ScripAttackPlan = scrip.AttackPlan

	// SwarmConfig configures the BitTorrent-like swarm.
	SwarmConfig = swarm.Config
	// SwarmResult is a swarm run's outcome.
	SwarmResult = swarm.Result

	// DisseminationConfig configures the coded-vs-plain gossip comparison.
	DisseminationConfig = coding.DisseminationConfig
	// DisseminationResult is its outcome.
	DisseminationResult = coding.DisseminationResult

	// Graph is an undirected communication graph.
	Graph = graph.Graph

	// AttackKind enumerates the paper's attacks on BAR Gossip.
	AttackKind = attack.Kind
	// AttackStrategy is the paper's adversary: which nodes it controls,
	// which it satiates, and how its nodes behave in exchanges.
	AttackStrategy = attack.Strategy
)

// Attack kinds, re-exported for configuration literals.
const (
	AttackNone  = attack.None
	AttackCrash = attack.Crash
	AttackIdeal = attack.Ideal
	AttackTrade = attack.Trade
)

// Scrip agent kinds, re-exported for inspecting Sim.Kind results.
const (
	ScripRational      = scrip.Rational
	ScripAltruist      = scrip.Altruist
	ScripAttackerAgent = scrip.AttackerAgent
)

// Swarm piece-selection policies and attack kinds, re-exported for
// configuration literals.
const (
	SwarmSelectRandom      = swarm.SelectRandom
	SwarmSelectRarestFirst = swarm.SelectRarestFirst

	SwarmAttackOff              = swarm.AttackOff
	SwarmAttackTopUploaders     = swarm.AttackTopUploaders
	SwarmAttackRarePieceHolders = swarm.AttackRarePieceHolders
)

// DefaultGossipConfig returns Table 1 of the paper plus this reproduction's
// measurement settings.
func DefaultGossipConfig() GossipConfig { return gossip.DefaultConfig() }

// NewGossip builds a BAR Gossip simulation under adv (nil = no attack),
// with obedient nodes accepting at most rateLimit updates per peer per
// round (0 = no limit); deterministic in (cfg, adv, rateLimit, seed). adv
// is stateful: use a fresh value per simulation.
func NewGossip(cfg GossipConfig, seed uint64, adv *AttackStrategy, rateLimit int) (*gossip.Engine, error) {
	var opts []gossip.Option
	if adv != nil {
		opts = append(opts, gossip.WithAdversary(adv))
	}
	if rateLimit > 0 {
		opts = append(opts, gossip.WithDefense(defense.NewLimit(rateLimit)))
	}
	return gossip.New(cfg, seed, opts...)
}

// NewTokenModel builds a Section 3 token-collecting simulation. satiate,
// when non-empty, lists node ids the attacker satiates at the start of
// every round.
func NewTokenModel(cfg TokenModelConfig, seed uint64, satiate []int) (*tokenmodel.Sim, error) {
	if len(satiate) == 0 {
		return tokenmodel.New(cfg, seed)
	}
	return tokenmodel.New(cfg, seed, tokenmodel.WithAdversary(&attack.Strategy{Kind: attack.Ideal, TargetList: satiate}))
}

// DefaultScripConfig returns a small healthy scrip economy.
func DefaultScripConfig() ScripConfig { return scrip.DefaultConfig() }

// NewScrip builds a scrip economy simulation.
func NewScrip(cfg ScripConfig, seed uint64) (*scrip.Sim, error) {
	return scrip.New(cfg, seed)
}

// DefaultSwarmConfig returns a modest healthy swarm.
func DefaultSwarmConfig() SwarmConfig { return swarm.DefaultConfig() }

// NewSwarm builds a BitTorrent-like swarm simulation.
func NewSwarm(cfg SwarmConfig, seed uint64) (*swarm.Sim, error) {
	return swarm.New(cfg, seed)
}

// NewDissemination builds the coded-vs-plain dissemination simulation.
// satiate lists node ids the attacker satiates every round.
func NewDissemination(cfg DisseminationConfig, seed uint64, satiate []int) (*coding.Dissemination, error) {
	var t attack.Targeter
	if len(satiate) > 0 {
		t = attack.NewListTargeter(cfg.Graph.N(), satiate)
	}
	return coding.NewDissemination(cfg, seed, t)
}

// CompleteGraph returns the complete graph K_n.
func CompleteGraph(n int) *Graph { return graph.Complete(n) }

// GridGraph returns a rows x cols 4-connected grid.
func GridGraph(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// RandomGraph returns an Erdős–Rényi G(n, p) graph drawn from seed.
func RandomGraph(n int, p float64, seed uint64) *Graph {
	return graph.Random(n, p, simrng.New(seed))
}

// RegularishGraph returns a graph where every node has at least deg random
// neighbors; it is connected with high probability for deg >= 3.
func RegularishGraph(n, deg int, seed uint64) *Graph {
	return graph.RandomRegularish(n, deg, simrng.New(seed))
}
