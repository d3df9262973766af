package cli

import (
	"flag"
	"fmt"
	"io"

	"lotuseater/internal/attack"
	"lotuseater/internal/defense"
	"lotuseater/internal/gossip"
)

// Gossip runs a single BAR Gossip simulation under a configurable
// lotus-eater (or crash) attack and prints the delivery summary
// (`lotus-sim gossip`). The attack flags build an attack.Strategy and
// -ratelimit a defense.Limit, installed with WithAdversary / WithDefense.
func Gossip(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("lotus-sim gossip", flag.ContinueOnError)
	cfg := gossip.DefaultConfig()

	attackName := fs.String("attack", "none", "attack kind: none|crash|ideal|trade")
	fs.IntVar(&cfg.Nodes, "nodes", cfg.Nodes, "number of nodes")
	fs.IntVar(&cfg.UpdatesPerRound, "updates", cfg.UpdatesPerRound, "updates released per round")
	fs.IntVar(&cfg.Lifetime, "lifetime", cfg.Lifetime, "update lifetime in rounds")
	fs.IntVar(&cfg.CopiesSeeded, "seeded", cfg.CopiesSeeded, "copies seeded per update")
	fs.IntVar(&cfg.PushSize, "push", cfg.PushSize, "optimistic push size")
	fs.IntVar(&cfg.BalanceSlack, "slack", cfg.BalanceSlack, "extra updates given in balanced exchanges (obedient variant)")
	fs.IntVar(&cfg.Rounds, "rounds", cfg.Rounds, "simulation horizon")
	fs.IntVar(&cfg.Warmup, "warmup", cfg.Warmup, "warmup rounds excluded from measurement")
	var adv attack.Strategy
	fs.Float64Var(&adv.Fraction, "fraction", 0, "fraction of nodes the attacker controls")
	fs.Float64Var(&adv.SatiateFraction, "satiate", 0.70, "fraction of the system targeted for satiation")
	fs.IntVar(&adv.RotatePeriod, "rotate", 0, "re-draw the satiated set every N rounds (0 = static)")
	fs.Float64Var(&cfg.Altruism, "altruism", 0, "probability a satiated node serves anyway")
	fs.Float64Var(&cfg.ObedientFraction, "obedient", 0, "fraction of honest nodes that are obedient")
	rateLimit := fs.Int("ratelimit", 0, "per-peer per-round acceptance cap enforced by obedient nodes")
	fs.IntVar(&cfg.ReportThreshold, "report", 0, "report deliveries larger than this (0 = off)")
	seed := fs.Uint64("seed", 1, "random seed")
	verbose := fs.Bool("v", false, "print per-round delivery for honest nodes")

	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := attack.ParseKind(*attackName)
	if err != nil {
		return err
	}
	adv.Kind = kind
	if err := adv.Validate(); err != nil {
		return err
	}
	if *rateLimit < 0 {
		return fmt.Errorf("-ratelimit must be non-negative, got %d", *rateLimit)
	}
	opts := []gossip.Option{gossip.WithAdversary(&adv)}
	if *rateLimit > 0 {
		opts = append(opts, gossip.WithDefense(defense.NewLimit(*rateLimit)))
	}

	eng, err := gossip.New(cfg, *seed, opts...)
	if err != nil {
		return err
	}
	res, err := eng.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "gossip: %d nodes, attack=%s fraction=%.2f satiate=%.2f\n",
		cfg.Nodes, kind, adv.Fraction, adv.SatiateFraction)
	fmt.Fprintln(w, res.Summary())
	if res.Usable() {
		fmt.Fprintf(w, "stream USABLE for isolated nodes (>= %.0f%% delivered)\n", cfg.UsableThreshold*100)
	} else {
		fmt.Fprintf(w, "stream UNUSABLE for isolated nodes (< %.0f%% delivered)\n", cfg.UsableThreshold*100)
	}
	if *verbose {
		for r, v := range res.PerRoundHonest {
			if v >= 0 {
				fmt.Fprintf(w, "round %3d: honest=%.4f isolated=%.4f\n", r, v, res.PerRoundIsolated[r])
			}
		}
	}
	return nil
}
