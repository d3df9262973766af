package cli

import (
	"flag"
	"fmt"
	"io"

	"lotuseater/internal/scrip"
)

// Scrip runs the scrip-economy simulator with an optional money-gifting
// lotus-eater attack (`lotus-sim scrip`).
func Scrip(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("lotus-sim scrip", flag.ContinueOnError)
	cfg := scrip.DefaultConfig()
	fs.IntVar(&cfg.Agents, "agents", cfg.Agents, "population size")
	fs.IntVar(&cfg.Threshold, "threshold", cfg.Threshold, "rational threshold strategy k")
	fs.IntVar(&cfg.MoneyPerCapita, "money", cfg.MoneyPerCapita, "initial scrip per agent")
	fs.IntVar(&cfg.Rounds, "rounds", cfg.Rounds, "service requests to simulate")
	fs.Float64Var(&cfg.AltruistFraction, "altruists", 0, "fraction of altruist agents")
	fs.Float64Var(&cfg.AttackerFraction, "attackers", 0, "fraction of attacker-controlled earner agents")
	fs.Float64Var(&cfg.Cost, "cost", cfg.Cost, "provider's utility cost per service")
	fs.IntVar(&cfg.SpecialProviders, "special", 0, "number of specialty providers (agents 0..n-1)")
	fs.Float64Var(&cfg.SpecialRequestFraction, "specialreq", 0, "fraction of requests needing a specialty provider")

	targets := fs.Int("targets", 0, "number of agents the attacker satiates (0 = no attack)")
	budget := fs.Int("budget", 0, "exogenous attack budget in scrip")
	start := fs.Int("start", 1000, "round the attack begins")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sim, err := scrip.New(cfg, *seed)
	if err != nil {
		return err
	}
	if *targets > 0 {
		var list []int
		for i := 0; i < cfg.Agents && len(list) < *targets; i++ {
			if sim.Kind(i) != scrip.AttackerAgent {
				list = append(list, i)
			}
		}
		if err := sim.Attack(scrip.AttackPlan{Targets: list, Budget: *budget, StartRound: *start}); err != nil {
			return err
		}
	}
	res, err := sim.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "scrip economy: %d agents, threshold %d, %d scrip/capita, %d requests\n",
		cfg.Agents, cfg.Threshold, cfg.MoneyPerCapita, cfg.Rounds)
	fmt.Fprintf(w, "  availability:            %.4f (%d served, %d no provider, %d no money)\n",
		res.Availability, res.Served, res.FailedNoProvider, res.FailedNoMoney)
	fmt.Fprintf(w, "  non-target availability: %.4f\n", res.NonTargetAvailability)
	if res.SpecialRequests > 0 {
		fmt.Fprintf(w, "  specialty availability:  %.4f (%d of %d)\n",
			res.SpecialAvailability, res.SpecialServed, res.SpecialRequests)
	}
	fmt.Fprintf(w, "  served free by altruists: %d\n", res.ServedFree)
	fmt.Fprintf(w, "  mean utility:            %.3f\n", res.MeanUtility)
	if *targets > 0 {
		fmt.Fprintf(w, "attack: %d targets, budget %d, from round %d\n", *targets, *budget, *start)
		fmt.Fprintf(w, "  satiated-target fraction: %.4f\n", res.SatiatedTargetFraction)
		fmt.Fprintf(w, "  attacker spent %d, earned %d, shortfall rounds %d\n",
			res.AttackerSpent, res.AttackerEarned, res.AttackerShortfall)
	}
	fmt.Fprintf(w, "money supply: %d (opening %d + injected budget)\n",
		res.FinalMoneySupply, cfg.Agents*cfg.MoneyPerCapita)
	return nil
}
