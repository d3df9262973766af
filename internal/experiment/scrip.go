package experiment

import (
	"lotuseater/internal/scrip"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
	"lotuseater/internal/sweep"
)

// ScripMoneySupplyExperiment (E4a) sweeps the fraction of agents the
// attacker tries to keep satiated when it must finance the attack from
// in-system earnings (5% attacker agents, no exogenous budget). The y value
// is the time-average fraction of targets actually held at threshold: it
// collapses as the targeted fraction grows, reproducing "it is easy for an
// attacker to accumulate enough money to satiate a few nodes, [but] there
// may not even be enough money in the system to satiate a significant
// fraction". At x = 0 there are no targets and the value is vacuously 1.
func ScripMoneySupplyExperiment(seed uint64, q Quality) (*Series, error) {
	q = q.Normalize()
	xs := sweep.Range(0, 0.8, q.Points)
	return sweep.Run(sweep.Config{Name: "satiated-fraction(earned-budget)", Xs: xs, Seeds: q.Seeds}, seed, func(x float64, rng *simrng.Source, _ *sim.Workspace) (float64, error) {
		cfg := scrip.DefaultConfig()
		cfg.AttackerFraction = 0.05
		s, err := scrip.New(cfg, rng.Uint64())
		if err != nil {
			return 0, err
		}
		var targets []int
		want := int(x * float64(cfg.Agents))
		for i := 0; i < cfg.Agents && len(targets) < want; i++ {
			if s.Kind(i) != scrip.AttackerAgent {
				targets = append(targets, i)
			}
		}
		if len(targets) > 0 {
			if err := s.Attack(scrip.AttackPlan{Targets: targets, Budget: 0, StartRound: 1000}); err != nil {
				return 0, err
			}
		}
		res, err := s.Run()
		if err != nil {
			return 0, err
		}
		if x == 0 {
			return 1, nil // vacuously satiated: no targets
		}
		return res.SatiatedTargetFraction, nil
	})
}

// ScripRareProviderExperiment (E4b) reproduces the paper's rare-resource
// harm: only ten agents can serve "specialty" requests ("users who control
// important or rare resources"), and the attacker keeps exactly those
// agents satiated for as long as its scrip budget lasts. Specialty
// availability collapses in proportion to the budget — the attack's
// cost/harm curve. A second arm makes two of the ten providers altruists
// (the "encouraging altruism" defense): they serve regardless of balance,
// and availability stays high at every budget.
func ScripRareProviderExperiment(seed uint64, q Quality) ([]*Series, error) {
	q = q.Normalize()
	xs := []float64{0, 50, 100, 200, 400, 800, 1600, 3200}
	run := func(altruistProviders int) sweep.PointFunc {
		return func(x float64, rng *simrng.Source, _ *sim.Workspace) (float64, error) {
			cfg := scrip.DefaultConfig()
			cfg.AltruistProviders = altruistProviders
			// Specialty demand is tuned so providers' earn rate roughly
			// matches their spend rate; otherwise rare providers satiate
			// organically (earning much faster than they spend) and the
			// attack has nothing left to deny.
			cfg.SpecialProviders = 10
			cfg.SpecialRequestFraction = 0.05
			s, err := scrip.New(cfg, rng.Uint64())
			if err != nil {
				return 0, err
			}
			if x > 0 {
				targets := make([]int, cfg.SpecialProviders)
				for i := range targets {
					targets[i] = i
				}
				if err := s.Attack(scrip.AttackPlan{Targets: targets, Budget: int(x), StartRound: 1000}); err != nil {
					return 0, err
				}
			}
			res, err := s.Run()
			if err != nil {
				return 0, err
			}
			return res.SpecialAvailability, nil
		}
	}
	attacked, err := sweep.Run(sweep.Config{Name: "specialty-availability", Xs: xs, Seeds: q.Seeds}, seed, run(0))
	if err != nil {
		return nil, err
	}
	defended, err := sweep.Run(sweep.Config{Name: "specialty-availability(2-altruist-providers)", Xs: xs, Seeds: q.Seeds}, seed+1, run(2))
	if err != nil {
		return nil, err
	}
	return []*Series{attacked, defended}, nil
}

// ScripInflationExperiment (E10, an extension beyond the paper) exposes an
// emergent system-wide variant of the lotus-eater attack that the money
// model makes possible: the attacker does not target anyone in particular —
// it simply gifts scrip to arbitrary agents. The money circulates, every
// balance drifts above the threshold, and the whole economy satiates: no
// one needs to earn, so no one volunteers. This is the monetary-inflation
// analogue of the altruist-driven crash in the paper's reference [14].
// Returns overall availability versus scrip injected (per capita).
//
// The dose-response is dramatic: small injections *help* (paying customers
// stop going broke), but once the gift lifts every balance to the
// threshold, the economy freezes permanently — with no volunteers there is
// no service, hence no spending, hence no one ever dips back below the
// threshold. A fixed-supply scrip system has a finite, computable budget
// that kills it outright.
func ScripInflationExperiment(seed uint64, q Quality) (*Series, error) {
	q = q.Normalize()
	xs := []float64{0, 1, 2, 2.25, 2.5, 2.75, 3, 4}
	return sweep.Run(sweep.Config{Name: "availability", Xs: xs, Seeds: q.Seeds}, seed, func(x float64, rng *simrng.Source, _ *sim.Workspace) (float64, error) {
		cfg := scrip.DefaultConfig()
		s, err := scrip.New(cfg, rng.Uint64())
		if err != nil {
			return 0, err
		}
		// Mint x scrip per capita as unconditional gifts — no targeting at
		// all; the inflation itself is the attack. Fractional per-capita
		// amounts distribute the remainder one unit at a time.
		total := int(x * float64(cfg.Agents))
		each := total / cfg.Agents
		rem := total % cfg.Agents
		for i := 0; i < cfg.Agents; i++ {
			amount := each
			if i < rem {
				amount++
			}
			if err := s.Mint(i, amount); err != nil {
				return 0, err
			}
		}
		res, err := s.Run()
		if err != nil {
			return 0, err
		}
		return res.Availability, nil
	})
}

// ScripHoardingExperiment (E11, an extension beyond the paper) quantifies
// the paper's closing remark that "nodes that provide a disproportionate
// amount of service can become a point of centralization": attacker agents
// here do nothing malicious except volunteer constantly and never spend.
// Their hoarded earnings drain the fixed money supply until requesters
// cannot pay. Returns availability for ordinary agents versus the hoarder
// fraction.
func ScripHoardingExperiment(seed uint64, q Quality) (*Series, error) {
	q = q.Normalize()
	xs := sweep.Range(0, 0.25, q.Points)
	return sweep.Run(sweep.Config{Name: "availability", Xs: xs, Seeds: q.Seeds}, seed, func(x float64, rng *simrng.Source, _ *sim.Workspace) (float64, error) {
		cfg := scrip.DefaultConfig()
		cfg.AttackerFraction = x
		s, err := scrip.New(cfg, rng.Uint64())
		if err != nil {
			return 0, err
		}
		res, err := s.Run()
		if err != nil {
			return 0, err
		}
		return res.Availability, nil
	})
}
