package cli

import (
	"flag"
	"fmt"
	"io"

	"lotuseater/internal/attack"
	"lotuseater/internal/graph"
	"lotuseater/internal/simrng"
	"lotuseater/internal/tokenmodel"
)

// Token explores the abstract token-collecting model of Section 3 of the
// paper (`lotus-sim token`): an attacker that instantly satiates a grid
// column cut (-cut) or random nodes (-satiate) at the start of every round.
func Token(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("lotus-sim token", flag.ContinueOnError)
	graphKind := fs.String("graph", "complete", "topology: complete|grid|ring|random|smallworld")
	n := fs.Int("n", 100, "nodes (complete/ring/random/smallworld)")
	rows := fs.Int("rows", 16, "grid rows")
	cols := fs.Int("cols", 16, "grid cols")
	p := fs.Float64("p", 0.05, "edge probability for random graphs")
	tokens := fs.Int("tokens", 20, "token universe size |T|")
	contacts := fs.Int("contacts", 2, "contact budget c per round")
	altruism := fs.Float64("altruism", 0, "probability a satiated node responds (a)")
	rounds := fs.Int("rounds", 100, "horizon")
	satiate := fs.Int("satiate", 0, "random nodes the attacker satiates each round")
	cut := fs.Int("cut", -1, "satiate this grid column instead (grid only)")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rng := simrng.New(*seed)
	var g *graph.Graph
	switch *graphKind {
	case "complete":
		g = graph.Complete(*n)
	case "grid":
		g = graph.Grid(*rows, *cols)
	case "ring":
		g = graph.Ring(*n)
	case "random":
		g = graph.Random(*n, *p, rng.Child("graph"))
	case "smallworld":
		g = graph.SmallWorld(*n, 2, 0.1, rng.Child("graph"))
	default:
		return fmt.Errorf("unknown graph %q", *graphKind)
	}

	cfg := tokenmodel.Config{
		Graph:    g,
		Tokens:   *tokens,
		Contacts: *contacts,
		Altruism: *altruism,
		Rounds:   *rounds,
	}

	var targets []int
	switch {
	case *cut >= 0:
		if *graphKind != "grid" {
			return fmt.Errorf("-cut requires -graph grid")
		}
		targets = graph.GridColumnCut(*rows, *cols, *cut)
		fmt.Fprintf(w, "attack: satiating grid column %d (%d nodes)\n", *cut, len(targets))
	case *satiate > 0:
		targets = rng.Child("targets").SampleInts(g.N(), min(*satiate, g.N()))
		fmt.Fprintf(w, "attack: satiating %d random nodes\n", len(targets))
	}
	var opts []tokenmodel.Option
	if targets != nil {
		opts = append(opts, tokenmodel.WithAdversary(&attack.Strategy{Kind: attack.Ideal, TargetList: targets}))
	}

	sim, err := tokenmodel.New(cfg, rng.Child("run").Uint64(), opts...)
	if err != nil {
		return err
	}
	res, err := sim.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "token model: %s graph, %d nodes, %d tokens, c=%d, a=%.2f\n",
		*graphKind, g.N(), *tokens, *contacts, *altruism)
	fmt.Fprintf(w, "  completed fraction:    %.4f\n", res.CompletedFraction)
	fmt.Fprintf(w, "  all satiated at round: %d\n", res.AllSatiatedRound)
	fmt.Fprintf(w, "  mean completion round: %.1f\n", res.MeanCompletionRound)
	minCov, minTok := 2.0, -1
	for tok, cov := range res.TokenCoverage {
		if cov < minCov {
			minCov, minTok = cov, tok
		}
	}
	fmt.Fprintf(w, "  worst token coverage:  token %d at %.4f\n", minTok, minCov)
	return nil
}
