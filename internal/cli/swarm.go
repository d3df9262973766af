package cli

import (
	"flag"
	"fmt"
	"io"

	"lotuseater/internal/swarm"
)

// Swarm runs the BitTorrent-like swarm simulator with optional lotus-eater
// attacks (`lotus-sim swarm`).
func Swarm(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("lotus-sim swarm", flag.ContinueOnError)
	cfg := swarm.DefaultConfig()
	fs.IntVar(&cfg.Leechers, "leechers", cfg.Leechers, "number of leechers")
	fs.IntVar(&cfg.Pieces, "pieces", cfg.Pieces, "file size in pieces")
	fs.IntVar(&cfg.UploadSlots, "slots", cfg.UploadSlots, "unchoke slots per node")
	fs.IntVar(&cfg.PeerSetSize, "peers", cfg.PeerSetSize, "peer-set size")
	fs.IntVar(&cfg.Ticks, "ticks", cfg.Ticks, "horizon in ticks")
	selection := fs.String("selection", "rarest", "piece selection: rarest|random")
	endgame := fs.Bool("endgame", cfg.Endgame, "enable endgame mode")
	fs.IntVar(&cfg.SeedDepartTick, "seeddepart", cfg.SeedDepartTick, "tick the initial seed leaves (0 = never)")
	stay := fs.Bool("stay", cfg.SeedAfterComplete, "finished leechers keep seeding")

	attackName := fs.String("attack", "off", "attack: off|top|rare")
	fs.IntVar(&cfg.AttackerUplink, "uplink", 0, "attacker upload capacity (pieces/tick)")
	fs.IntVar(&cfg.AttackTargets, "targets", 0, "concurrent satiation targets")
	fs.IntVar(&cfg.AttackStartTick, "astart", 0, "attack start tick")
	fs.IntVar(&cfg.AttackStopTick, "astop", 0, "attack stop tick (0 = never)")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *selection {
	case "rarest":
		cfg.Selection = swarm.SelectRarestFirst
	case "random":
		cfg.Selection = swarm.SelectRandom
	default:
		return fmt.Errorf("unknown selection %q (want rarest|random)", *selection)
	}
	switch *attackName {
	case "off":
		cfg.Attack = swarm.AttackOff
	case "top":
		cfg.Attack = swarm.AttackTopUploaders
	case "rare":
		cfg.Attack = swarm.AttackRarePieceHolders
	default:
		return fmt.Errorf("unknown attack %q (want off|top|rare)", *attackName)
	}
	cfg.Endgame = *endgame
	cfg.SeedAfterComplete = *stay

	sim, err := swarm.New(cfg, *seed)
	if err != nil {
		return err
	}
	res, err := sim.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "swarm: %d leechers, %d pieces, %s selection, attack=%s\n",
		cfg.Leechers, cfg.Pieces, cfg.Selection, cfg.Attack)
	fmt.Fprintf(w, "  completed fraction:  %.3f\n", res.CompletedFraction)
	fmt.Fprintf(w, "  mean completion:     %.1f ticks\n", res.MeanCompletionTick)
	fmt.Fprintf(w, "  median completion:   %.1f ticks\n", res.MedianCompletionTick)
	fmt.Fprintf(w, "  lost pieces:         %d\n", res.LostPieces)
	if cfg.Attack != swarm.AttackOff {
		fmt.Fprintf(w, "  attacker uploaded:   %d pieces\n", res.AttackerUploaded)
		fmt.Fprintf(w, "  satiated by attacker: %d leechers\n", res.SatiatedByAttacker)
	}
	return nil
}
