// Command lotus-sim is the single entry point to the whole reproduction.
//
// Subcommands:
//
//	lotus-sim list                                  # the experiment catalogue
//	lotus-sim run figure1 -quality quick            # run a registered experiment
//	lotus-sim run gridcut -format json              # ... as JSON (or csv)
//	lotus-sim figures -exp all -quality full        # regenerate every table and figure
//	lotus-sim gossip -attack trade -fraction 0.22   # one BAR Gossip simulation
//	lotus-sim scrip|swarm|token [flags]             # the other single-run simulators
//	lotus-sim serve -addr localhost:8321            # the HTTP experiment service
//	lotus-sim serve -role coordinator               # cluster front: shards jobs to workers
//	lotus-sim serve -role worker -join http://c:8321  # one cluster execution node
//
// Every command is implemented in internal/cli; this binary only
// dispatches to it.
package main

import (
	"fmt"
	"os"
	"strings"

	"lotuseater/internal/cli"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lotus-sim:", err)
		os.Exit(1)
	}
}

func usage() string {
	return strings.TrimSpace(`
usage: lotus-sim <command> [flags]

commands:
  list       show every registered experiment
  run        run an experiment or scenario by name (-quality, -seed, -format,
             -set key=val ..., -spec file.json)
  scenarios  declarative scenarios: list | show <name> | run <name> | bench
  serve      long-running HTTP experiment service with a content-addressed
             result cache (-addr, -cache-bytes, -queue-depth, -workers);
             scales out with -role=coordinator|worker -join=<url> [-advertise=<url>]
  figures    regenerate the paper's tables and figures (-exp, -quality, -csv)
  gossip     run a single BAR Gossip simulation
  scrip      run the scrip-economy simulator
  swarm      run the BitTorrent-like swarm simulator
  token      run the Section 3 token-collecting model
`)
}

func run(args []string) error {
	w := os.Stdout
	if len(args) == 0 {
		return fmt.Errorf("missing command\n%s", usage())
	}
	switch args[0] {
	case "list":
		return cli.List(w)
	case "run":
		return cli.RunExperiment(w, args[1:])
	case "scenarios":
		return cli.Scenarios(w, args[1:])
	case "serve":
		return cli.Serve(w, args[1:])
	case "figures":
		return cli.Figures(w, args[1:])
	case "gossip":
		return cli.Gossip(w, args[1:])
	case "scrip":
		return cli.Scrip(w, args[1:])
	case "swarm":
		return cli.Swarm(w, args[1:])
	case "token":
		return cli.Token(w, args[1:])
	case "help", "-h", "-help", "--help":
		fmt.Fprintln(w, usage())
		return nil
	default:
		return fmt.Errorf("unknown command %q\n%s", args[0], usage())
	}
}
