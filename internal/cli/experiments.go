package cli

import (
	"flag"
	"fmt"
	"io"

	"lotuseater/internal/experiment"
	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
)

// RunExperiment implements `lotus-sim run <name> [flags]`. The name may be
// a registry experiment (legacy drivers) or a registered scenario; -spec
// runs a JSON spec file instead, and repeated -set key=value overrides
// re-parameterize scenario runs (legacy experiments are fixed code and
// reject overrides).
func RunExperiment(w io.Writer, args []string) error {
	name := ""
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		name, args = args[0], args[1:]
	}

	fs := flag.NewFlagSet("lotus-sim run", flag.ContinueOnError)
	var sets setFlags
	fs.Var(&sets, "set", "override a scenario spec field, key=value (repeatable)")
	specPath := fs.String("spec", "", "run a scenario from a JSON spec file")
	quality := fs.String("quality", "full", "sweep quality for experiments: full|quick")
	seed := fs.Uint64("seed", 1, "random seed")
	format := fs.String("format", "text", "output format: text|csv|json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if name == "" && *specPath == "" {
		return fmt.Errorf("usage: lotus-sim run <name> [-quality quick|full] [-seed N] [-format text|csv|json] [-set key=val ...] | lotus-sim run -spec file.json; `lotus-sim list` and `lotus-sim scenarios list` show the catalogues")
	}
	f, err := ParseFormat(*format)
	if err != nil {
		return err
	}

	// Legacy experiments take precedence for plain runs; anything involving
	// -spec or -set is necessarily a scenario.
	if *specPath == "" && len(sets) == 0 {
		if _, ok := experiment.Get(name); ok {
			q, err := experiment.ParseQuality(*quality)
			if err != nil {
				return err
			}
			a, err := experiment.Run(name, *seed, q)
			if err != nil {
				return err
			}
			return EmitArtifact(w, a, f)
		}
	}
	// Distinguish "the name is not a scenario" (point at both catalogues,
	// or explain that fixed drivers reject -set) from real resolveSpec
	// failures (name+spec conflict, unreadable file), which propagate
	// unchanged.
	if name != "" && *specPath == "" {
		if _, ok := scenario.Get(name); !ok {
			if _, isExp := experiment.Get(name); isExp {
				return fmt.Errorf("experiment %q is a fixed driver; -set overrides only apply to scenarios (`lotus-sim scenarios list`)", name)
			}
			return fmt.Errorf("unknown experiment or scenario %q; see `lotus-sim list` and `lotus-sim scenarios list`", name)
		}
	}
	spec, err := resolveSpec(name, *specPath)
	if err != nil {
		return err
	}
	if err := spec.ApplySets(sets); err != nil {
		return err
	}
	a, err := scenario.Run(spec, *seed, scenario.RunOptions{})
	if err != nil {
		return err
	}
	return EmitArtifact(w, a, f)
}

// List implements `lotus-sim list`: the experiment catalogue as an aligned
// table of name and description.
func List(w io.Writer) error {
	rows := [][]string{{"experiment", "description"}}
	for _, e := range experiment.All() {
		rows = append(rows, []string{e.Name, e.Description})
	}
	_, err := io.WriteString(w, metrics.RenderRows(rows))
	return err
}

// figuresOrder is the curated presentation order of the figures command —
// the paper's tables and figures first, then extensions — with the legacy
// experiment ids it has always accepted.
var figuresOrder = []string{
	"table1", "fig1", "fig2", "fig3", "altruism", "gridcut", "raretoken",
	"scrip", "swarm", "coding", "reporting", "ratelimit", "rotating",
	"inflation", "hoarding", "satiate-ablation",
}

// figuresAliases maps the figures command's legacy ids to registry names.
// Most ids are registry names already; "scrip" expands to both scrip
// experiments, matching the command's historical output.
var figuresAliases = map[string][]string{
	"fig1":  {"figure1"},
	"fig2":  {"figure2"},
	"fig3":  {"figure3"},
	"scrip": {"scrip-money-supply", "scrip-rare-provider"},
}

// Figures implements the figures command: regenerate every table and figure
// of the paper (or one of them, via -exp) as aligned text tables or CSV.
func Figures(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("lotus-sim figures", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (table1|fig1|fig2|fig3|altruism|gridcut|raretoken|scrip|swarm|coding|reporting|ratelimit|rotating|inflation|hoarding|satiate-ablation|all)")
	quality := fs.String("quality", "full", "sweep quality: full|quick")
	seed := fs.Uint64("seed", 1, "random seed")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	q, err := experiment.ParseQuality(*quality)
	if err != nil {
		return err
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = figuresOrder
	}
	for _, id := range ids {
		names, ok := figuresAliases[id]
		if !ok {
			names = []string{id}
		}
		for _, name := range names {
			a, err := experiment.Run(name, *seed, q)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			if err := emitFigure(w, a, *csv); err != nil {
				return err
			}
		}
	}
	return nil
}

// emitFigure prints one artifact in the figures command's traditional
// layout: a "## title" header, the table or CSV body, crossover notes, and
// a trailing blank line.
func emitFigure(w io.Writer, a *metrics.Artifact, csv bool) error {
	if csv && len(a.Table) == 0 {
		if _, err := fmt.Fprintf(w, "## %s\n\n%s", a.Title, a.CSV()); err != nil {
			return err
		}
		for _, n := range a.Notes {
			if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
				return err
			}
		}
	} else {
		if _, err := io.WriteString(w, a.Text()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
