package cli

import (
	"io"
	"testing"
)

// The single-run and figures commands, driven end to end with io.Discard as
// stdout: each path must run, and each bad flag value must be an error.

// TestFiguresEveryExperimentRuns drives each figures id end to end at quick
// quality — the figures command is the harness that regenerates the paper,
// so every path must execute.
func TestFiguresEveryExperimentRuns(t *testing.T) {
	for _, id := range []string{"table1", "gridcut", "swarm", "rotating", "raretoken", "inflation"} {
		if err := Figures(io.Discard, []string{"-exp", id, "-quality", "quick", "-seed", "2"}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

func TestFiguresCSVOutput(t *testing.T) {
	if err := Figures(io.Discard, []string{"-exp", "raretoken", "-quality", "quick", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestFiguresUnknownExperiment(t *testing.T) {
	if err := Figures(io.Discard, []string{"-exp", "bogus"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFiguresUnknownQuality(t *testing.T) {
	if err := Figures(io.Discard, []string{"-quality", "bogus"}); err == nil {
		t.Fatal("unknown quality accepted")
	}
}

// TestGossipBadAttackFlags: the attack and defense flags are validated
// before the engine is built.
func TestGossipBadAttackFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-attack", "trade", "-fraction", "1.5"},
		{"-attack", "trade", "-satiate", "-0.1"},
		{"-attack", "trade", "-rotate", "-1"},
		{"-ratelimit", "-1"},
	} {
		if err := Gossip(io.Discard, args); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

func TestScripRunSmoke(t *testing.T) {
	if err := Scrip(io.Discard, []string{"-agents", "60", "-rounds", "2000"}); err != nil {
		t.Fatal(err)
	}
}

func TestScripRunWithAttack(t *testing.T) {
	args := []string{
		"-agents", "60", "-rounds", "2000",
		"-targets", "10", "-budget", "5000", "-start", "100",
		"-attackers", "0.05", "-special", "5", "-specialreq", "0.1",
	}
	if err := Scrip(io.Discard, args); err != nil {
		t.Fatal(err)
	}
}

func TestScripRunBadConfig(t *testing.T) {
	if err := Scrip(io.Discard, []string{"-agents", "1"}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSwarmRunSmoke(t *testing.T) {
	if err := Swarm(io.Discard, []string{"-leechers", "30", "-pieces", "32", "-ticks", "200"}); err != nil {
		t.Fatal(err)
	}
}

func TestSwarmRunAttackVariants(t *testing.T) {
	for _, attack := range []string{"top", "rare"} {
		args := []string{
			"-leechers", "30", "-pieces", "32", "-ticks", "200",
			"-attack", attack, "-uplink", "16", "-targets", "2",
			"-selection", "random", "-seeddepart", "40", "-stay=false",
		}
		if err := Swarm(io.Discard, args); err != nil {
			t.Fatalf("%s: %v", attack, err)
		}
	}
}

func TestSwarmRunBadSelection(t *testing.T) {
	if err := Swarm(io.Discard, []string{"-selection", "bogus"}); err == nil {
		t.Fatal("bogus selection accepted")
	}
}

func TestSwarmRunBadAttack(t *testing.T) {
	if err := Swarm(io.Discard, []string{"-attack", "bogus"}); err == nil {
		t.Fatal("bogus attack accepted")
	}
}

func TestTokenRunTopologies(t *testing.T) {
	for _, g := range []string{"complete", "ring", "random", "smallworld"} {
		args := []string{"-graph", g, "-n", "40", "-tokens", "8", "-rounds", "30"}
		if err := Token(io.Discard, args); err != nil {
			t.Fatalf("%s: %v", g, err)
		}
	}
}

func TestTokenRunGridCut(t *testing.T) {
	args := []string{"-graph", "grid", "-rows", "8", "-cols", "8", "-tokens", "16", "-cut", "4", "-rounds", "40"}
	if err := Token(io.Discard, args); err != nil {
		t.Fatal(err)
	}
}

func TestTokenRunSatiateRandom(t *testing.T) {
	args := []string{"-graph", "complete", "-n", "40", "-tokens", "8", "-satiate", "10", "-altruism", "0.1", "-rounds", "30"}
	if err := Token(io.Discard, args); err != nil {
		t.Fatal(err)
	}
}

func TestTokenRunCutRequiresGrid(t *testing.T) {
	if err := Token(io.Discard, []string{"-graph", "ring", "-cut", "2"}); err == nil {
		t.Fatal("cut on non-grid accepted")
	}
}

func TestTokenRunBadGraph(t *testing.T) {
	if err := Token(io.Discard, []string{"-graph", "bogus"}); err == nil {
		t.Fatal("bogus graph accepted")
	}
}
