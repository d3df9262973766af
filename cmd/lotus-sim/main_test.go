package main

import (
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	args := []string{
		"gossip",
		"-attack", "trade", "-fraction", "0.2",
		"-nodes", "80", "-rounds", "30", "-warmup", "8", "-v",
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunDefenses(t *testing.T) {
	args := []string{
		"gossip",
		"-attack", "ideal", "-fraction", "0.1",
		"-nodes", "80", "-rounds", "30", "-warmup", "8",
		"-obedient", "1", "-ratelimit", "2", "-report", "1",
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunRotating(t *testing.T) {
	args := []string{
		"gossip",
		"-attack", "trade", "-fraction", "0.2", "-rotate", "5",
		"-nodes", "80", "-rounds", "30", "-warmup", "8",
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadAttack(t *testing.T) {
	if err := run([]string{"gossip", "-attack", "nonsense"}); err == nil {
		t.Fatal("bogus attack name accepted")
	}
}

func TestRunBadConfig(t *testing.T) {
	if err := run([]string{"gossip", "-nodes", "1"}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"gossip", "-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestListCommand(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCommandText(t *testing.T) {
	if err := run([]string{"run", "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCommandFormats(t *testing.T) {
	for _, format := range []string{"text", "csv", "json"} {
		args := []string{"run", "raretoken", "-quality", "quick", "-seed", "2", "-format", format}
		if err := run(args); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
	}
}

func TestRunCommandUnknownExperiment(t *testing.T) {
	if err := run([]string{"run", "bogus"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunCommandMissingName(t *testing.T) {
	if err := run([]string{"run"}); err == nil {
		t.Fatal("missing experiment name accepted")
	}
}

func TestGossipSubcommand(t *testing.T) {
	args := []string{"gossip", "-attack", "crash", "-fraction", "0.1",
		"-nodes", "80", "-rounds", "30", "-warmup", "8"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestFiguresSubcommand(t *testing.T) {
	if err := run([]string{"figures", "-exp", "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownCommand(t *testing.T) {
	if err := run([]string{"frobnicate"}); err == nil {
		t.Fatal("unknown command accepted")
	}
}

// TestBareFlagsRejected: flags without a command are a usage error, not an
// implicit gossip run, and so is an empty command line.
func TestBareFlagsRejected(t *testing.T) {
	for _, args := range [][]string{{"-attack", "trade"}, nil} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "usage: lotus-sim") {
			t.Fatalf("run(%q): %v, want a usage error", args, err)
		}
	}
}

func TestHelp(t *testing.T) {
	if err := run([]string{"help"}); err != nil {
		t.Fatal(err)
	}
}
