package cli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden end-to-end CLI tests: the exact bytes of `scenarios list`,
// `scenarios show`, and a small pinned `scenarios run` are checked in under
// testdata/golden. After an intentional output change, regenerate with
//
//	go test ./internal/cli -run Golden -update
//
// and review the diff like any other code change. The run outputs double as
// cross-PR determinism pins: same seed, same bytes, on any worker count.
var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// checkGolden compares got against the named golden file, rewriting it
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/cli -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden file.\n--- got ---\n%s\n--- want ---\n%s\n(regenerate with -update if the change is intentional)", name, got, want)
	}
}

// TestGoldenScenariosList: the whole catalogue table, byte for byte — a new
// or renamed scenario shows up here as a reviewable diff.
func TestGoldenScenariosList(t *testing.T) {
	var b strings.Builder
	if err := ScenariosList(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scenarios-list.txt", []byte(b.String()))
}

// TestGoldenScenariosShow: one canned classic's spec JSON plus its metric
// menu.
func TestGoldenScenariosShow(t *testing.T) {
	var b strings.Builder
	if err := ScenariosShow(&b, []string{"gossip-trade"}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scenarios-show-gossip-trade.txt", []byte(b.String()))
}

// TestGoldenScenariosShowChurn pins the canonical JSON of a spec carrying a
// population block — churn rates survive the round-trip in canonical form.
func TestGoldenScenariosShowChurn(t *testing.T) {
	var b strings.Builder
	if err := ScenariosShow(&b, []string{"gossip-trade-churn"}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scenarios-show-gossip-trade-churn.txt", []byte(b.String()))
}

// TestGoldenScenariosRun: a small spec-file run pinned in both text and
// JSON, exercising the same path `scenarios run -spec file.json` takes.
func TestGoldenScenariosRun(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		var b strings.Builder
		err := ScenariosRun(&b, []string{
			"-spec", filepath.Join("testdata", "golden-tiny.json"),
			"-seed", "7", "-format", format,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "scenarios-run-golden-tiny."+format, []byte(b.String()))
	}
}

// TestGoldenScenariosRunTrace: the same tiny spec replaying a churn trace
// file — pins the trace-replay path bit-for-bit, on any worker count.
func TestGoldenScenariosRunTrace(t *testing.T) {
	var b strings.Builder
	err := ScenariosRun(&b, []string{
		"-spec", filepath.Join("testdata", "golden-tiny.json"),
		"-trace", filepath.Join("testdata", "golden-tiny-trace.json"),
		"-seed", "7", "-format", "json",
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scenarios-run-golden-tiny-trace.json", []byte(b.String()))
}

// TestGoldenGossip pins the stdout of single gossip runs: a rotating trade
// attack, and an ideal attack against obedient nodes with rate limiting and
// reporting switched on.
func TestGoldenGossip(t *testing.T) {
	for name, args := range map[string][]string{
		"gossip-trade-rotate.txt": {"-attack", "trade", "-fraction", "0.2", "-rotate", "5",
			"-nodes", "80", "-rounds", "30", "-warmup", "8"},
		"gossip-ideal-defended.txt": {"-attack", "ideal", "-fraction", "0.1",
			"-obedient", "1", "-ratelimit", "2", "-report", "1"},
	} {
		var b strings.Builder
		if err := Gossip(&b, args); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkGolden(t, name, []byte(b.String()))
	}
}

// TestGoldenToken pins the stdout of single token-model runs: a grid column
// cut and a random-node satiation on a random graph.
func TestGoldenToken(t *testing.T) {
	for name, args := range map[string][]string{
		"token-grid-cut.txt":       {"-graph", "grid", "-cut", "8"},
		"token-random-satiate.txt": {"-graph", "random", "-n", "200", "-satiate", "100"},
	} {
		var b strings.Builder
		if err := Token(&b, args); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkGolden(t, name, []byte(b.String()))
	}
}
