package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Golden artifacts: the exact JSON bytes of every registry entry at
// QuickQuality, seed 1, are checked in under testdata/golden. They pin the
// drivers across refactors of the simulators and the adversary plumbing.
// After an intentional output change, regenerate with
//
//	go test ./internal/experiment -run Golden -update
//
// and review the diff like any other code change.
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
		t.Fatalf("%v (run `go test ./internal/experiment -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden file.\n--- got ---\n%s\n--- want ---\n%s\n(regenerate with -update if the change is intentional)", name, got, want)
	}
}

// TestGoldenRegistry runs every registry entry at QuickQuality, seed 1, and
// compares its JSON artifact byte for byte.
func TestGoldenRegistry(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			a, err := e.Run(1, QuickQuality())
			if err != nil {
				t.Fatal(err)
			}
			data, err := a.JSON()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, e.Name+".json", data)
		})
	}
}
