// Package experiment hosts every experiment driver of the reproduction and
// a registry that makes each one a named, self-describing entry.
//
// An Experiment maps (seed, Quality) to a metrics.Artifact — a set of
// figure series or a rendered table — so any frontend (the lotus-sim CLI,
// the figures command, tests, benchmarks) can run every table and figure of
// the paper, plus the extension experiments, by name and encode the result
// as text, CSV, or JSON without knowing anything about the underlying
// simulator. The drivers themselves run on the shared simulation kernel
// (internal/sim) via internal/sweep, so sweeps from different experiments
// share one bounded worker pool and per-worker scratch arenas.
//
// The root lotuseater package re-exports the typed driver functions
// (Figure1, SwarmExperiment, ...) as thin shims for API compatibility.
package experiment

import (
	"fmt"
	"sort"
	"sync"

	"lotuseater/internal/metrics"
)

// Artifact is the output of one experiment run; see metrics.Artifact for
// the text/CSV/JSON encoders.
type Artifact = metrics.Artifact

// DecodeArtifact parses the output of Artifact.JSON.
func DecodeArtifact(data []byte) (*Artifact, error) { return metrics.DecodeArtifact(data) }

// Quality controls the fidelity/runtime trade-off of an experiment sweep.
type Quality struct {
	// Points is the number of x-axis samples.
	Points int
	// Seeds is the number of replications averaged per point.
	Seeds int
}

// FullQuality reproduces the figures at paper fidelity.
func FullQuality() Quality { return Quality{Points: 26, Seeds: 5} }

// QuickQuality is for tests and smoke runs.
func QuickQuality() Quality { return Quality{Points: 6, Seeds: 1} }

// Normalize clamps the quality to runnable values (>= 2 points, >= 1 seed).
func (q Quality) Normalize() Quality {
	if q.Points < 2 {
		q.Points = 2
	}
	if q.Seeds < 1 {
		q.Seeds = 1
	}
	return q
}

// ParseQuality maps the CLI spellings "full" and "quick" to a Quality.
func ParseQuality(name string) (Quality, error) {
	switch name {
	case "full":
		return FullQuality(), nil
	case "quick":
		return QuickQuality(), nil
	default:
		return Quality{}, fmt.Errorf("unknown quality %q (want full|quick)", name)
	}
}

// Experiment is one named, self-describing entry in the registry.
type Experiment struct {
	// Name is the registry key, e.g. "figure1" or "scrip-money-supply".
	Name string
	// Description is a one-line summary shown by `lotus-sim list`.
	Description string
	// Run regenerates the experiment's artifact. It must be deterministic
	// in (seed, q) and safe to call concurrently.
	Run func(seed uint64, q Quality) (*metrics.Artifact, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Experiment{}
)

// Register adds e to the registry. It panics on an empty name, a nil Run,
// or a duplicate registration — all programmer errors at init time.
func Register(e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic("experiment: Register needs a name and a Run func")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("experiment: duplicate registration of %q", e.Name))
	}
	registry[e.Name] = e
}

// Get looks an experiment up by name.
func Get(name string) (Experiment, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// All returns every registered experiment sorted by name.
func All() []Experiment {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted registry keys.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.Name
	}
	return names
}

// Run executes the named experiment, returning a not-found error that lists
// the valid names when the lookup fails.
func Run(name string, seed uint64, q Quality) (*metrics.Artifact, error) {
	e, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("experiment: unknown experiment %q (known: %v)", name, Names())
	}
	return e.Run(seed, q)
}

// collect runs n series-producing steps in order and returns their series,
// stopping at the first error.
func collect(n int, step func(i int) (*Series, error)) ([]*Series, error) {
	out := make([]*Series, 0, n)
	for i := 0; i < n; i++ {
		s, err := step(i)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
