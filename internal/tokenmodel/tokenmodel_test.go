package tokenmodel

import (
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/graph"
)

func validConfig() Config {
	return Config{
		Graph:    graph.Complete(20),
		Tokens:   5,
		Contacts: 2,
		Rounds:   30,
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil graph", func(c *Config) { c.Graph = nil }},
		{"zero tokens", func(c *Config) { c.Tokens = 0 }},
		{"negative contacts", func(c *Config) { c.Contacts = -1 }},
		{"altruism > 1", func(c *Config) { c.Altruism = 1.5 }},
		{"zero rounds", func(c *Config) { c.Rounds = 0 }},
		{"allocation length", func(c *Config) { c.Allocation = []int{1} }},
		{"allocation range", func(c *Config) {
			c.Allocation = make([]int, c.Graph.N())
			c.Allocation[3] = c.Tokens
		}},
	}
	for _, c := range cases {
		cfg := validConfig()
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
	if err := validConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInitialAllocationDefault(t *testing.T) {
	sim, err := New(validConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 20; v++ {
		if !sim.Has(v, v%5) {
			t.Fatalf("node %d missing default token %d", v, v%5)
		}
		if sim.HeldCount(v) != 1 {
			t.Fatalf("node %d holds %d tokens initially", v, sim.HeldCount(v))
		}
	}
}

func TestSpreadOnCompleteGraph(t *testing.T) {
	sim, err := New(validConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With c = 2 on K20 and whole-set copies, everyone should finish fast
	// (nodes can't satiate before holding everything, and everyone holds
	// something useful to everyone early on).
	if res.CompletedFraction < 0.9 {
		t.Fatalf("completed %.3f on complete graph", res.CompletedFraction)
	}
	if res.AllSatiatedRound == -1 && res.CompletedFraction == 1 {
		t.Fatal("all completed but AllSatiatedRound = -1")
	}
	for _, cov := range res.TokenCoverage {
		if cov < 0.9 {
			t.Fatalf("token coverage %.3f", cov)
		}
	}
}

func TestSatiatedByRoundMonotone(t *testing.T) {
	sim, err := New(validConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SatiatedByRound) != 30 {
		t.Fatalf("%d round samples", len(res.SatiatedByRound))
	}
	for i := 1; i < len(res.SatiatedByRound); i++ {
		if res.SatiatedByRound[i] < res.SatiatedByRound[i-1] {
			t.Fatal("satiation count decreased (tokens are never lost)")
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Result {
		sim, err := New(validConfig(), 42)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.CompletedFraction != b.CompletedFraction || a.MeanCompletionRound != b.MeanCompletionRound {
		t.Fatal("same seed differs")
	}
	for i := range a.SatiatedByRound {
		if a.SatiatedByRound[i] != b.SatiatedByRound[i] {
			t.Fatal("per-round trajectories differ")
		}
	}
}

// satiating installs the targeted ideal attack: the named nodes are
// satiated at the start of every round.
func satiating(ids ...int) Option {
	return WithAdversary(&attack.Strategy{Kind: attack.Ideal, TargetList: ids})
}

// shortTargets is an ideal adversary whose target sets cover the wrong
// number of nodes.
type shortTargets struct{ attack.Strategy }

func (*shortTargets) Targets(int) *attack.TargetSet { return attack.NewTargetSet(3, nil) }

// TestAttackerSatiatesTargets: targets hold everything after round 0 and
// count as completed.
func TestAttackerSatiatesTargets(t *testing.T) {
	cfg := validConfig()
	sim, err := New(cfg, 4, satiating(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	if !sim.Satiated(3) || !sim.Satiated(5) {
		t.Fatal("targets not satiated after one round")
	}
	if sim.CompletionRound(3) != 0 {
		t.Fatalf("target completion round %d", sim.CompletionRound(3))
	}
}

// TestRareTokenDenial is the paper's rare-token attack: satiate the only
// holder of token 0 on a zero-altruism system and nobody else ever gets it.
func TestRareTokenDenial(t *testing.T) {
	const n, tokens = 30, 4
	alloc := make([]int, n)
	alloc[0] = 0
	for v := 1; v < n; v++ {
		alloc[v] = 1 + (v-1)%(tokens-1)
	}
	cfg := Config{
		Graph:      graph.Complete(n),
		Tokens:     tokens,
		Contacts:   2,
		Rounds:     50,
		Allocation: alloc,
	}
	sim, err := New(cfg, 5, satiating(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TokenCoverage[0]; got != 1.0/n {
		t.Fatalf("token 0 coverage %.4f, want exactly the satiated holder (%.4f)", got, 1.0/n)
	}
	if res.CompletedFraction > 1.0/n+1e-9 {
		t.Fatalf("completed fraction %.4f despite denial", res.CompletedFraction)
	}
}

// TestAltruismLeaksRareToken: the same attack with a > 0 eventually leaks
// the rare token (the satiated holder responds occasionally).
func TestAltruismLeaksRareToken(t *testing.T) {
	const n, tokens = 30, 4
	alloc := make([]int, n)
	alloc[0] = 0
	for v := 1; v < n; v++ {
		alloc[v] = 1 + (v-1)%(tokens-1)
	}
	cfg := Config{
		Graph:      graph.Complete(n),
		Tokens:     tokens,
		Contacts:   2,
		Altruism:   0.3,
		Rounds:     60,
		Allocation: alloc,
	}
	sim, err := New(cfg, 6, satiating(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TokenCoverage[0] < 0.9 {
		t.Fatalf("altruism 0.3 left token 0 coverage at %.4f", res.TokenCoverage[0])
	}
}

// TestSatiatedNodesStopServing: with a = 0, a satiated node is inert — its
// unique token never leaves it once it satiates instantly at round 0 via
// the attacker.
func TestZeroContactsNoSpread(t *testing.T) {
	cfg := validConfig()
	cfg.Contacts = 0
	sim, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFraction != 0 {
		t.Fatalf("tokens spread with zero contacts: %.3f", res.CompletedFraction)
	}
}

func TestDisconnectedGraphPartialCompletion(t *testing.T) {
	g := graph.New(10)
	// Two cliques 0-4 and 5-9 with no bridge.
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			_ = g.AddEdge(i, j)
			_ = g.AddEdge(i+5, j+5)
		}
	}
	alloc := make([]int, 10)
	for v := range alloc {
		alloc[v] = v % 2 // tokens 0 and 1 in both cliques
	}
	cfg := Config{Graph: g, Tokens: 2, Contacts: 2, Rounds: 20, Allocation: alloc}
	sim, err := New(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFraction < 0.5 {
		t.Fatalf("cliques with both tokens completed only %.3f", res.CompletedFraction)
	}
}

func TestStepPastHorizon(t *testing.T) {
	cfg := validConfig()
	cfg.Rounds = 1
	sim, err := New(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err == nil {
		t.Fatal("stepped past horizon")
	}
}

func TestBadTargeterLength(t *testing.T) {
	sim, err := New(validConfig(), 10, WithAdversary(&shortTargets{attack.Strategy{Kind: attack.Ideal}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err == nil {
		t.Fatal("mismatched targeter accepted")
	}
}

// TestHeldMonotone: a node's token count never decreases.
func TestHeldMonotone(t *testing.T) {
	sim, err := New(validConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	prev := make([]int, 20)
	for r := 0; r < 30; r++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 20; v++ {
			if sim.HeldCount(v) < prev[v] {
				t.Fatalf("node %d lost tokens at round %d", v, r)
			}
			prev[v] = sim.HeldCount(v)
		}
	}
}

func TestRoundAccessor(t *testing.T) {
	sim, err := New(validConfig(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Round() != 0 {
		t.Fatalf("initial round %d", sim.Round())
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	if sim.Round() != 1 {
		t.Fatalf("round after step %d", sim.Round())
	}
}

func TestRunPropagatesStepError(t *testing.T) {
	sim, err := New(validConfig(), 31, WithAdversary(&shortTargets{attack.Strategy{Kind: attack.Ideal}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("Run swallowed the targeter error")
	}
}
