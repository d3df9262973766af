// Package tokenmodel implements the simple token-collecting model of
// Section 3 of the paper, used there to understand when a lotus-eater
// attack harms a system.
//
// A system is a tuple (G, T, sat, f, c, a):
//
//   - G is the underlying connected communication graph;
//   - T is a finite set of tokens;
//   - sat(i, t, T') = true iff T' = T — every node wants every token;
//   - f is an initial allocation of tokens to nodes;
//   - c bounds the number of nodes each node can contact per round;
//   - a is the probability a node responds to requests even when satiated
//     (the amount of altruism in the system).
//
// Each round, the attacker first gives every node in a chosen subset all
// the tokens (instant satiation — deliberately overestimating the attacker,
// as the paper does). Then every unsatiated node selects up to c random
// neighbors; each contact copies token sets both ways. Satiated nodes do
// not initiate and respond only with probability a. All exchanges in a
// round read start-of-round state ("assume all of these events happen
// simultaneously").
package tokenmodel

import (
	"errors"
	"fmt"

	"lotuseater/internal/bitset"
	"lotuseater/internal/graph"
	"lotuseater/internal/population"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// Config parameterizes a run of the model.
type Config struct {
	// Graph is G; it must be non-nil. The paper assumes G connected, but
	// the simulator does not require it (cut experiments rely on satiation
	// disconnecting flows, not the graph).
	Graph *graph.Graph
	// Tokens is |T|.
	Tokens int
	// Contacts is c, the per-round contact budget per node.
	Contacts int
	// Altruism is a, the probability a satiated node responds anyway.
	Altruism float64
	// Rounds is the simulation horizon.
	Rounds int
	// Allocation maps node -> initially held token (the paper's f: V -> T).
	// Nil means node v starts with token v mod Tokens.
	Allocation []int
	// Churn is the lifecycle schedule: each event's node leaves or
	// (re)joins at the top of its round. A departed node neither initiates
	// nor answers contacts; a rejoining index is a fresh agent (initial
	// allocation, completion cleared). Nil means a static population.
	Churn []population.Event
	// NodeAltruism overrides Altruism per node when non-nil (len = nodes,
	// values in [0,1]) — the heterogeneous-classes axis.
	NodeAltruism []float64
	// NodeContacts overrides Contacts per node when non-nil (len = nodes,
	// values >= 0) — per-class capacity.
	NodeContacts []int
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.Graph == nil:
		return errors.New("tokenmodel: nil graph")
	case c.Tokens < 1:
		return fmt.Errorf("tokenmodel: Tokens must be positive, got %d", c.Tokens)
	case c.Contacts < 0:
		return fmt.Errorf("tokenmodel: Contacts must be non-negative, got %d", c.Contacts)
	case c.Altruism < 0 || c.Altruism > 1:
		return fmt.Errorf("tokenmodel: Altruism must be in [0,1], got %g", c.Altruism)
	case c.Rounds < 1:
		return fmt.Errorf("tokenmodel: Rounds must be positive, got %d", c.Rounds)
	case c.Allocation != nil && len(c.Allocation) != c.Graph.N():
		return fmt.Errorf("tokenmodel: Allocation has %d entries for %d nodes", len(c.Allocation), c.Graph.N())
	}
	if c.Allocation != nil {
		for v, t := range c.Allocation {
			if t < 0 || t >= c.Tokens {
				return fmt.Errorf("tokenmodel: Allocation[%d] = %d out of range [0,%d)", v, t, c.Tokens)
			}
		}
	}
	n := c.Graph.N()
	if err := population.ValidateSchedule(c.Churn, n); err != nil {
		return fmt.Errorf("tokenmodel: churn: %w", err)
	}
	if c.NodeAltruism != nil {
		if len(c.NodeAltruism) != n {
			return fmt.Errorf("tokenmodel: NodeAltruism has %d entries for %d nodes", len(c.NodeAltruism), n)
		}
		for v, a := range c.NodeAltruism {
			if a < 0 || a > 1 {
				return fmt.Errorf("tokenmodel: NodeAltruism[%d] = %g outside [0,1]", v, a)
			}
		}
	}
	if c.NodeContacts != nil {
		if len(c.NodeContacts) != n {
			return fmt.Errorf("tokenmodel: NodeContacts has %d entries for %d nodes", len(c.NodeContacts), n)
		}
		for v, k := range c.NodeContacts {
			if k < 0 {
				return fmt.Errorf("tokenmodel: NodeContacts[%d] = %d must be non-negative", v, k)
			}
		}
	}
	return nil
}

// Result summarizes a run.
type Result struct {
	// SatiatedByRound[r] is the number of satiated nodes after round r.
	SatiatedByRound []int
	// CompletedFraction is the fraction of nodes satiated at the horizon.
	CompletedFraction float64
	// OrganicCompletedFraction is the completed fraction among nodes the
	// adversary neither controls nor ever served — the population an attack
	// actually harms. Without an adversary it equals CompletedFraction.
	OrganicCompletedFraction float64
	// AllSatiatedRound is the first round after which every node was
	// satiated, or -1 if that never happened.
	AllSatiatedRound int
	// TokenCoverage[t] is the fraction of nodes holding token t at the
	// horizon (diagnoses rare-token denial).
	TokenCoverage []float64
	// MeanCompletionRound is the average round at which nodes became
	// satiated, counting unfinished nodes as the horizon.
	MeanCompletionRound float64
}

// Sim is one instance of the model. Create with New, drive with Run or Step.
// Sim implements sim.Model; Snapshot's concrete type is Result.
type Sim struct {
	cfg Config
	rng *simrng.Source
	ws  *sim.Workspace // nil = private allocations

	// Strategy hooks: adv places attacker nodes and decides targeting and
	// in-protocol service; def rate-limits what receivers accept. Both are
	// optional; without an adversary nobody is attacked.
	adv        sim.Adversary
	def        sim.Defense
	isAttacker []bool
	touched    []bool // node ever received tokens from the adversary
	advTrades  bool
	advInstant bool

	round     int
	held      []*bitset.Set
	completed []int // round node became satiated, -1 if not yet
	result    Result

	// Population lifecycle: churn replays Config.Churn; departed marks
	// absent nodes (nil-safe scalar path when the config has no churn).
	churn    population.Cursor
	departed []bool

	// Round scratch, allocated once at New (from the workspace when one is
	// installed) and reused every round — Step allocates nothing.
	snapshot []*bitset.Set
	gains    []*bitset.Set
	sat      []bool
}

// Option customizes a Sim.
type Option func(*Sim)

// WithWorkspace draws the simulation's bitsets and scratch from a worker's
// arena instead of the heap, making replicated runs allocation-free on the
// hot path. The Sim must then not outlive the pool task that built it.
func WithWorkspace(ws *sim.Workspace) Option {
	return func(s *Sim) { s.ws = ws }
}

// WithAdversary installs the attack: the adversary places attacker nodes
// (which hold every token when the strategy trades in protocol or satiates
// instantly — the adversary sources content out of band, as the paper's
// "deliberately overestimating the attacker" does), chooses per-round
// satiation targets, and decides via OnExchange which contacting partners
// attacker nodes serve. A targeted attack that satiates fixed nodes at the
// start of every round is
// WithAdversary(&attack.Strategy{Kind: attack.Ideal, TargetList: ids}).
func WithAdversary(a sim.Adversary) Option {
	return func(s *Sim) { s.adv = a }
}

// WithDefense installs a receiver-side defense: every token transfer is
// gated by Admit, capping how many new tokens a node accepts from any one
// partner per round — Section 5's rate-limiting idea on the Section 3
// substrate.
func WithDefense(d sim.Defense) Option {
	return func(s *Sim) { s.def = d }
}

// New builds a Sim, deterministic in (cfg, seed).
func New(cfg Config, seed uint64, opts ...Option) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Graph.N()
	s := &Sim{
		cfg: cfg,
		rng: simrng.New(seed),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.ws != nil {
		s.held = s.ws.Bitsets(n, cfg.Tokens)
		s.snapshot = s.ws.Bitsets(n, cfg.Tokens)
		s.gains = s.ws.Bitsets(n, cfg.Tokens)
		s.sat = s.ws.Bools(n)
		s.completed = s.ws.Ints(n)
	} else {
		s.held = make([]*bitset.Set, n)
		s.snapshot = make([]*bitset.Set, n)
		s.gains = make([]*bitset.Set, n)
		for v := 0; v < n; v++ {
			s.held[v] = bitset.New(cfg.Tokens)
			s.snapshot[v] = bitset.New(cfg.Tokens)
			s.gains[v] = bitset.New(cfg.Tokens)
		}
		s.sat = make([]bool, n)
		s.completed = make([]int, n)
	}
	for v := 0; v < n; v++ {
		tok := v % cfg.Tokens
		if cfg.Allocation != nil {
			tok = cfg.Allocation[v]
		}
		s.held[v].Add(tok)
		s.completed[v] = -1
	}
	if s.adv != nil {
		s.advTrades = sim.TradesInProtocol(s.adv)
		s.advInstant = sim.SatiatesInstantly(s.adv)
		if s.ws != nil {
			s.isAttacker = s.ws.Bools(n)
			s.touched = s.ws.Bools(n)
		} else {
			s.isAttacker = make([]bool, n)
			s.touched = make([]bool, n)
		}
		for _, a := range s.adv.Place(n, s.rng.Child("adversary")) {
			if a < 0 || a >= n {
				return nil, fmt.Errorf("tokenmodel: adversary placed node %d outside [0,%d)", a, n)
			}
			s.isAttacker[a] = true
			if s.advTrades || s.advInstant {
				// Lotus-eater attackers hold the full token set: the
				// adversary sources content out of band.
				s.held[a].Fill()
			}
		}
	}
	for v := 0; v < n; v++ {
		if s.satiated(v) {
			s.completed[v] = 0
		}
	}
	if len(cfg.Churn) > 0 {
		s.churn = population.NewCursor(cfg.Churn)
		if s.ws != nil {
			s.departed = s.ws.Bools(n)
		} else {
			s.departed = make([]bool, n)
		}
	}
	return s, nil
}

// gone reports whether node v is currently departed.
func (s *Sim) gone(v int) bool { return s.departed != nil && s.departed[v] }

// contactsOf returns v's per-round contact budget: the per-class override
// when one is installed, the scalar config otherwise.
func (s *Sim) contactsOf(v int) int {
	if s.cfg.NodeContacts != nil {
		return s.cfg.NodeContacts[v]
	}
	return s.cfg.Contacts
}

// altruismOf returns node v's altruism (v is the responding side).
func (s *Sim) altruismOf(v int) float64 {
	if s.cfg.NodeAltruism != nil {
		return s.cfg.NodeAltruism[v]
	}
	return s.cfg.Altruism
}

// leaveNode and joinNode apply one lifecycle event. A rejoining index is
// a fresh agent: initial allocation, no completion record (attackers
// refill instead — the adversary re-provisions its own nodes).
func (s *Sim) leaveNode(v int) {
	if s.departed[v] {
		return
	}
	s.departed[v] = true
	if s.adv != nil {
		sim.NotifyDeparture(s.adv, s.round, v)
	}
}

func (s *Sim) joinNode(v int) {
	if !s.departed[v] {
		return
	}
	s.departed[v] = false
	s.held[v].Clear()
	if s.isAttacker != nil && s.isAttacker[v] && (s.advTrades || s.advInstant) {
		s.held[v].Fill()
		s.completed[v] = s.round
		return
	}
	tok := v % s.cfg.Tokens
	if s.cfg.Allocation != nil {
		tok = s.cfg.Allocation[v]
	}
	s.held[v].Add(tok)
	s.completed[v] = -1
}

func (s *Sim) satiated(v int) bool { return s.held[v].Full() }

// Round returns the next round to simulate.
func (s *Sim) Round() int { return s.round }

// Satiated reports whether node v currently holds all tokens.
func (s *Sim) Satiated(v int) bool { return s.satiated(v) }

// HeldCount returns how many distinct tokens v holds.
func (s *Sim) HeldCount(v int) int { return s.held[v].Len() }

// Has reports whether v holds token t.
func (s *Sim) Has(v, t int) bool { return s.held[v].Has(t) }

// CompletionRound returns the round at which v became satiated, or -1 if it
// has not. Nodes satiated by the attacker count as completed; callers that
// care about organic completion should restrict to non-target nodes.
func (s *Sim) CompletionRound(v int) int { return s.completed[v] }

// Step simulates one round.
func (s *Sim) Step() error {
	if s.round >= s.cfg.Rounds {
		return fmt.Errorf("tokenmodel: horizon of %d rounds exhausted", s.cfg.Rounds)
	}
	n := s.cfg.Graph.N()

	// 0. Lifecycle: departures and arrivals land before the attack and
	// every contact, and the adversary hears about departures before its
	// Targets call (a departed target's satiation leaves with it).
	for ev, ok := s.churn.Next(s.round); ok; ev, ok = s.churn.Next(s.round) {
		if ev.Join {
			s.joinNode(ev.Node)
		} else {
			s.leaveNode(ev.Node)
		}
	}

	// 1. The attacker satiates its targets when it does so out of protocol
	// (the ideal attack) — trade attackers must work through exchanges
	// below. The defense's Admit hook caps how many tokens each target
	// accepts per round, so a rate limit slows even the "instant" attacker.
	if s.advInstant {
		targets := s.adv.Targets(s.round)
		if targets.Cap() != n {
			return fmt.Errorf("tokenmodel: adversary returned a target set over %d nodes, want %d", targets.Cap(), n)
		}
		// Sparse iteration: the satiation pass costs O(|satiated set|), not
		// O(n), and allocates nothing.
		for _, v := range targets.Members() {
			if s.satiated(v) || s.gone(v) || s.isAttacker[v] {
				continue
			}
			s.satiate(v)
		}
	}

	// 2. Simultaneous contacts: all exchanges read the start-of-round
	// snapshot; gains land after every contact has been resolved. The
	// snapshot/gains/sat buffers live on the Sim and are reused each round.
	snapshot, gains, sat := s.snapshot, s.gains, s.sat
	for v := 0; v < n; v++ {
		snapshot[v].CopyFrom(s.held[v])
		gains[v].Clear()
		sat[v] = snapshot[v].Full()
	}
	rng := s.rng.ChildN("round", s.round)
	for v := 0; v < n; v++ {
		if s.gone(v) {
			continue // empty seat: no contacts in or out
		}
		if s.isAttacker != nil && s.isAttacker[v] {
			// Attacker nodes never collect for themselves. Trade attackers
			// initiate contacts to deliver satiation through the protocol;
			// crash and ideal attackers stay silent.
			if s.advTrades {
				s.attackerContacts(v, sat, rng)
			}
			continue
		}
		if sat[v] {
			continue // satiated nodes stop communicating
		}
		nb := s.cfg.Graph.AdjList(v)
		if len(nb) == 0 {
			continue
		}
		c := s.contactsOf(v)
		if c > len(nb) {
			c = len(nb)
		}
		for _, idx := range rng.SampleInts(len(nb), c) {
			p := nb[idx]
			if s.gone(p) {
				continue // contacting an empty seat wastes the slot
			}
			if s.isAttacker != nil && s.isAttacker[p] {
				// The contacted attacker serves per the adversary's
				// OnExchange rule and takes nothing back.
				if s.adv.OnExchange(s.round, p, v) && s.transferInto(v, p) > 0 {
					s.touched[v] = true
				}
				continue
			}
			if sat[p] && !rng.Bool(s.altruismOf(p)) {
				continue // satiated partner declines to respond
			}
			s.transferInto(v, p)
			s.transferInto(p, v)
		}
	}
	for v := 0; v < n; v++ {
		s.held[v].UnionWith(gains[v])
		if s.completed[v] == -1 && s.satiated(v) {
			s.completed[v] = s.round
		}
	}

	count := 0
	for v := 0; v < n; v++ {
		if !s.gone(v) && s.satiated(v) {
			count++
		}
	}
	s.result.SatiatedByRound = append(s.result.SatiatedByRound, count)
	s.round++
	return nil
}

// satiate delivers the attacker's out-of-protocol payload to v: every token
// v lacks, capped by the defense's Admit budget (sender -1, the external
// attacker).
func (s *Sim) satiate(v int) {
	if s.def == nil {
		s.held[v].Fill()
		s.touched[v] = true
		return
	}
	missing := s.held[v].Missing()
	granted := s.def.Admit(s.round, -1, v, len(missing))
	if granted > len(missing) {
		granted = len(missing)
	}
	for _, t := range missing[:granted] {
		s.held[v].Add(t)
	}
	if granted > 0 {
		s.touched[v] = true
	}
}

// attackerContacts is a trade attacker's round: it contacts up to c random
// neighbors and gives each satiation target its full snapshot, taking
// nothing in return.
func (s *Sim) attackerContacts(v int, sat []bool, rng *simrng.Source) {
	nb := s.cfg.Graph.AdjList(v)
	if len(nb) == 0 {
		return
	}
	c := s.contactsOf(v)
	if c > len(nb) {
		c = len(nb)
	}
	for _, idx := range rng.SampleInts(len(nb), c) {
		p := nb[idx]
		if s.gone(p) || s.isAttacker[p] || sat[p] || !s.adv.OnExchange(s.round, v, p) {
			continue
		}
		if s.transferInto(p, v) > 0 {
			s.touched[p] = true
		}
	}
}

// transferInto moves the sender's start-of-round token set into the
// receiver's pending gains and reports how many new tokens landed. Without
// a defense this is a plain union; with one, the number of genuinely new
// tokens accepted is capped by Admit and the grant is consumed in ascending
// token order (deterministic).
func (s *Sim) transferInto(dst, src int) int {
	if s.def == nil {
		return s.gains[dst].UnionWith(s.snapshot[src])
	}
	need := 0
	s.snapshot[src].ForEach(func(t int) {
		if !s.snapshot[dst].Has(t) && !s.gains[dst].Has(t) {
			need++
		}
	})
	if need == 0 {
		return 0
	}
	granted := s.def.Admit(s.round, src, dst, need)
	if granted >= need {
		return s.gains[dst].UnionWith(s.snapshot[src])
	}
	taken := 0
	s.snapshot[src].ForEach(func(t int) {
		if taken >= granted {
			return
		}
		if !s.snapshot[dst].Has(t) && !s.gains[dst].Has(t) {
			s.gains[dst].Add(t)
			taken++
		}
	})
	return taken
}

// Run simulates the full horizon and returns the result.
func (s *Sim) Run() (Result, error) {
	for s.round < s.cfg.Rounds {
		if err := s.Step(); err != nil {
			return Result{}, err
		}
	}
	return s.finish(), nil
}

// Finished reports whether the horizon has been reached.
func (s *Sim) Finished() bool { return s.round >= s.cfg.Rounds }

// Snapshot returns the Result summarizing the run so far.
func (s *Sim) Snapshot() (any, error) { return s.finish(), nil }

func (s *Sim) finish() Result {
	n := s.cfg.Graph.N()
	res := s.result
	res.AllSatiatedRound = -1
	for r, c := range res.SatiatedByRound {
		if c == n {
			res.AllSatiatedRound = r
			break
		}
	}
	done := 0
	sum := 0.0
	for v := 0; v < n; v++ {
		if s.completed[v] >= 0 {
			done++
			sum += float64(s.completed[v])
		} else {
			sum += float64(s.cfg.Rounds)
		}
	}
	if n > 0 {
		res.CompletedFraction = float64(done) / float64(n)
		res.MeanCompletionRound = sum / float64(n)
	}
	organicDone, organicTotal := 0, 0
	for v := 0; v < n; v++ {
		if s.isAttacker != nil && s.isAttacker[v] {
			continue
		}
		if s.touched != nil && s.touched[v] {
			continue
		}
		organicTotal++
		if s.completed[v] >= 0 {
			organicDone++
		}
	}
	if organicTotal > 0 {
		res.OrganicCompletedFraction = float64(organicDone) / float64(organicTotal)
	}
	res.TokenCoverage = make([]float64, s.cfg.Tokens)
	for t := 0; t < s.cfg.Tokens; t++ {
		holders := 0
		for v := 0; v < n; v++ {
			if s.held[v].Has(t) {
				holders++
			}
		}
		if n > 0 {
			res.TokenCoverage[t] = float64(holders) / float64(n)
		}
	}
	return res
}
