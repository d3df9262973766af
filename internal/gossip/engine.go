package gossip

import (
	"fmt"

	"lotuseater/internal/attack"
	"lotuseater/internal/defense"
	"lotuseater/internal/population"
	"lotuseater/internal/sign"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// Engine runs one BAR Gossip simulation. Create it with New and drive it
// with Run (whole horizon) or Step (one round). An Engine is not safe for
// concurrent use; run one Engine per goroutine (sim.Runner and the
// experiment sweeps do exactly that).
type Engine struct {
	cfg   Config
	rng   *simrng.Source
	pseed sign.PartnerSeed

	// adv drives attacker placement, per-round targeting, and which
	// partners attacker nodes serve in exchanges (OnExchange). WithAdversary
	// installs it; without one the engine runs the no-attack baseline.
	// advTrades and advInstant cache the adversary's capability probes for
	// the hot path.
	adv        sim.Adversary
	advTrades  bool
	advInstant bool

	keyring *sign.Keyring
	board   *defense.Board
	def     sim.Defense

	roles      []Role
	attackers  []int
	isAttacker []bool
	evicted    []bool

	// Population model (all nil/empty without one; every gate below keeps
	// the static-population code path byte-identical). churn replays the
	// compiled lifecycle schedule; departed/presentSince track presence.
	// nodeAltruism overrides cfg.Altruism per node (maxAltruism caches the
	// short-circuit guard); copiesFor maps a drawn popularity rank to the
	// seeding fan-out for that update.
	churn         population.Cursor
	departed      []bool
	presentSince  []int
	nodeAltruism  []float64
	maxAltruism   float64
	updateWeights []float64
	copiesFor     []int

	round          int
	live           []*liveUpdate
	targetsByRound []*attack.TargetSet

	// Pooled per-round scratch: the planning permutation, initiation flags,
	// partner draws and pairing list are reused every round, retired holder
	// arrays are recycled into new updates, and the two needs buffers back
	// the exchanges — steady-state rounds allocate O(|satiated set|) on the
	// satiation path and O(1) elsewhere, independent of Nodes.
	permBuf     []int
	pairBuf     []pairing
	initFlags   []bool
	partners    []int
	holderPool  [][]bool
	needScratch [2][]int

	// evalParallel > 0 forces the sharded per-node planning evaluation,
	// < 0 forces the sequential loop, 0 picks by population size.
	evalParallel int

	measStart, measEnd int // inclusive release-round measurement window

	measuredUpdates  int
	delivered, total []int // per node, over all measured updates
	deliveredIso     []int // per node, over updates released while isolated
	totalIso         []int
	deliveredSat     []int
	totalSat         []int
	perRoundHonest   []float64
	perRoundIsolated []float64
	nodeRound        [][]int // [node][release round] delivered count

	usefulSent   int64
	junkSent     int64
	attackerSent int64
}

// Option customizes an Engine.
type Option func(*Engine)

// WithAdversary installs the attack: the adversary places the attacker's
// nodes, chooses the satiation targets each round, and its OnExchange hook
// decides which partners attacker nodes serve in protocol exchanges. Use
// attack.Strategy for the paper's attacks, with TargetList for targeted
// ones (grid cuts, rare resources).
func WithAdversary(a sim.Adversary) Option {
	return func(e *Engine) { e.adv = a }
}

// WithDefense installs a receiver-side defense, such as defense.Limit (the
// per-peer rate limit); obedient nodes route every accepted excess delivery
// through its Admit hook.
func WithDefense(d sim.Defense) Option {
	return func(e *Engine) { e.def = d }
}

// WithChurn installs a lifecycle schedule: each event's node leaves or
// (re)joins at the top of its round, before seeding and exchanges. The
// schedule must be sorted by round with nodes in [0, Nodes). A node's
// copies leave the network with it; an index that rejoins is a fresh node
// (empty holdings, measured only for updates released after its return).
func WithChurn(events []population.Event) Option {
	return func(e *Engine) { e.churn = population.NewCursor(events) }
}

// WithNodeAltruism overrides cfg.Altruism per node (len must be Nodes,
// values in [0,1]) — the heterogeneous-classes axis mapped onto the
// gossip substrate's one behavioral knob. Nil keeps the scalar config.
func WithNodeAltruism(a []float64) Option {
	return func(e *Engine) { e.nodeAltruism = a }
}

// WithUpdateWeights skews seeding by content popularity: each released
// update draws a rank from the weight vector (a normalized popularity
// catalog, e.g. Zipf) and is seeded to CopiesSeeded scaled by that rank's
// weight relative to uniform — popular content starts wide, niche content
// starts narrow. Nil keeps the uniform CopiesSeeded fan-out.
func WithUpdateWeights(w []float64) Option {
	return func(e *Engine) { e.updateWeights = w }
}

// evalParallelMinNodes is the population size at which the engine starts
// sharding per-node planning evaluation across the worker pool by default.
const evalParallelMinNodes = 1 << 15

// WithEvalParallel forces the round-planning evaluation — the O(Nodes)
// "does v initiate this phase?" scan — on or off the sharded sim.ParallelFor
// path. The evaluation is a pure read of round state, so results are
// bit-identical either way (the equivalence is tested); by default the
// sharded path engages for populations of evalParallelMinNodes and up,
// where the scan dominates round time.
func WithEvalParallel(on bool) Option {
	return func(e *Engine) {
		if on {
			e.evalParallel = 1
		} else {
			e.evalParallel = -1
		}
	}
}

// New builds an Engine for cfg, deterministic in (cfg, seed).
func New(cfg Config, seed uint64, opts ...Option) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg: cfg,
		rng: simrng.New(seed),
	}
	n := cfg.Nodes
	e.pseed = sign.PartnerSeed(e.rng.Child("partner-seed").Uint64())

	// Options first: placement and targeting come from the adversary.
	for _, opt := range opts {
		opt(e)
	}
	if e.adv == nil {
		e.adv = &attack.Strategy{Kind: attack.None}
	}
	e.advTrades = sim.TradesInProtocol(e.adv)
	e.advInstant = sim.SatiatesInstantly(e.adv)

	// Population model wiring. Everything stays nil/scalar without one, so
	// the static-population engine is untouched byte for byte.
	if err := population.ValidateSchedule(e.churn.Events(), n); err != nil {
		return nil, fmt.Errorf("gossip: churn: %w", err)
	}
	e.maxAltruism = cfg.Altruism
	if e.nodeAltruism != nil {
		if len(e.nodeAltruism) != n {
			return nil, fmt.Errorf("gossip: node altruism has %d entries, want %d", len(e.nodeAltruism), n)
		}
		e.maxAltruism = 0
		for _, a := range e.nodeAltruism {
			if a < 0 || a > 1 {
				return nil, fmt.Errorf("gossip: node altruism %g outside [0,1]", a)
			}
			if a > e.maxAltruism {
				e.maxAltruism = a
			}
		}
	}
	if w := population.Normalize(e.updateWeights); w != nil {
		e.copiesFor = make([]int, len(w))
		for i, wi := range w {
			c := int(float64(cfg.CopiesSeeded)*wi*float64(len(w)) + 0.5)
			if c < 1 {
				c = 1
			}
			if c > n {
				c = n
			}
			e.copiesFor[i] = c
		}
	} else if e.updateWeights != nil {
		return nil, fmt.Errorf("gossip: update weights must be non-negative with a positive sum")
	}

	// Roles: the adversary places its nodes, then obedient nodes are chosen
	// among the rest.
	e.roles = make([]Role, n)
	for i := range e.roles {
		e.roles[i] = RoleHonest
	}
	e.isAttacker = make([]bool, n)
	e.attackers = e.adv.Place(n, e.rng)
	for _, a := range e.attackers {
		if a < 0 || a >= n {
			return nil, fmt.Errorf("gossip: adversary placed node %d outside [0,%d)", a, n)
		}
		e.roles[a] = RoleAttacker
		e.isAttacker[a] = true
	}
	if cfg.ObedientFraction > 0 {
		honest := make([]int, 0, n)
		for v := 0; v < n; v++ {
			if !e.isAttacker[v] {
				honest = append(honest, v)
			}
		}
		k := int(cfg.ObedientFraction*float64(len(honest)) + 0.5)
		for _, idx := range e.rng.Child("obedient").SampleInts(len(honest), k) {
			e.roles[honest[idx]] = RoleObedient
		}
	}

	e.evicted = make([]bool, n)
	e.departed = make([]bool, n)
	e.presentSince = make([]int, n)
	e.delivered = make([]int, n)
	e.total = make([]int, n)
	e.deliveredIso = make([]int, n)
	e.totalIso = make([]int, n)
	e.deliveredSat = make([]int, n)
	e.totalSat = make([]int, n)
	e.perRoundHonest = make([]float64, cfg.Rounds)
	e.perRoundIsolated = make([]float64, cfg.Rounds)
	for i := range e.perRoundHonest {
		e.perRoundHonest[i] = -1
		e.perRoundIsolated[i] = -1
	}
	e.targetsByRound = make([]*attack.TargetSet, cfg.Rounds)
	e.initFlags = make([]bool, n)
	e.partners = make([]int, n)
	if cfg.TrackPerNode {
		e.nodeRound = make([][]int, n)
		for v := range e.nodeRound {
			e.nodeRound[v] = make([]int, cfg.Rounds)
		}
	}

	e.measStart = cfg.Warmup
	e.measEnd = cfg.Rounds - cfg.Lifetime
	if e.measEnd < e.measStart {
		return nil, fmt.Errorf("gossip: horizon too short: no update both released after warmup (%d) and expiring before round %d", cfg.Warmup, cfg.Rounds)
	}

	if cfg.ReportThreshold > 0 {
		kr, err := sign.NewKeyring(n, e.rng.Child("keys"))
		if err != nil {
			return nil, fmt.Errorf("gossip: keyring: %w", err)
		}
		e.keyring = kr
		board, err := defense.NewBoard(kr, cfg.ReportThreshold, cfg.EvictAfterReports)
		if err != nil {
			return nil, fmt.Errorf("gossip: board: %w", err)
		}
		e.board = board
	}
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Round returns the next round to be simulated.
func (e *Engine) Round() int { return e.round }

// Roles returns a copy of the per-node roles.
func (e *Engine) Roles() []Role {
	out := make([]Role, len(e.roles))
	copy(out, e.roles)
	return out
}

// Run simulates the full horizon and returns the result.
func (e *Engine) Run() (Result, error) {
	for e.round < e.cfg.Rounds {
		if err := e.Step(); err != nil {
			return Result{}, err
		}
	}
	return e.result(), nil
}

// Finished reports whether the horizon has been reached.
func (e *Engine) Finished() bool { return e.round >= e.cfg.Rounds }

// Snapshot returns the delivery statistics so far; its concrete type is
// Result. Together with Step and Finished it makes Engine a sim.Model.
func (e *Engine) Snapshot() (any, error) { return e.result(), nil }

// Step simulates one round: broadcast seeding, the ideal attacker's instant
// forwarding, the balanced-exchange phase, the optimistic-push phase,
// defense bookkeeping, and expiry accounting.
//
//lotus:allocfree
func (e *Engine) Step() error {
	if e.round >= e.cfg.Rounds {
		return fmt.Errorf("gossip: horizon of %d rounds exhausted", e.cfg.Rounds) //lotus:ignore allocfree cold guard, never taken in a steady-state round
	}
	// Lifecycle first: this round's departures and arrivals precede every
	// exchange, and the adversary learns of departures before its Targets
	// call below (a departed target's satiation leaves with it).
	for ev, ok := e.churn.Next(e.round); ok; ev, ok = e.churn.Next(e.round) {
		if ev.Join {
			e.joinNode(ev.Node)
		} else {
			e.leaveNode(ev.Node)
		}
	}
	targets := e.adv.Targets(e.round)
	if targets.Cap() != e.cfg.Nodes {
		return fmt.Errorf("gossip: adversary returned a target set over %d nodes, want %d", targets.Cap(), e.cfg.Nodes) //lotus:ignore allocfree cold guard against a misbehaving custom adversary
	}
	// Target sets are immutable per epoch, so storing the pointer per round
	// costs nothing: all rounds of one epoch share one set.
	e.targetsByRound[e.round] = targets

	e.seedUpdates()
	if e.advInstant {
		e.idealDeliver()
	}

	for _, p := range e.planBalanced() {
		e.execBalanced(p)
	}
	if e.cfg.PushSize > 0 {
		for _, p := range e.planPush() {
			e.execPush(p)
		}
	}

	e.applyEvictions()
	e.retireExpired()
	e.round++
	return nil
}

// leaveNode removes v from the population: its copies leave the network
// with it (holder bits cleared across live updates, O(live) per event),
// it stops initiating and answering exchanges, and the adversary is told
// so a reused index cannot inherit its satiation. Leaving twice is a
// no-op, so arbitrary traces replay safely.
//
//lotus:allocfree
func (e *Engine) leaveNode(v int) {
	if e.departed[v] {
		return
	}
	e.departed[v] = true
	for _, u := range e.live {
		u.holders[v] = false
	}
	sim.NotifyDeparture(e.adv, e.round, v)
}

// joinNode puts a fresh node on index v: empty holdings (leaveNode
// already cleared them), measured only against updates released from this
// round on. Joining while present is a no-op.
//
//lotus:allocfree
func (e *Engine) joinNode(v int) {
	if !e.departed[v] {
		return
	}
	e.departed[v] = false
	e.presentSince[v] = e.round
}

// takeHolders returns a zeroed length-Nodes holder array, recycling one
// retired with a past update when available, so steady-state rounds allocate
// no per-update O(Nodes) storage.
//
//lotus:allocfree
func (e *Engine) takeHolders() []bool {
	if k := len(e.holderPool); k > 0 {
		h := e.holderPool[k-1]
		e.holderPool = e.holderPool[:k-1]
		clear(h)
		return h
	}
	return make([]bool, e.cfg.Nodes) //lotus:allocsetup pool miss — only until Lifetime updates are in flight, then every round recycles
}

// seedUpdates releases this round's updates to random nodes, per Table 1.
//
//lotus:allocfree
func (e *Engine) seedUpdates() {
	rng := e.rng.ChildN("seed", e.round)
	for k := 0; k < e.cfg.UpdatesPerRound; k++ {
		//lotus:ignore allocfree one bounded record per released update — population-independent, inside the alloc test's constant budget
		u := &liveUpdate{
			id:       UpdateID{Round: e.round, Index: k},
			release:  e.round,
			deadline: e.round + e.cfg.Lifetime - 1,
			holders:  e.takeHolders(),
			measured: e.round >= e.measStart && e.round <= e.measEnd,
		}
		// Uniform demand seeds a fixed fan-out; with a popularity catalog
		// the update first draws its rank and seeds the rank's fan-out —
		// popular content starts wide, niche content narrow.
		copies := e.cfg.CopiesSeeded
		if e.copiesFor != nil {
			copies = e.copiesFor[rng.IntN(len(e.copiesFor))]
		}
		for _, v := range rng.SampleInts(e.cfg.Nodes, copies) {
			if e.departed[v] {
				continue // the copy lands on an empty seat and is lost
			}
			u.holders[v] = true
			if e.isAttacker[v] && !e.evicted[v] {
				u.pool = true
			}
		}
		e.live = append(e.live, u)
	}
}

// idealDeliver implements the ideal lotus-eater attack: every update seeded
// to at least one attacker node this round is forwarded instantly to all
// satiated targets, outside any exchange. Iterating the sparse member list
// makes this O(|satiated set|) per update, not O(Nodes).
//
//lotus:allocfree
func (e *Engine) idealDeliver() {
	targets := e.targetsByRound[e.round]
	sender := -1
	if len(e.attackers) > 0 {
		sender = e.attackers[0]
	}
	for _, u := range e.live {
		if u.release != e.round || !u.pool {
			continue
		}
		for _, v := range targets.Members() {
			if e.isAttacker[v] || e.departed[v] || u.holders[v] {
				continue
			}
			if e.roles[v] == RoleObedient && e.def != nil {
				if e.def.Admit(e.round, sender, v, 1) == 0 {
					continue
				}
			}
			u.holders[v] = true
			e.attackerSent++
		}
	}
}

// pairing is one planned interaction: initiator contacts partner.
type pairing struct {
	initiator int
	partner   int
}

// planBalanced decides who initiates a balanced exchange this round and
// with whom. Rational nodes initiate only when unsatiated; trade attackers
// always initiate; crash and ideal attackers never do.
//
//lotus:allocfree
func (e *Engine) planBalanced() []pairing {
	return e.plan("balanced", func(v int) bool {
		if e.isAttacker[v] {
			return e.advTrades
		}
		return e.lacksAnyLive(v, e.round)
	})
}

// planPush decides who initiates an optimistic push: rational nodes that
// are missing old, soon-to-expire updates; trade attackers always.
//
//lotus:allocfree
func (e *Engine) planPush() []pairing {
	oldCutoff := e.round - e.cfg.RecentWindow
	return e.plan("push", func(v int) bool {
		if e.isAttacker[v] {
			return e.advTrades
		}
		return e.lacksAnyLive(v, oldCutoff)
	})
}

// plan runs in two steps. The first is a per-node pass that decides
// whether v initiates this phase and, if so, draws its verifiable partner.
// It is a pure read of round state: the predicate reads holder bits, live
// deadlines and roles, and evicted/departed are fixed for all of plan —
// departures happen at the top of Step and evictions only in
// applyEvictions at round end. Partner is a pure function of (seed, label,
// round, initiator), and draws for distinct initiators are independent, so
// for large populations the pass shards across the worker pool with
// bit-identical results. The second step walks a seeded permutation in
// order and keeps the pairings whose partner is still in the system.
//
//lotus:allocfree
func (e *Engine) plan(label string, initiates func(v int) bool) []pairing {
	n := e.cfg.Nodes
	if e.evalParallel > 0 || (e.evalParallel == 0 && n >= evalParallelMinNodes) {
		sim.ParallelFor(n, 0, func(_, start, end int) {
			e.drawInitiators(label, initiates, start, end)
		})
	} else {
		e.drawInitiators(label, initiates, 0, n)
	}
	flags, partners := e.initFlags, e.partners
	order := e.rng.ChildN("order-"+label, e.round).PermInto(e.permBuf, n)
	e.permBuf = order
	pairs := e.pairBuf[:0]
	for _, v := range order {
		if !flags[v] {
			continue
		}
		p := partners[v]
		if e.evicted[p] || e.departed[p] {
			continue // the slot is wasted, like contacting a crashed node
		}
		pairs = append(pairs, pairing{initiator: v, partner: p})
	}
	e.pairBuf = pairs
	return pairs
}

// drawInitiators is plan's per-node pass over [start, end): it sets
// initFlags[v] for every node in the system that initiates, and draws
// partners[v] for each of them.
//
//lotus:allocfree
func (e *Engine) drawInitiators(label string, initiates func(v int) bool, start, end int) {
	for v := start; v < end; v++ {
		f := !e.evicted[v] && !e.departed[v] && initiates(v)
		e.initFlags[v] = f
		if f {
			e.partners[v] = sign.Partner(e.pseed, label, e.round, v, e.cfg.Nodes)
		}
	}
}

// lacksAnyLive reports whether v is missing any live update released no
// later than maxRelease. Pass the current round to ask "is v unsatiated?".
//
//lotus:allocfree
func (e *Engine) lacksAnyLive(v, maxRelease int) bool {
	for _, u := range e.live {
		if u.release <= maxRelease && u.deadline >= e.round && !u.holders[v] {
			return true
		}
	}
	return false
}

// applyEvictions makes report-board evictions effective at round end, so
// eviction timing does not depend on intra-round execution order.
//
//lotus:allocfree
func (e *Engine) applyEvictions() {
	if e.board == nil {
		return
	}
	for v := 0; v < e.cfg.Nodes; v++ {
		if !e.evicted[v] && e.board.Evicted(v) {
			e.evicted[v] = true
		}
	}
}

// retireExpired removes updates whose deadline has passed and accumulates
// delivery statistics for measured ones.
//
//lotus:allocfree
func (e *Engine) retireExpired() {
	keep := e.live[:0]
	var (
		roundDelivered, roundTotal       int
		roundIsoDelivered, roundIsoTotal int
	)
	for _, u := range e.live {
		if u.deadline > e.round {
			keep = append(keep, u)
			continue
		}
		if !u.measured {
			e.holderPool = append(e.holderPool, u.holders)
			continue
		}
		e.measuredUpdates++
		relTargets := e.targetsByRound[u.release]
		for v := 0; v < e.cfg.Nodes; v++ {
			if e.isAttacker[v] {
				continue
			}
			// Churn gates the denominator: a node counts toward an update's
			// delivery statistics only if it is still present and was
			// already present at release — nobody "misses" an update that
			// circulated while their seat was empty. All-false/zero without
			// churn, so the static path is untouched.
			if e.departed[v] || e.presentSince[v] > u.release {
				continue
			}
			got := u.holders[v]
			e.total[v]++
			if got {
				e.delivered[v]++
				if e.nodeRound != nil {
					e.nodeRound[v][u.release]++
				}
			}
			roundTotal++
			if got {
				roundDelivered++
			}
			if relTargets.Has(v) {
				e.totalSat[v]++
				if got {
					e.deliveredSat[v]++
				}
			} else {
				e.totalIso[v]++
				roundIsoTotal++
				if got {
					e.deliveredIso[v]++
					roundIsoDelivered++
				}
			}
		}
		if roundTotal > 0 {
			e.perRoundHonest[u.release] = float64(roundDelivered) / float64(roundTotal)
		}
		if roundIsoTotal > 0 {
			e.perRoundIsolated[u.release] = float64(roundIsoDelivered) / float64(roundIsoTotal)
		}
		e.holderPool = append(e.holderPool, u.holders)
	}
	// Drop references so retired updates can be collected.
	for i := len(keep); i < len(e.live); i++ {
		e.live[i] = nil
	}
	e.live = keep
}

func (e *Engine) result() Result {
	res := Result{
		Cfg:              e.cfg,
		MeasuredUpdates:  e.measuredUpdates,
		Isolated:         groupStats(e.deliveredIso, e.totalIso, e.cfg.UsableThreshold),
		Satiated:         groupStats(e.deliveredSat, e.totalSat, e.cfg.UsableThreshold),
		AllHonest:        groupStats(e.delivered, e.total, e.cfg.UsableThreshold),
		PerRoundHonest:   append([]float64(nil), e.perRoundHonest...),
		PerRoundIsolated: append([]float64(nil), e.perRoundIsolated...),
		Bandwidth: Bandwidth{
			UsefulSent:   e.usefulSent,
			JunkSent:     e.junkSent,
			AttackerSent: e.attackerSent,
		},
	}
	if e.board != nil {
		res.Evictions = e.board.EvictedCount()
	}
	if e.nodeRound != nil {
		res.NodeRoundDelivery = make([][]float64, e.cfg.Nodes)
		for v := range res.NodeRoundDelivery {
			fractions := make([]float64, e.cfg.Rounds)
			for r := range fractions {
				if e.isAttacker[v] || r < e.measStart || r > e.measEnd {
					fractions[r] = -1
					continue
				}
				fractions[r] = float64(e.nodeRound[v][r]) / float64(e.cfg.UpdatesPerRound)
			}
			res.NodeRoundDelivery[v] = fractions
		}
	}
	return res
}
