package gossip

// UpdateID identifies one broadcast update: the Index-th update released in
// round Round.
type UpdateID struct {
	Round int
	Index int
}

// Key packs the id into a uint64 for receipts and map keys.
func (u UpdateID) Key() uint64 {
	return uint64(uint32(u.Round))<<32 | uint64(uint32(u.Index))
}

// liveUpdate is the engine's record of an update that has not yet expired.
type liveUpdate struct {
	id       UpdateID
	release  int
	deadline int // last round (inclusive) the update is useful
	// holders[v] reports whether node v currently holds the update.
	holders []bool
	// pool is true once any attacker node holds the update; trade attackers
	// collude and give from the shared pool.
	pool bool
	// measured is true when the update counts toward delivery statistics
	// (released after warmup and expiring within the horizon).
	measured bool
}

// needsFrom collects the live updates dst lacks that src holds and can
// offer. It is the hot inner loop of the simulator, so it works on the
// engine's live slice directly, appends into the slot-th pooled needs
// buffer (each exec uses at most two needs-shaped buffers at once, hence
// two slots), and takes the offering side as a plain node id — a predicate
// closure here would allocate once per exchange, O(Nodes) per round.
//
//lotus:allocfree
func (e *Engine) needsFrom(dst, src int, slot int) []int {
	out := e.needScratch[slot][:0]
	for idx, u := range e.live {
		if u.deadline < e.round {
			continue
		}
		if !u.holders[dst] && u.holders[src] {
			out = append(out, idx)
		}
	}
	e.needScratch[slot] = out
	return out
}

// give transfers the updates at the given live indices to node dst,
// returning how many were newly received.
//
//lotus:allocfree
func (e *Engine) give(indices []int, dst int) int {
	got := 0
	for _, idx := range indices {
		u := e.live[idx]
		if !u.holders[dst] {
			u.holders[dst] = true
			got++
		}
	}
	return got
}

// updateKeys maps live indices to UpdateID keys (for signed receipts).
func (e *Engine) updateKeys(indices []int) []uint64 {
	out := make([]uint64, len(indices))
	for k, idx := range indices {
		out[k] = e.live[idx].id.Key()
	}
	return out
}
