package tokenmodel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/defense"
	"lotuseater/internal/graph"
	"lotuseater/internal/population"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// parityNodes spans three sim.DefaultGrain shards, so the sharded snapshot
// and merge passes really split, with a full last shard.
const parityNodes = 3 * sim.DefaultGrain

// parityChurn is a deterministic lifecycle schedule touching every round:
// departures and rejoins spread over the whole population (attacker slots
// included).
func parityChurn(n, rounds int) []population.Event {
	var churn []population.Event
	for r := 1; r < rounds; r++ {
		for k := 0; k < 64; k++ {
			churn = append(churn, population.Event{Round: r, Node: (r*7919 + k*104729) % n, Join: (r+k)%3 == 0})
		}
	}
	return churn
}

// resultDigest hashes the %+v rendering of a result: every field, every
// float printed in full.
func resultDigest(res any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
	return hex.EncodeToString(sum[:])
}

// TestMultiShardParity pins the token model's results at a multi-shard
// population against digests recorded from the purely sequential round
// loop. The sharded snapshot/clear/sat and merge/completed/count passes
// must reproduce them bit for bit: they draw no randomness and each shard
// writes only its own node range, so nothing may depend on how the range
// is split.
func TestMultiShardParity(t *testing.T) {
	n := parityNodes
	g := graph.RandomRegularish(n, 4, simrng.New(7).Child("graph"))
	base := Config{Graph: g, Tokens: 24, Contacts: 2, Rounds: 30}
	altruistic := base
	altruistic.Altruism = 0.2
	churned := base
	churned.Churn = parityChurn(n, base.Rounds)
	var cut []int
	for v := 0; v < n; v += 7 {
		cut = append(cut, v)
	}
	cases := []struct {
		name string
		cfg  Config
		opts func() []Option
		want string
	}{
		{"trade+limit", base, func() []Option {
			return []Option{
				WithAdversary(&attack.Strategy{Kind: attack.Trade, Fraction: 0.10, SatiateFraction: 0.50}),
				WithDefense(defense.NewLimit(2)),
			}
		}, "a2b48afd536cb406d7034c02d4cb82b6fd8f8e90f219d4ccdd9b8d1a3906a0fb"},
		{"ideal+targetlist", altruistic, func() []Option {
			return []Option{WithAdversary(&attack.Strategy{Kind: attack.Ideal, Fraction: 0.05, TargetList: cut})}
		}, "805354049efffb76468830dd9777543697875c444d5746576d811e6f47602af6"},
		{"churn", churned, func() []Option {
			return []Option{WithAdversary(&attack.Strategy{Kind: attack.Trade, Fraction: 0.10, SatiateFraction: 0.50})}
		}, "647287725097558df8247a643140b27b0eccb05923e4c5ac0a8e6ab4822b11a6"},
	}
	for _, c := range cases {
		s, err := New(c.cfg, 31, c.opts()...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(res); got != c.want {
			t.Errorf("%s: result digest %s, want %s", c.name, got, c.want)
		}
	}
}
