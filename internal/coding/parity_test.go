package coding

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/graph"
	"lotuseater/internal/population"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// TestPlainMultiShardParity pins a plain-mode run at a population of three
// sim.DefaultGrain shards, with a trade adversary and churn, against the
// digest of its %+v rendering recorded before the round scratch moved onto
// the struct. Reused candidate, transfer and sample buffers must not change
// a single draw.
func TestPlainMultiShardParity(t *testing.T) {
	const n = 3 * sim.DefaultGrain
	cfg := DisseminationConfig{
		Graph:       graph.RandomRegularish(n, 4, simrng.New(7).Child("graph")),
		Symbols:     16,
		PayloadSize: 8,
		Contacts:    2,
		Rounds:      30,
	}
	for r := 1; r < cfg.Rounds; r++ {
		for k := 0; k < 64; k++ {
			cfg.Churn = append(cfg.Churn, population.Event{Round: r, Node: (r*7919 + k*104729) % n, Join: (r+k)%3 == 0})
		}
	}
	adv := &attack.Strategy{Kind: attack.Trade, Fraction: 0.10, SatiateFraction: 0.50}
	d, err := NewDissemination(cfg, 31, nil, WithAdversary(adv))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
	const want = "8d4a6b4f99750583bc7a8e9cbd2f29067f82942ee050a290e460aa723e6548da"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("result digest %s, want %s\n%+v", got, want, res)
	}
}
