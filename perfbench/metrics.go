package main

import (
	_ "embed"
	"encoding/json"
)

// metricDef names one metric of the result line and its unit. The lists
// below are the metric catalogue of BENCHMARK.json; the smoke test checks
// that the two agree.
type metricDef struct{ name, unit string }

// substrates are the five simulated systems, in the order every workload
// visits them.
var substrates = []string{"gossip", "swarm", "token", "scrip", "coding"}

// endToEnd are the metrics of an untraced run, emitted by every workload.
// unit_ms.<sub> is the cost of the workload's unit of work on one
// substrate: a kernel round (scale), a replicate (sweep) or a job
// (service).
var endToEnd = func() []metricDef {
	defs := []metricDef{{"setup_s", "s"}, {"result_ms", "ms"}}
	for _, s := range substrates {
		defs = append(defs, metricDef{"unit_ms." + s, "ms"})
	}
	return defs
}()

// swarmPhases are the tick phases swarm.PhaseProfile attributes.
var swarmPhases = []string{"attack", "unchoke-score", "unchoke-select", "rarity", "transfer", "endgame", "lifecycle"}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, s := range substrates {
		defs = append(defs,
			metricDef{"sim.build_s." + s, "s"},
			metricDef{"sim.allocs_per_round." + s, "count"},
			metricDef{"sim.bytes_per_round." + s, "B"},
			metricDef{"sim.replicate_ms." + s, "ms"},
		)
	}
	defs = append(defs, metricDef{"sim.cpu_busy_frac", "fraction"})
	for _, ph := range swarmPhases {
		defs = append(defs, metricDef{"swarm.phase_ms." + ph, "ms"})
	}
	defs = append(defs,
		metricDef{"sign.partner_ns", "ns"},
		metricDef{"scenario.point_ms", "ms"},
		metricDef{"scenario.assemble_ms", "ms"},
		metricDef{"scenario.points", "count"},
		metricDef{"scenario.replicates", "count"},
		metricDef{"metrics.encode_ms", "ms"},
		metricDef{"metrics.artifact_bytes", "B"},
	)
	for _, k := range readKinds {
		defs = append(defs, metricDef{"serve.read_ms." + k, "ms"})
	}
	defs = append(defs,
		metricDef{"serve.submit_ms", "ms"},
		metricDef{"serve.queue_ms", "ms"},
		metricDef{"serve.cache_hits", "count"},
		metricDef{"serve.cache_misses", "count"},
		metricDef{"serve.cache_evictions", "count"},
		metricDef{"serve.store_hits", "count"},
		metricDef{"serve.store_misses", "count"},
		metricDef{"serve.store_gc_removed", "count"},
		metricDef{"serve.mem_hit_frac", "fraction"},
		metricDef{"cluster.unit_rtt_ms.p50", "ms"},
		metricDef{"cluster.unit_rtt_ms.p90", "ms"},
		metricDef{"cluster.store_rtt_ms", "ms"},
		metricDef{"cluster.units_per_job", "count"},
		metricDef{"cluster.unit_retries", "count"},
		metricDef{"cluster.unit_steals", "count"},
		metricDef{"trace.overhead_ms", "ms"},
	)
	return defs
}()

// zeroLayers returns a per-layer map with every metric at 0, for a
// workload to fill in the layers it exercises.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// sizes are a run's problem sizes.
type sizes struct {
	// scale: population of each substrate's replicate.
	scaleNodes map[string]int
	// sweep: replicate and sweep-point overrides (0 = registry settings).
	sweepReplicates, sweepPoints int
	// service: keys pre-filled into the store.
	prefill int
}

var productionSizes = sizes{
	scaleNodes: map[string]int{"gossip": 100_000, "swarm": 1_000_000, "token": 100_000, "scrip": 100_000, "coding": 100_000},
	prefill:    64,
}

// defaultSeed is the seed whose outputs are pinned in pins.json.
const defaultSeed = 1

//go:embed pins.json
var pinsJSON []byte

// pinned maps "<workload>/<item>" to the output digest expected for the
// default seed at production sizes.
var pinned = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(pinsJSON, &m); err != nil {
		panic("perfbench: pins.json: " + err.Error())
	}
	return m
}()

// checkPin compares a produced digest against its pin, if one applies.
func (o *outcome) checkPin(pins map[string]string, key, got string) {
	if pins == nil {
		return
	}
	want, ok := pins[key]
	switch {
	case !ok:
		o.fail("%s: no pinned digest (got %s)", key, got)
	case want != got:
		o.fail("%s: digest %s, pinned %s", key, got, want)
	}
}
