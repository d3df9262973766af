// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload, checks the program's outputs, and prints one JSON result line.
// From the root of the repository:
//
//	sh perfbench/run.sh --workload scale|sweep|service --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end
// metrics of BENCHMARK.json, measured with no tracing or profiling
// installed. With --trace 1 the run measures the workload twice, untraced
// and then traced, prints the per-layer metrics taken from the traced
// half's spans, and writes those spans to .bench_build/spans/. Every layer
// is measured from outside, by timing calls into its public functions.
// README.md in this directory describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// params is what a workload run receives: the seed its inputs derive from,
// how long its timed phase lasts, and the problem sizes (production sizes
// for the benchmark, tiny ones for the smoke test).
type params struct {
	seed    uint64
	seconds time.Duration
	sizes   sizes
	// pins are the outputs expected for the default seed at production
	// sizes, keyed "<workload>/<item>"; nil skips the pinned comparison.
	pins map[string]string
}

// outcome is what one workload run measured and checked.
type outcome struct {
	// e2e holds the end-to-end metrics (untraced runs).
	e2e map[string]float64
	// layer holds the per-layer metrics (traced runs).
	layer map[string]float64
	// primary is the figure the tracing overhead is reported on: the
	// workload's headline time per unit of work, in ms.
	primary float64
	// attempted counts the operations run and checked; problems names
	// every one that failed or produced a wrong output.
	attempted int
	problems  []string
	// env holds facts recorded next to the result, such as the swarm's
	// resident bytes.
	env map[string]any
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// merge folds a second run's counts and problems into o.
func (o *outcome) merge(p outcome) {
	o.attempted += p.attempted
	o.problems = append(o.problems, p.problems...)
	for k, v := range p.env {
		if o.env == nil {
			o.env = map[string]any{}
		}
		o.env[k] = v
	}
}

type workloadFunc func(p params, tr *tracer) outcome

var workloads = map[string]workloadFunc{
	"scale":   runScale,
	"sweep":   runSweep,
	"service": runService,
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: scale, sweep or service")
	seed := flag.Uint64("seed", defaultSeed, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced end-to-end run")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload scale|sweep|service, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: time.Duration(*seconds) * time.Second, sizes: productionSizes}
	if *seed == defaultSeed {
		p.pins = pinned
	}
	res, env, spans, err := execute(*workload, run, p, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if spans != nil {
		path, err := spans.writeFile(*workload, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", spans.len(), path)
	}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs the workload and renders the result line. A traced run
// measures the workload untraced for the first half of its time and traced
// for the second: per-layer metrics come only from the traced half, and
// trace.overhead_ms is the traced half's primary figure minus the
// untraced half's.
func execute(name string, run workloadFunc, p params, traced bool) (result, map[string]any, *tracer, error) {
	var out outcome
	var tr *tracer
	var defs []metricDef
	if traced {
		defs = perLayer
		half := p
		half.seconds = p.seconds / 2
		base := run(half, nil)
		tr = newTracer()
		out = run(half, tr)
		out.merge(base)
		if out.layer != nil {
			out.layer["trace.overhead_ms"] = out.primary - base.primary
		}
	} else {
		defs = endToEnd
		out = run(p, nil)
	}
	for _, msg := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
	}
	values := out.e2e
	if traced {
		values = out.layer
	}
	res := result{
		Attempted: out.attempted,
		Failed:    len(out.problems),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return result{}, nil, nil, fmt.Errorf("%s emitted no value for %v", name, missing)
	}
	if res.Attempted < 1 {
		return result{}, nil, nil, fmt.Errorf("%s attempted no operations", name)
	}
	res.Correct = res.Failed == 0
	env := environment()
	env["workload"] = name
	env["seed"] = p.seed
	env["seconds"] = p.seconds.Seconds()
	env["peak_rss_mb"] = peakRSSMB()
	for k, v := range out.env {
		env[k] = v
	}
	return res, env, tr, nil
}
