package lotuseater

// One benchmark per table and figure of the paper, plus the extension
// experiments E1-E9 from DESIGN.md. Each bench regenerates its artifact at
// reduced sweep quality (the full-fidelity versions live behind `lotus-sim
// figures -quality full`) and reports a headline reproduction metric via
// b.ReportMetric, so `go test -bench=.` doubles as a quick sanity pass over
// the whole reproduction.

import (
	"testing"

	"lotuseater/internal/gossip"
)

func benchQ() Quality { return Quality{Points: 4, Seeds: 1} }

// BenchmarkTable1Defaults measures a single simulation at the paper's
// Table 1 parameters — the cost of one data point in every figure.
func BenchmarkTable1Defaults(b *testing.B) {
	cfg := DefaultGossipConfig()
	var last float64
	for i := 0; i < b.N; i++ {
		eng, err := gossip.New(cfg, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = res.AllHonest.MeanDelivery
	}
	b.ReportMetric(last, "delivery")
}

func BenchmarkFigure1(b *testing.B) {
	var crossover float64
	for i := 0; i < b.N; i++ {
		series := must(Figure1(uint64(i), benchQ()))(b)
		if x, ok := series[2].CrossoverBelow(0.93); ok {
			crossover = x
		}
	}
	b.ReportMetric(crossover, "trade-crossover")
}

func BenchmarkFigure2(b *testing.B) {
	var crossover float64
	for i := 0; i < b.N; i++ {
		series := must(Figure2(uint64(i), benchQ()))(b)
		if x, ok := series[1].CrossoverBelow(0.93); ok {
			crossover = x
		}
	}
	b.ReportMetric(crossover, "ideal-crossover")
}

func BenchmarkFigure3(b *testing.B) {
	var y float64
	for i := 0; i < b.N; i++ {
		series := must(Figure3(uint64(i), benchQ()))(b)
		y = series[3].YAt(0.35) // push4+slack curve at 35% attackers
	}
	b.ReportMetric(y, "defended-delivery")
}

func BenchmarkTokenAltruism(b *testing.B) {
	var y float64
	for i := 0; i < b.N; i++ {
		s := must(AltruismExperiment(uint64(i), benchQ()))(b)
		y = s.Points[len(s.Points)-1].Y
	}
	b.ReportMetric(y, "completion-at-max-a")
}

func BenchmarkGridCut(b *testing.B) {
	var coverage float64
	for i := 0; i < b.N; i++ {
		rows := must(GridCutExperiment(uint64(i)))(b)
		for _, r := range rows {
			if r.Topology == "grid/column-cut" {
				coverage = r.RareTokenCoverage
			}
		}
	}
	b.ReportMetric(coverage, "cut-coverage")
}

func BenchmarkRareToken(b *testing.B) {
	var denied float64
	for i := 0; i < b.N; i++ {
		s := must(RareTokenExperiment(uint64(i), benchQ()))(b)
		denied = s.Points[0].Y
	}
	b.ReportMetric(denied, "completion-at-a0")
}

func BenchmarkScripSatiation(b *testing.B) {
	var y float64
	for i := 0; i < b.N; i++ {
		s := must(ScripMoneySupplyExperiment(uint64(i), benchQ()))(b)
		y = s.Points[len(s.Points)-1].Y
	}
	b.ReportMetric(y, "satiated-at-max-f")
}

func BenchmarkScripRareProvider(b *testing.B) {
	var y float64
	for i := 0; i < b.N; i++ {
		series := must(ScripRareProviderExperiment(uint64(i), benchQ()))(b)
		y = series[0].Points[0].Y
	}
	b.ReportMetric(y, "attacked-availability")
}

func BenchmarkSwarmAttack(b *testing.B) {
	var completed float64
	for i := 0; i < b.N; i++ {
		rows := must(SwarmExperiment(uint64(i), 1))(b)
		for _, r := range rows {
			if r.Scenario == "fragile/rare-attack/rarest-first" {
				completed = r.CompletedFraction
			}
		}
	}
	b.ReportMetric(completed, "attacked-completion")
}

func BenchmarkCodingDefense(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		series := must(CodingExperiment(uint64(i), benchQ()))(b)
		last := len(series[0].Points) - 1
		gap = series[1].Points[last].Y - series[0].Points[last].Y
	}
	b.ReportMetric(gap, "coded-minus-plain")
}

func BenchmarkReportingDefense(b *testing.B) {
	var evictions float64
	for i := 0; i < b.N; i++ {
		series := must(ReportingExperiment(uint64(i), benchQ()))(b)
		evictions = series[1].Points[len(series[1].Points)-1].Y
	}
	b.ReportMetric(evictions, "evictions-at-full-obedience")
}

func BenchmarkRateLimit(b *testing.B) {
	var recovered float64
	for i := 0; i < b.N; i++ {
		series := must(RateLimitExperiment(uint64(i), benchQ()))(b)
		recovered = series[0].Points[1].Y - series[0].Points[0].Y
	}
	b.ReportMetric(recovered, "delivery-recovered-by-cap1")
}

func BenchmarkRotatingAttack(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		rows := must(RotatingExperiment(uint64(i), 20))(b)
		spread = rows[1].NodesWithOutage - rows[0].NodesWithOutage
	}
	b.ReportMetric(spread, "outage-spread")
}

func BenchmarkScripInflation(b *testing.B) {
	var cliff float64
	for i := 0; i < b.N; i++ {
		s := must(ScripInflationExperiment(uint64(i), benchQ()))(b)
		cliff = s.Points[len(s.Points)-1].Y
	}
	b.ReportMetric(cliff, "availability-past-cliff")
}

func BenchmarkScripHoarding(b *testing.B) {
	var y float64
	for i := 0; i < b.N; i++ {
		s := must(ScripHoardingExperiment(uint64(i), benchQ()))(b)
		y = s.Points[len(s.Points)-1].Y
	}
	b.ReportMetric(y, "availability-at-max-hoarders")
}

func BenchmarkSatiateAblation(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		series := must(SatiateFractionAblation(uint64(i), benchQ()))(b)
		for _, p := range series[1].Points {
			if p.Y > peak {
				peak = p.Y
			}
		}
	}
	b.ReportMetric(peak, "peak-victims")
}

// Registry-driven benchmarks: one per simulator, each running its
// representative experiment through the registry exactly as `lotus-sim run`
// would. They baseline the full named-experiment path (registry lookup,
// kernel worker pool, artifact assembly) so future perf PRs have a
// like-for-like number to beat per backend.

func benchRegistry(b *testing.B, name string) {
	b.Helper()
	q := Quality{Points: 4, Seeds: 1}
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment(name, uint64(i), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegistryGossip(b *testing.B)     { benchRegistry(b, "figure1") }
func BenchmarkRegistryTokenModel(b *testing.B) { benchRegistry(b, "raretoken") }
func BenchmarkRegistryScrip(b *testing.B)      { benchRegistry(b, "scrip-money-supply") }
func BenchmarkRegistrySwarm(b *testing.B)      { benchRegistry(b, "swarm") }
func BenchmarkRegistryCoding(b *testing.B)     { benchRegistry(b, "coding") }
