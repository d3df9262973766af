package lotuseater

import (
	"testing"
)

// The experiment drivers are the integration suite: each test runs a
// reduced-quality sweep end to end and asserts the paper's qualitative
// claims (orderings and directions, not absolute values).

func quickQ() Quality { return Quality{Points: 5, Seeds: 1} }

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	want := map[string]string{
		"Number of Nodes":       "250",
		"Updates per Round":     "10",
		"Update Lifetime (rds)": "10",
		"Copies Seeded":         "12",
		"Opt. Push Size (upd)":  "2",
	}
	for _, row := range rows[1:] {
		if want[row[0]] != row[1] {
			t.Fatalf("Table 1 row %q = %q, want %q", row[0], row[1], want[row[0]])
		}
		delete(want, row[0])
	}
	if len(want) != 0 {
		t.Fatalf("Table 1 missing rows: %v", want)
	}
}

func TestFigure1Ordering(t *testing.T) {
	series := must(Figure1(1, quickQ()))(t)
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	crash, ideal, trade := series[0], series[1], series[2]
	// At x = 0 all three agree on the healthy baseline.
	for _, s := range series {
		if s.Points[0].Y < 0.95 {
			t.Fatalf("%s baseline %.4f", s.Name, s.Points[0].Y)
		}
	}
	// Attack severity ordering at mid-sweep.
	x := crash.Points[2].X
	if !(ideal.YAt(x) < trade.YAt(x) && trade.YAt(x) < crash.YAt(x)) {
		t.Fatalf("ordering violated at x=%.2f: ideal %.3f, trade %.3f, crash %.3f",
			x, ideal.YAt(x), trade.YAt(x), crash.YAt(x))
	}
	// All curves decrease overall.
	for _, s := range series {
		first, last := s.Points[0].Y, s.Points[len(s.Points)-1].Y
		if last >= first {
			t.Fatalf("%s does not degrade: %.3f -> %.3f", s.Name, first, last)
		}
	}
}

func TestFigure2BluntsAttacks(t *testing.T) {
	q := quickQ()
	fig1 := must(Figure1(2, q))(t)
	fig2 := must(Figure2(2, q))(t)
	// Larger pushes help the isolated nodes against the ideal attack at
	// every interior point.
	x := fig1[1].Points[2].X
	if fig2[1].YAt(x) <= fig1[1].YAt(x) {
		t.Fatalf("push 10 did not blunt ideal attack at x=%.2f: %.4f vs %.4f",
			x, fig2[1].YAt(x), fig1[1].YAt(x))
	}
}

func TestFigure3UnbalancedHelps(t *testing.T) {
	series := must(Figure3(3, quickQ()))(t)
	if len(series) != 4 {
		t.Fatalf("%d series", len(series))
	}
	balanced2, unbalanced2, balanced4, unbalanced4 := series[0], series[1], series[2], series[3]
	x := balanced2.Points[3].X
	if unbalanced2.YAt(x) <= balanced2.YAt(x) {
		t.Fatalf("slack at push 2 did not help at x=%.2f", x)
	}
	// The combined change (push 4 + slack) beats plain push 2.
	if unbalanced4.YAt(x) <= balanced2.YAt(x) {
		t.Fatalf("combined defense did not help at x=%.2f", x)
	}
	_ = balanced4
}

func TestAltruismExperimentMonotoneEnds(t *testing.T) {
	s := must(AltruismExperiment(4, quickQ()))(t)
	first := s.Points[0].Y
	last := s.Points[len(s.Points)-1].Y
	if last <= first {
		t.Fatalf("altruism did not improve completion: %.3f -> %.3f", first, last)
	}
	if last < 0.9 {
		t.Fatalf("high altruism completion %.3f", last)
	}
}

func TestGridCutExperimentShowsBarrier(t *testing.T) {
	rows := must(GridCutExperiment(5))(t)
	byName := map[string]GridCutResult{}
	for _, r := range rows {
		byName[r.Topology] = r
	}
	gridBase := byName["grid/no-attack"]
	gridCut := byName["grid/column-cut"]
	rndBase := byName["random/no-attack"]
	rndHit := byName["random/same-size-target"]

	if gridCut.RareTokenCoverage > 0.60 {
		t.Fatalf("cut did not pin coverage: %.3f", gridCut.RareTokenCoverage)
	}
	if gridBase.RareTokenCoverage < gridCut.RareTokenCoverage+0.2 {
		t.Fatalf("cut indistinct from baseline: %.3f vs %.3f",
			gridBase.RareTokenCoverage, gridCut.RareTokenCoverage)
	}
	if rndHit.RareTokenCoverage < 0.95 || rndBase.RareTokenCoverage < 0.95 {
		t.Fatalf("random graph affected by same-size attack: %.3f / %.3f",
			rndBase.RareTokenCoverage, rndHit.RareTokenCoverage)
	}
}

func TestRareTokenExperimentAltruismRescues(t *testing.T) {
	s := must(RareTokenExperiment(6, quickQ()))(t)
	if s.Points[0].Y > 0.1 {
		t.Fatalf("a=0 rare-token denial failed: completion %.3f", s.Points[0].Y)
	}
	last := s.Points[len(s.Points)-1].Y
	if last < 0.9 {
		t.Fatalf("altruism did not rescue: %.3f", last)
	}
}

func TestScripMoneySupplyBound(t *testing.T) {
	s := must(ScripMoneySupplyExperiment(7, quickQ()))(t)
	// Satiated fraction collapses as the targeted fraction grows.
	small := s.Points[1].Y
	big := s.Points[len(s.Points)-1].Y
	if big >= small {
		t.Fatalf("satiation did not collapse with scale: %.3f -> %.3f", small, big)
	}
	if big > 0.5 {
		t.Fatalf("earned-budget attacker satiated %.3f of a large target set", big)
	}
}

func TestScripRareProviderDenial(t *testing.T) {
	series := must(ScripRareProviderExperiment(8, quickQ()))(t)
	attacked, defended := series[0], series[1]
	last := len(attacked.Points) - 1
	// A well-funded attack collapses specialty availability relative to the
	// unattacked baseline (budget 0).
	if attacked.Points[last].Y >= attacked.Points[0].Y-0.3 {
		t.Fatalf("budget %.0f did not collapse availability: %.3f vs baseline %.3f",
			attacked.Points[last].X, attacked.Points[last].Y, attacked.Points[0].Y)
	}
	// Harm grows with budget.
	if attacked.Points[last].Y >= attacked.Points[2].Y {
		t.Fatalf("harm not increasing in budget: %.3f at %.0f vs %.3f at %.0f",
			attacked.Points[2].Y, attacked.Points[2].X, attacked.Points[last].Y, attacked.Points[last].X)
	}
	// Altruists blunt the attack at every budget.
	if defended.Points[last].Y < 0.8 {
		t.Fatalf("altruists did not defend: %.3f", defended.Points[last].Y)
	}
}

func TestSwarmExperimentClaims(t *testing.T) {
	rows := must(SwarmExperiment(9, 2))(t)
	byName := map[string]SwarmRow{}
	for _, r := range rows {
		byName[r.Scenario] = r
	}
	base := byName["baseline/rarest-first"]
	top := byName["attack-top-uploaders"]
	if base.CompletedFraction < 0.99 {
		t.Fatalf("baseline swarm completed %.3f", base.CompletedFraction)
	}
	// "Often actually a net benefit": the attack must not slow the swarm.
	if top.MeanCompletionTick > base.MeanCompletionTick*1.1 {
		t.Fatalf("top-uploader attack slowed the swarm: %.1f vs %.1f",
			top.MeanCompletionTick, base.MeanCompletionTick)
	}
	// The rare-piece attack "does significantly less damage" than a crash
	// of comparable scale would: completion stays high under both policies.
	for _, name := range []string{"fragile/rare-attack/rarest-first", "fragile/rare-attack/random"} {
		if byName[name].CompletedFraction < 0.8 {
			t.Fatalf("%s completed %.3f", name, byName[name].CompletedFraction)
		}
	}
}

func TestCodingExperimentDefends(t *testing.T) {
	series := must(CodingExperiment(10, quickQ()))(t)
	plain, coded := series[0], series[1]
	lastIdx := len(plain.Points) - 1
	if plain.Points[lastIdx].Y > 0.75 {
		t.Fatalf("plain mode survived rare-holder satiation: %.3f", plain.Points[lastIdx].Y)
	}
	if coded.Points[lastIdx].Y < 0.85 {
		t.Fatalf("coded mode degraded: %.3f", coded.Points[lastIdx].Y)
	}
	if coded.Points[lastIdx].Y <= plain.Points[lastIdx].Y {
		t.Fatal("coding did not beat plain under attack")
	}
}

func TestReportingExperimentEvicts(t *testing.T) {
	series := must(ReportingExperiment(11, quickQ()))(t)
	delivery, evictions := series[0], series[1]
	if evictions.Points[0].Y != 0 {
		t.Fatalf("evictions with zero obedience: %g", evictions.Points[0].Y)
	}
	last := len(evictions.Points) - 1
	if evictions.Points[last].Y < 50 {
		t.Fatalf("full obedience evicted only %g of ~75 attackers", evictions.Points[last].Y)
	}
	if delivery.Points[last].Y < delivery.Points[0].Y-0.02 {
		t.Fatalf("reporting made things notably worse: %.4f -> %.4f",
			delivery.Points[0].Y, delivery.Points[last].Y)
	}
}

func TestRateLimitExperimentDefends(t *testing.T) {
	series := must(RateLimitExperiment(12, quickQ()))(t)
	attacked, clean := series[0], series[1]
	// Cap 1 (index 1) must beat no cap (index 0) under attack.
	if attacked.Points[1].Y <= attacked.Points[0].Y {
		t.Fatalf("cap 1 (%.4f) did not beat cap 0 (%.4f)",
			attacked.Points[1].Y, attacked.Points[0].Y)
	}
	// The excess-based limiter must not hurt the healthy system.
	for _, p := range clean.Points {
		if p.Y < 0.95 {
			t.Fatalf("healthy delivery %.4f at cap %g", p.Y, p.X)
		}
	}
}

func TestRotatingExperimentSpreadsOutages(t *testing.T) {
	rows := must(RotatingExperiment(13, 20))(t)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	staticArm, rotating := rows[0], rows[1]
	if rotating.NodesWithOutage <= staticArm.NodesWithOutage {
		t.Fatalf("rotation did not spread outages: %.3f vs %.3f",
			rotating.NodesWithOutage, staticArm.NodesWithOutage)
	}
	if rotating.NodesWithOutage < 0.5 {
		t.Fatalf("rotating attack reached only %.3f of nodes", rotating.NodesWithOutage)
	}
}

// must fails tb on a driver error and returns the driver's result:
// must(Figure1(seed, q))(t).
func must[T any](v T, err error) func(testing.TB) T {
	return func(tb testing.TB) T {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return v
	}
}

func TestFacadeConstructors(t *testing.T) {
	cfg := DefaultGossipConfig()
	cfg.Nodes = 50
	cfg.Rounds = 30
	cfg.Warmup = 5
	for _, adv := range []*AttackStrategy{nil, {Kind: AttackTrade, Fraction: 0.2, SatiateFraction: 0.7}} {
		eng, err := NewGossip(cfg, 1, adv, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if attacked := res.Bandwidth.AttackerSent > 0; attacked != (adv != nil) {
			t.Fatalf("adversary %+v: attacker bandwidth %d", adv, res.Bandwidth.AttackerSent)
		}
	}

	tm, err := NewTokenModel(TokenModelConfig{
		Graph:    CompleteGraph(20),
		Tokens:   4,
		Contacts: 2,
		Rounds:   10,
	}, 2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Run(); err != nil {
		t.Fatal(err)
	}

	sc, err := NewScrip(DefaultScripConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if sc.MoneySupply() == 0 {
		t.Fatal("scrip supply zero")
	}

	swCfg := DefaultSwarmConfig()
	swCfg.Leechers = 20
	swCfg.Pieces = 16
	swCfg.Ticks = 100
	sw, err := NewSwarm(swCfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Run(); err != nil {
		t.Fatal(err)
	}

	ds, err := NewDissemination(DisseminationConfig{
		Graph:       RandomGraph(30, 0.2, 7),
		Symbols:     5,
		PayloadSize: 8,
		Contacts:    2,
		Rounds:      20,
		Coded:       true,
	}, 5, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Run(); err != nil {
		t.Fatal(err)
	}

	if GridGraph(3, 3).N() != 9 {
		t.Fatal("grid facade broken")
	}
}

func TestQualityNormalize(t *testing.T) {
	q := Quality{}.Normalize()
	if q.Points < 2 || q.Seeds < 1 {
		t.Fatalf("normalize gave %+v", q)
	}
	if FullQuality().Points <= QuickQuality().Points {
		t.Fatal("full quality not larger than quick")
	}
}

func TestInflationExperimentCliff(t *testing.T) {
	s := must(ScripInflationExperiment(14, quickQ()))(t)
	last := s.Points[len(s.Points)-1]
	if last.Y != 0 {
		t.Fatalf("economy survived %g/capita inflation: %.3f", last.X, last.Y)
	}
	// Mild inflation helps before the cliff.
	if s.Points[1].Y <= s.Points[0].Y {
		t.Fatalf("mild inflation did not help: %.3f -> %.3f", s.Points[0].Y, s.Points[1].Y)
	}
}

func TestHoardingExperimentMonotone(t *testing.T) {
	s := must(ScripHoardingExperiment(15, quickQ()))(t)
	first, last := s.Points[0].Y, s.Points[len(s.Points)-1].Y
	if last >= first-0.3 {
		t.Fatalf("hoarding did not crash availability: %.3f -> %.3f", first, last)
	}
}

func TestSatiateFractionAblation(t *testing.T) {
	series := must(SatiateFractionAblation(16, Quality{Points: 6, Seeds: 2}))(t)
	delivery, victims := series[0], series[1]
	// Per-victim damage grows with the satiated fraction...
	first, last := delivery.Points[0].Y, delivery.Points[len(delivery.Points)-1].Y
	if last >= first {
		t.Fatalf("delivery did not fall with satiation: %.3f -> %.3f", first, last)
	}
	// ...but the victim count has an interior maximum: both endpoints are
	// below the peak.
	peak := 0.0
	for _, p := range victims.Points {
		if p.Y > peak {
			peak = p.Y
		}
	}
	if victims.Points[0].Y >= peak || victims.Points[len(victims.Points)-1].Y >= peak {
		t.Fatalf("victim count not interior-peaked: ends %.1f/%.1f, peak %.1f",
			victims.Points[0].Y, victims.Points[len(victims.Points)-1].Y, peak)
	}
}
