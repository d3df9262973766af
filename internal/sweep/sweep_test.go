package sweep

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"lotuseater/internal/metrics"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

func mustRun(t *testing.T, cfg Config, seed uint64, fn PointFunc) *metrics.Series {
	t.Helper()
	s, err := Run(cfg, seed, fn)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Name: "det", Xs: Range(0, 1, 7), Seeds: 3, Workers: 4}
	fn := func(x float64, rng *simrng.Source, _ *sim.Workspace) (float64, error) {
		return x + float64(rng.Uint64()%1000)/1000, nil
	}
	a := mustRun(t, cfg, 42, fn)
	b := mustRun(t, cfg, 42, fn)
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs: %v vs %v", i, a.Points[i], b.Points[i])
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	fn := func(x float64, rng *simrng.Source, _ *sim.Workspace) (float64, error) {
		return x*1000 + float64(rng.IntN(100)), nil
	}
	one := mustRun(t, Config{Xs: Range(0, 1, 5), Seeds: 4, Workers: 1}, 7, fn)
	many := mustRun(t, Config{Xs: Range(0, 1, 5), Seeds: 4, Workers: 8}, 7, fn)
	for i := range one.Points {
		if one.Points[i] != many.Points[i] {
			t.Fatalf("worker count changed results at point %d", i)
		}
	}
}

func TestRunAveragesSeeds(t *testing.T) {
	// fn returns the replicate index via a counter; the mean of 0..3 is 1.5
	// only if all four replicates ran.
	var calls atomic.Int64
	s := mustRun(t, Config{Xs: []float64{1}, Seeds: 4}, 1, func(x float64, _ *simrng.Source, _ *sim.Workspace) (float64, error) {
		calls.Add(1)
		return x, nil
	})
	if calls.Load() != 4 {
		t.Fatalf("ran %d replicates, want 4", calls.Load())
	}
	if s.Points[0].Y != 1 {
		t.Fatalf("mean = %g, want 1", s.Points[0].Y)
	}
}

func TestRunZeroSeedsMeansOne(t *testing.T) {
	var calls atomic.Int64
	mustRun(t, Config{Xs: []float64{1, 2}}, 1, func(float64, *simrng.Source, *sim.Workspace) (float64, error) {
		calls.Add(1)
		return 0, nil
	})
	if calls.Load() != 2 {
		t.Fatalf("ran %d calls, want 2", calls.Load())
	}
}

func TestRunPreservesXOrder(t *testing.T) {
	xs := []float64{5, 1, 3}
	s := mustRun(t, Config{Xs: xs}, 1, func(x float64, _ *simrng.Source, _ *sim.Workspace) (float64, error) { return x, nil })
	for i, x := range xs {
		if s.Points[i].X != x || s.Points[i].Y != x {
			t.Fatalf("point %d = %v", i, s.Points[i])
		}
	}
}

// TestRunReturnsLowestFailingPoint: when several points fail, Run reports
// the error of the lowest failing index, for any worker count, and still
// runs every point (no partial series escapes).
func TestRunReturnsLowestFailingPoint(t *testing.T) {
	errBad := errors.New("bad point")
	for _, workers := range []int{1, 8} {
		var calls atomic.Int64
		s, err := Run(Config{Name: "failing", Xs: Range(0, 9, 10), Seeds: 2, Workers: workers}, 3,
			func(x float64, _ *simrng.Source, _ *sim.Workspace) (float64, error) {
				calls.Add(1)
				if x >= 4 && int(x)%2 == 0 {
					return 0, fmt.Errorf("x=%g: %w", x, errBad)
				}
				return x, nil
			})
		if s != nil {
			t.Fatalf("workers=%d: series returned alongside an error", workers)
		}
		if !errors.Is(err, errBad) {
			t.Fatalf("workers=%d: error %v does not wrap the point's error", workers, err)
		}
		if want := `sweep "failing" at x=4: x=4: bad point`; err.Error() != want {
			t.Fatalf("workers=%d: error %q, want %q", workers, err, want)
		}
		if calls.Load() != 20 {
			t.Fatalf("workers=%d: ran %d replicates, want 20", workers, calls.Load())
		}
	}
}

func TestRangeEndpoints(t *testing.T) {
	xs := Range(0, 1, 11)
	if len(xs) != 11 {
		t.Fatalf("len = %d", len(xs))
	}
	if xs[0] != 0 || xs[10] != 1 {
		t.Fatalf("endpoints %g, %g", xs[0], xs[10])
	}
	if math.Abs(xs[5]-0.5) > 1e-12 {
		t.Fatalf("midpoint %g", xs[5])
	}
}

func TestRangeDegenerate(t *testing.T) {
	xs := Range(3, 9, 1)
	if len(xs) != 1 || xs[0] != 3 {
		t.Fatalf("Range(3,9,1) = %v", xs)
	}
	xs = Range(2, 2, 3)
	for _, x := range xs {
		if x != 2 {
			t.Fatalf("constant range produced %v", xs)
		}
	}
}
