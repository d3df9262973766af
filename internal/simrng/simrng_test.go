package simrng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestChildIndependentOfConsumption(t *testing.T) {
	a := New(7)
	fresh := a.Child("stream").Uint64()

	b := New(7)
	for i := 0; i < 50; i++ {
		b.Uint64() // consume parent randomness
	}
	consumed := b.Child("stream").Uint64()

	if fresh != consumed {
		t.Fatalf("child stream depends on parent consumption: %d != %d", fresh, consumed)
	}
}

func TestChildLabelsDiffer(t *testing.T) {
	s := New(7)
	if s.Child("a").Uint64() == s.Child("b").Uint64() {
		t.Fatal("children with different labels produced the same first draw")
	}
}

func TestChildNDistinct(t *testing.T) {
	s := New(7)
	seen := make(map[uint64]int)
	for i := 0; i < 200; i++ {
		v := s.ChildN("node", i).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("ChildN %d and %d share first draw %d", prev, i, v)
		}
		seen[v] = i
	}
}

func TestSeedAccessor(t *testing.T) {
	if got := New(99).Seed(); got != 99 {
		t.Fatalf("Seed() = %d, want 99", got)
	}
}

func TestIntNRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.IntN(17)
		if v < 0 || v >= 17 {
			t.Fatalf("IntN(17) = %d out of range", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of range", v)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(3)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if s.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !s.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	s := New(11)
	const trials = 50000
	hits := 0
	for i := 0; i < trials; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / trials
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency %g, want ~0.3", frac)
	}
}

func TestSampleIntsProperties(t *testing.T) {
	s := New(5)
	check := func(n, k int) {
		t.Helper()
		got := s.SampleInts(n, k)
		if len(got) != k {
			t.Fatalf("SampleInts(%d,%d) returned %d values", n, k, len(got))
		}
		seen := make(map[int]bool, k)
		for _, v := range got {
			if v < 0 || v >= n {
				t.Fatalf("SampleInts(%d,%d) produced out-of-range %d", n, k, v)
			}
			if seen[v] {
				t.Fatalf("SampleInts(%d,%d) produced duplicate %d", n, k, v)
			}
			seen[v] = true
		}
	}
	// Exercise both the rejection-sampling and partial-shuffle paths.
	for _, tc := range []struct{ n, k int }{
		{10, 0}, {10, 1}, {10, 2}, {10, 5}, {10, 10},
		{1000, 3}, {1000, 250}, {1000, 999}, {1, 1}, {1, 0},
	} {
		check(tc.n, tc.k)
	}
}

func TestSampleIntsPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleInts(3, 4) did not panic")
		}
	}()
	New(1).SampleInts(3, 4)
}

func TestSampleIntsUniform(t *testing.T) {
	s := New(13)
	counts := make([]int, 10)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range s.SampleInts(10, 3) {
			counts[v]++
		}
	}
	want := float64(trials) * 3 / 10
	for v, c := range counts {
		if math.Abs(float64(c)-want) > want*0.06 {
			t.Fatalf("value %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestPickOther(t *testing.T) {
	s := New(5)
	for self := 0; self < 6; self++ {
		for i := 0; i < 1000; i++ {
			v := s.PickOther(6, self)
			if v == self {
				t.Fatalf("PickOther(6,%d) returned self", self)
			}
			if v < 0 || v >= 6 {
				t.Fatalf("PickOther(6,%d) = %d out of range", self, v)
			}
		}
	}
}

func TestPickOtherPanicsSmallN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PickOther(1, 0) did not panic")
		}
	}()
	New(1).PickOther(1, 0)
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestShufflepreservesMultiset(t *testing.T) {
	s := New(21)
	vals := []int{5, 5, 1, 2, 3, 9, 9, 9}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	s.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	got := 0
	for _, v := range vals {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset sum: %d != %d", got, sum)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the SplitMix64 algorithm with seed stepping;
	// here we only check the finalizer is a bijection-ish scrambler: zero
	// must not map to zero and small inputs must diverge.
	if splitMix64(0) == 0 {
		t.Fatal("splitMix64(0) = 0")
	}
	if splitMix64(1) == splitMix64(2) {
		t.Fatal("splitMix64 collides on 1, 2")
	}
}

func TestNormAndExpFinite(t *testing.T) {
	s := New(8)
	for i := 0; i < 1000; i++ {
		if v := s.NormFloat64(); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("NormFloat64 produced %g", v)
		}
		if v := s.ExpFloat64(); v < 0 || math.IsNaN(v) {
			t.Fatalf("ExpFloat64 produced %g", v)
		}
	}
}

// TestPermIntoMatchesPerm: the buffer-reusing permutation must draw exactly
// the permutation Perm draws from the same stream state, for any buffer
// capacity, so swapping it into hot loops changes no result.
func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 1000} {
		want := New(42).Perm(n)
		for _, buf := range [][]int{nil, make([]int, 0, n/2), make([]int, n+7)} {
			got := New(42).PermInto(buf, n)
			if len(got) != len(want) {
				t.Fatalf("n=%d: PermInto returned %d elements, want %d", n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d: PermInto diverges from Perm at %d", n, i)
				}
			}
		}
		// A large-enough buffer must be reused, not reallocated.
		buf := make([]int, n)
		got := New(7).PermInto(buf, n)
		if n > 0 && &got[0] != &buf[0] {
			t.Fatalf("n=%d: PermInto reallocated despite sufficient capacity", n)
		}
	}
}

// sampleIntsPins are SampleInts draws recorded from the map-based sampler
// before SampleIntsInto existed, with the next IntN(1<<30) of the same
// stream (it pins how much randomness each draw consumed). The table
// covers the small-k rejection branch (k <= 16, with duplicate rejections
// at seeds 3 and 5), the large-k rejection branch (k > 16, k*4 <= n, with
// duplicates at seeds 6-8) and the partial Fisher–Yates branch (k*4 > n).
var sampleIntsPins = []struct {
	seed uint64
	n, k int
	want []int
	next int
}{
	{1, 100, 3, []int{94, 19, 9}, 824786113},
	{2, 10, 2, []int{3, 8}, 224517367},
	{3, 1000, 16, []int{649, 841, 731, 588, 501, 531, 310, 118, 395, 309, 69, 100, 657, 74, 536, 402}, 390895941},
	{4, 4, 1, []int{2}, 452463409},
	{5, 64, 16, []int{63, 29, 44, 27, 5, 62, 8, 58, 32, 34, 19, 45, 53, 37, 12, 57}, 639928971},
	{6, 100, 17, []int{37, 60, 26, 88, 14, 82, 89, 4, 97, 18, 17, 77, 42, 24, 79, 11, 93}, 868761530},
	{7, 90, 20, []int{58, 72, 53, 43, 45, 22, 89, 54, 41, 62, 1, 57, 25, 79, 35, 14, 78, 21, 50, 11}, 285081131},
	{8, 400, 33, []int{112, 25, 33, 235, 139, 300, 115, 49, 328, 298, 391, 17, 85, 204, 367, 316, 339, 321, 392, 96, 75, 377, 292, 347, 269, 21, 308, 151, 169, 253, 39, 332, 246}, 262201052},
	{9, 10, 7, []int{2, 9, 4, 7, 1, 3, 6}, 967093221},
	{10, 5, 5, []int{0, 1, 4, 3, 2}, 599922911},
	{11, 30, 8, []int{3, 17, 11, 28, 14, 27, 23, 16}, 67353818},
	{12, 3, 1, []int{1}, 992743388},
	{13, 1, 1, []int{0}, 529656253},
}

// TestSampleIntsIntoMatchesPins: SampleInts and SampleIntsInto reproduce
// the recorded draws and leave the stream where the recorded sampler left
// it, whatever buffer SampleIntsInto is handed — nil, too short, or a
// reused one longer than needed (whose stale contents must not leak).
func TestSampleIntsIntoMatchesPins(t *testing.T) {
	reused := make([]int, 0, 512)
	for _, p := range sampleIntsPins {
		for _, d := range []struct {
			name string
			draw func(s *Source) []int
		}{
			{"SampleInts", func(s *Source) []int { return s.SampleInts(p.n, p.k) }},
			{"nil", func(s *Source) []int { return s.SampleIntsInto(nil, p.n, p.k) }},
			{"short", func(s *Source) []int { return s.SampleIntsInto(make([]int, 0, 1), p.n, p.k) }},
			{"reused", func(s *Source) []int {
				full := reused[:cap(reused)]
				for i := range full {
					full[i] = -7
				}
				reused = s.SampleIntsInto(reused, p.n, p.k)
				return reused
			}},
		} {
			s := New(p.seed)
			got := d.draw(s)
			if !slices.Equal(got, p.want) {
				t.Fatalf("%s(seed %d, n %d, k %d) = %v, want %v", d.name, p.seed, p.n, p.k, got, p.want)
			}
			if next := s.IntN(1 << 30); next != p.next {
				t.Fatalf("%s(seed %d, n %d, k %d): next draw %d, want %d (stream consumption changed)", d.name, p.seed, p.n, p.k, next, p.next)
			}
		}
	}
	if cap(reused) != 512 {
		t.Fatalf("reused buffer reallocated: cap %d, want 512", cap(reused))
	}
}

// TestSampleIntsIntoEdgeCases: k == 0 draws nothing and returns an empty
// slice; k out of [0, n] panics like SampleInts.
func TestSampleIntsIntoEdgeCases(t *testing.T) {
	s := New(3)
	if got := s.SampleIntsInto(make([]int, 4), 10, 0); len(got) != 0 {
		t.Fatalf("k == 0 returned %v", got)
	}
	if got := s.SampleIntsInto(nil, 0, 0); len(got) != 0 {
		t.Fatalf("n == k == 0 returned %v", got)
	}
	if s.IntN(1<<30) != New(3).IntN(1<<30) {
		t.Fatal("k == 0 consumed randomness")
	}
	for _, c := range []struct{ n, k int }{{3, 4}, {3, -1}, {0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SampleIntsInto(nil, %d, %d) did not panic", c.n, c.k)
				}
			}()
			s.SampleIntsInto(nil, c.n, c.k)
		}()
	}
}
