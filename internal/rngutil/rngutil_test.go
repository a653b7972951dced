package rngutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with distinct seeds produced %d identical draws", same)
	}
}

func TestCloneReplaysFuture(t *testing.T) {
	a := New(42)
	for i := 0; i < 13; i++ {
		a.Uint64() // advance to an arbitrary mid-stream position
	}
	b := a.Clone()
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("clone diverged at draw %d", i)
		}
	}
	// Advancing the clone does not disturb the original.
	c := a.Clone()
	c.Uint64()
	want := b.Uint64()
	if a.Uint64() != want {
		t.Fatal("clone consumption leaked into original")
	}
}

func TestSpawnIndependentOfConsumption(t *testing.T) {
	a := New(7)
	b := New(7)
	// Consume different amounts from the parents before spawning.
	for i := 0; i < 17; i++ {
		a.Uint64()
	}
	ca := a.Spawn()
	cb := b.Spawn()
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatal("child identity depends on parent consumption")
		}
	}
}

func TestSpawnChildrenDistinct(t *testing.T) {
	p := New(9)
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		v := p.Spawn().Uint64()
		if seen[v] {
			t.Fatal("two spawned children produced the same first draw")
		}
		seen[v] = true
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnUnbiased(t *testing.T) {
	r := New(5)
	const n, buckets = 120000, 6
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", b, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(6)
	const n = 200000
	rate := 2.5
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp mean = %v, want %v", mean, 1/rate)
	}
}

func TestExpMemoryless(t *testing.T) {
	// P(X > a+b | X > a) should equal P(X > b).
	r := New(16)
	const n = 300000
	rate, a, b := 1.0, 0.7, 0.9
	countA, countAB, countB := 0, 0, 0
	for i := 0; i < n; i++ {
		x := r.Exp(rate)
		if x > a {
			countA++
			if x > a+b {
				countAB++
			}
		}
		if r.Exp(rate) > b {
			countB++
		}
	}
	condProb := float64(countAB) / float64(countA)
	probB := float64(countB) / float64(n)
	if math.Abs(condProb-probB) > 0.01 {
		t.Fatalf("memorylessness violated: %v vs %v", condProb, probB)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(8)
	p := 0.3
	const n = 200000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / n
	want := (1 - p) / p
	if math.Abs(mean-want) > 0.03 {
		t.Fatalf("Geometric mean = %v, want %v", mean, want)
	}
}

func TestGeometricPOne(t *testing.T) {
	r := New(8)
	for i := 0; i < 100; i++ {
		if r.Geometric(1) != 0 {
			t.Fatal("Geometric(1) must be 0")
		}
	}
}

func TestPoissonMeanVariance(t *testing.T) {
	for _, mean := range []float64{0.5, 3, 12, 80} {
		r := New(uint64(10 + mean))
		const n = 100000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(mean))
			sum += v
			sumSq += v * v
		}
		m := sum / n
		va := sumSq/n - m*m
		if math.Abs(m-mean) > 0.05*mean+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(va-mean) > 0.1*mean+0.1 {
			t.Fatalf("Poisson(%v) variance = %v", mean, va)
		}
	}
}

// PoissonExp with the exponential precomputed must replay Poisson draw
// for draw on both sampling paths (Knuth below 30, normal from 30) and at
// the zero-mean shortcut.
func TestPoissonExpMatchesPoisson(t *testing.T) {
	for _, mean := range []float64{0, 0.03, 1, 29.9, 30, 80} {
		a, b := New(21), New(21)
		l := math.Exp(-mean)
		for i := 0; i < 10000; i++ {
			if got, want := a.PoissonExp(mean, l), b.Poisson(mean); got != want {
				t.Fatalf("mean %v draw %d: PoissonExp gave %d, Poisson gave %d", mean, i, got, want)
			}
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(11)
	const n = 300000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("Normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("Normal variance = %v", variance)
	}
}

func TestBernoulliProbability(t *testing.T) {
	r := New(12)
	p := 0.37
	const n = 200000
	count := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			count++
		}
	}
	got := float64(count) / n
	if math.Abs(got-p) > 0.005 {
		t.Fatalf("Bernoulli(%v) frequency = %v", p, got)
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := New(14)
	for i := 0; i < 100000; i++ {
		if r.Float64Open() <= 0 {
			t.Fatal("Float64Open returned non-positive value")
		}
	}
}

// Property: Intn always falls inside [0, n) for arbitrary seeds and bounds.
func TestIntnRangeProperty(t *testing.T) {
	f := func(seed uint64, bound uint16) bool {
		n := int(bound%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Exp is always strictly positive.
func TestExpPositiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 50; i++ {
			if r.Exp(1.5) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(1)
	}
}

func TestMix64(t *testing.T) {
	if Mix64(1, 2, 3) != Mix64(1, 2, 3) {
		t.Fatal("Mix64 not deterministic")
	}
	// Order and identity must matter: the XOR-fold failure mode this
	// replaces made (a^b) collide with (b^a) and with (a^b, 0).
	if Mix64(1, 2) == Mix64(2, 1) {
		t.Error("Mix64 is order-insensitive")
	}
	if Mix64(1) == Mix64(1, 0) {
		t.Error("Mix64 ignores trailing zero words")
	}
	// Low-bit neighbours must avalanche: count collisions over a dense
	// grid of near-identical identities.
	seen := map[uint64]bool{}
	for a := uint64(0); a < 64; a++ {
		for b := uint64(0); b < 64; b++ {
			h := Mix64(42, a, b)
			if seen[h] {
				t.Fatalf("collision at (%d, %d)", a, b)
			}
			seen[h] = true
		}
	}
}

func TestChildSeedMatchesSpawn(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0x9e3779b97f4a7c15, ^uint64(0)} {
		root := New(seed)
		for k := uint64(1); k <= 64; k++ {
			child, byseed := root.Spawn(), New(ChildSeed(seed, k))
			for i := 0; i < 4; i++ {
				if got, want := byseed.Uint64(), child.Uint64(); got != want {
					t.Fatalf("ChildSeed(%#x, %d): draw %d is %#x, Spawn's child drew %#x", seed, k, i, got, want)
				}
			}
		}
	}
}

func TestSeededMatchesNew(t *testing.T) {
	for _, seed := range []uint64{0, 7, 0xdeadbeef} {
		a := New(seed)
		b := Seeded(seed)
		for i := 0; i < 100; i++ {
			if av, bv := a.Uint64(), b.Uint64(); av != bv {
				t.Fatalf("seed %#x draw %d: New gave %#x, Seeded gave %#x", seed, i, av, bv)
			}
		}
	}
}
