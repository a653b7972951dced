package sched

import (
	"math"
	"testing"
	"testing/quick"

	"windowctl/internal/rngutil"
	"windowctl/internal/window"
)

func TestHMeansHandValues(t *testing.T) {
	h := HMeans(4)
	// n=2: h = (1 − p1)/(1 − p0 − p2) = (1/2)/(1/2) = 1.
	if math.Abs(h[2]-1) > 1e-12 {
		t.Fatalf("h(2) = %v, want 1", h[2])
	}
	// n=3: p = [1/8, 3/8, 3/8, 1/8];
	// h = (5/8 + 3/8·h(2)) / (1 − 2/8) = 1/(3/4) = 4/3.
	if math.Abs(h[3]-4.0/3) > 1e-12 {
		t.Fatalf("h(3) = %v, want 4/3", h[3])
	}
	if h[0] != 0 || h[1] != 0 {
		t.Fatal("h(0), h(1) must be 0")
	}
}

func TestHMeansMonotone(t *testing.T) {
	h := HMeans(100)
	for n := 3; n <= 100; n++ {
		if h[n] <= h[n-1] {
			t.Fatalf("h not increasing at n=%d: %v <= %v", n, h[n], h[n-1])
		}
	}
	// Growth is logarithmic-ish: h(100) must be modest.
	if h[100] > 15 {
		t.Fatalf("h(100) = %v implausibly large", h[100])
	}
}

// simulateH estimates h(n) by Monte Carlo using the real Resolver with n
// uniform arrivals known to collide.
func simulateH(t *testing.T, n, trials int, r *rngutil.Stream) float64 {
	t.Helper()
	p := window.Controlled{Length: window.FixedLength(1)}
	total := 0
	for tr := 0; tr < trials; tr++ {
		arr := make([]float64, n)
		for i := range arr {
			arr[i] = r.Float64()
		}
		v := window.View{Now: 1, TPast: 0, TNewest: 1, K: math.Inf(1), Tau: 1, Lambda: 1}
		rep, err := window.RunProcess(p, v, func(w window.Window) int {
			c := 0
			for _, a := range arr {
				if w.Contains(a) {
					c++
				}
			}
			return c
		})
		if err != nil {
			t.Fatal(err)
		}
		// First step is the collision (counted separately in Analyze);
		// h(n) counts subsequent wasted slots.
		total += rep.WastedSlots - 1
	}
	return float64(total) / float64(trials)
}

func TestHMeansMatchesProtocolSimulation(t *testing.T) {
	h := HMeans(8)
	r := rngutil.New(21)
	for _, n := range []int{2, 3, 5, 8} {
		est := simulateH(t, n, 40000, r)
		if math.Abs(est-h[n]) > 0.05 {
			t.Fatalf("h(%d): simulated %v, analytic %v", n, est, h[n])
		}
	}
}

func TestAnalyzeLimits(t *testing.T) {
	// Small G: almost all non-empty windows hold one message.
	o := Analyze(0.01)
	if o.ResolutionSlots > 0.02 {
		t.Fatalf("tiny G resolution slots %v", o.ResolutionSlots)
	}
	// Empty retries per success ~ 1/G for small G.
	if math.Abs(o.EmptySlots-math.Exp(-0.01)/(1-math.Exp(-0.01))) > 1e-9 {
		t.Fatalf("empty slots %v", o.EmptySlots)
	}
	if math.Abs(o.SuccessProb-(1-math.Exp(-0.01))) > 1e-12 {
		t.Fatal("success prob")
	}
	// Large G: empty probes vanish.
	o = Analyze(8)
	if o.EmptySlots > 1e-3 {
		t.Fatalf("large G empty slots %v", o.EmptySlots)
	}
	if o.ResolutionSlots < 1 {
		t.Fatalf("large G resolution %v suspiciously small", o.ResolutionSlots)
	}
}

func TestAnalyzeMatchesEndToEndSimulation(t *testing.T) {
	// Fresh Poisson(G) windows resolved by the real engine: mean wasted
	// slots per success must match Analyze(G).TotalSlots().
	r := rngutil.New(22)
	for _, g := range []float64{0.5, 1.2, 3.0} {
		p := window.Controlled{Length: window.FixedLength(1)}
		wasted, successes := 0, 0
		for successes < 30000 {
			n := r.Poisson(g)
			arr := make([]float64, n)
			for i := range arr {
				arr[i] = r.Float64()
			}
			v := window.View{Now: 1, TPast: 0, TNewest: 1, K: math.Inf(1), Tau: 1, Lambda: 1}
			rep, err := window.RunProcess(p, v, func(w window.Window) int {
				c := 0
				for _, a := range arr {
					if w.Contains(a) {
						c++
					}
				}
				return c
			})
			if err != nil {
				t.Fatal(err)
			}
			wasted += rep.WastedSlots
			if rep.Success {
				successes++
			}
		}
		got := float64(wasted) / float64(successes)
		want := Analyze(g).TotalSlots()
		if math.Abs(got-want) > 0.04*want+0.02 {
			t.Fatalf("G=%v: simulated %.4f slots/success, analytic %.4f", g, got, want)
		}
	}
}

func TestOptimalG(t *testing.T) {
	g, o := OptimalG()
	if g < 0.5 || g > 3 {
		t.Fatalf("G* = %v outside plausible range", g)
	}
	// Local optimality.
	for _, d := range []float64{-0.1, 0.1} {
		if Analyze(g+d).TotalSlots() < o.TotalSlots()-1e-9 {
			t.Fatalf("G*=%v not optimal: %v beats %v at offset %v",
				g, Analyze(g+d).TotalSlots(), o.TotalSlots(), d)
		}
	}
}

func TestSlotPMFMeanMatchesAnalyze(t *testing.T) {
	for _, g := range []float64{0.3, 1.0, 2.5} {
		pmf := SlotPMF(g, 400)
		sum, mean := 0.0, 0.0
		for j, p := range pmf {
			sum += p
			mean += float64(j) * p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("G=%v: PMF sums to %v", g, sum)
		}
		want := Analyze(g).TotalSlots()
		if math.Abs(mean-want) > 0.01*want+0.005 {
			t.Fatalf("G=%v: PMF mean %v, Analyze %v", g, mean, want)
		}
	}
}

func TestResolutionSlotPMFMean(t *testing.T) {
	for _, g := range []float64{0.3, 1.0, 2.5} {
		pmf := ResolutionSlotPMF(g, 400)
		sum, mean := 0.0, 0.0
		for j, p := range pmf {
			sum += p
			mean += float64(j) * p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("G=%v: PMF sums to %v", g, sum)
		}
		want := Analyze(g).ResolutionSlots
		if math.Abs(mean-want) > 0.01*want+0.005 {
			t.Fatalf("G=%v: resolution PMF mean %v, want %v", g, mean, want)
		}
	}
}

func TestSlotPMFAgainstSimulation(t *testing.T) {
	// Distribution-level check at G=1: compare the first few PMF entries
	// against Monte Carlo.
	g := 1.0
	r := rngutil.New(23)
	p := window.Controlled{Length: window.FixedLength(1)}
	const successesWanted = 50000
	counts := map[int]int{}
	successes := 0
	pendingEmpties := 0
	for successes < successesWanted {
		n := r.Poisson(g)
		arr := make([]float64, n)
		for i := range arr {
			arr[i] = r.Float64()
		}
		v := window.View{Now: 1, TPast: 0, TNewest: 1, K: math.Inf(1), Tau: 1, Lambda: 1}
		rep, err := window.RunProcess(p, v, func(w window.Window) int {
			c := 0
			for _, a := range arr {
				if w.Contains(a) {
					c++
				}
			}
			return c
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Success {
			pendingEmpties += rep.WastedSlots
			continue
		}
		counts[rep.WastedSlots+pendingEmpties]++
		pendingEmpties = 0
		successes++
	}
	pmf := SlotPMF(g, 200)
	for j := 0; j <= 4; j++ {
		got := float64(counts[j]) / successesWanted
		if math.Abs(got-pmf[j]) > 0.01 {
			t.Fatalf("P(S=%d): simulated %v, analytic %v", j, got, pmf[j])
		}
	}
}

func TestPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { HMeans(1) },
		func() { Analyze(0) },
		func() { Analyze(math.NaN()) },
		func() { SlotPMF(0, 10) },
		func() { SlotPMF(1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: PMFs are non-negative and sum to 1 for arbitrary G.
func TestPMFValidProperty(t *testing.T) {
	f := func(raw uint16) bool {
		g := 0.05 + float64(raw%500)/100.0 // 0.05..5.04
		for _, pmf := range [][]float64{SlotPMF(g, 150), ResolutionSlotPMF(g, 150)} {
			sum := 0.0
			for _, p := range pmf {
				if p < -1e-12 {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Analyze(1.3)
	}
}

func BenchmarkSlotPMF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = SlotPMF(1.3, 200)
	}
}
