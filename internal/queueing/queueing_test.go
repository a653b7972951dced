package queueing

import (
	"math"
	"testing"

	"windowctl/internal/dist"
	"windowctl/internal/rngutil"
)

// simulateImpatientLoss estimates the loss of the impatient M/G/1 queue by
// direct virtual-work (Lindley) recursion: an arrival joins iff the
// unfinished work it finds is below k.
func simulateImpatientLoss(lambda float64, service dist.Distribution, k float64, n int, seed uint64) float64 {
	r := rngutil.New(seed)
	v := 0.0 // unfinished work just before the next arrival
	lost := 0
	for i := 0; i < n; i++ {
		gap := r.Exp(lambda)
		v = math.Max(v-gap, 0)
		if v > k {
			lost++
			continue
		}
		v += service.Sample(r)
	}
	return float64(lost) / float64(n)
}

// simulateFCFSWaitTail estimates P(W > k) in a plain M/G/1 FCFS queue.
func simulateFCFSWaitTail(lambda float64, service dist.Distribution, k float64, n int, seed uint64) float64 {
	r := rngutil.New(seed)
	v := 0.0
	late := 0
	for i := 0; i < n; i++ {
		gap := r.Exp(lambda)
		v = math.Max(v-gap, 0)
		if v > k {
			late++
		}
		v += service.Sample(r)
	}
	return float64(late) / float64(n)
}

// simulateLCFSWaitTail estimates P(W > k) in a non-preemptive LCFS M/G/1
// queue by event-driven simulation with a pushdown stack.
func simulateLCFSWaitTail(lambda float64, service dist.Distribution, k float64, n int, seed uint64) float64 {
	r := rngutil.New(seed)
	type cust struct{ arrival float64 }
	var stack []cust
	now := 0.0
	nextArrival := r.Exp(lambda)
	serverFreeAt := 0.0
	late, served := 0, 0
	for served < n {
		if nextArrival < serverFreeAt || len(stack) == 0 {
			// Next event: arrival.
			now = nextArrival
			if now >= serverFreeAt && len(stack) == 0 {
				// Server idle: enter service immediately (wait 0).
				if 0 > k {
					late++
				}
				served++
				serverFreeAt = now + service.Sample(r)
			} else {
				stack = append(stack, cust{arrival: now})
			}
			nextArrival = now + r.Exp(lambda)
			continue
		}
		// Next event: service completion; pop the youngest waiter.
		now = serverFreeAt
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if now-c.arrival > k {
			late++
		}
		served++
		serverFreeAt = now + service.Sample(r)
	}
	return float64(late) / float64(served)
}

func TestImpatientLimitKZero(t *testing.T) {
	// K → 0: p(loss) → ρ/(1+ρ) (the paper's stated check).
	svc := dist.NewDeterministic(1)
	q := ImpatientMG1{Lambda: 0.6, Service: svc}
	res, err := q.Solve(1e-4)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.6 / 1.6
	if math.Abs(res.Loss-want) > 1e-3 {
		t.Fatalf("K→0 loss %v, want %v", res.Loss, want)
	}
	if math.Abs(res.ServerIdle-1/1.6) > 1e-3 {
		t.Fatalf("K→0 idle %v, want %v", res.ServerIdle, 1/1.6)
	}
}

func TestImpatientLimitKLarge(t *testing.T) {
	// K → ∞ with ρ < 1: p(loss) → 0 and P(0) → 1−ρ.
	svc := dist.NewExponential(1)
	q := ImpatientMG1{Lambda: 0.5, Service: svc}
	res, err := q.Solve(40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss > 1e-6 {
		t.Fatalf("large-K loss %v", res.Loss)
	}
	if math.Abs(res.ServerIdle-0.5) > 1e-4 {
		t.Fatalf("large-K idle %v, want 0.5", res.ServerIdle)
	}
}

func TestImpatientExponentialClosedForm(t *testing.T) {
	// For exponential service the residual is again exponential and
	// z(K,ρ) = Σ ρ^i · P(Erlang(i, μ) <= K) exactly.
	lambda, mu, k := 0.7, 1.0, 3.0
	q := ImpatientMG1{Lambda: lambda, Service: dist.NewExponential(mu)}
	res, err := q.Solve(k)
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda / mu
	z := 1.0
	pow := rho
	for i := 1; i < 200; i++ {
		z += pow * dist.NewErlang(i, mu).CDF(k)
		pow *= rho
	}
	wantLoss := 1 - z/(1+rho*z)
	if math.Abs(res.Z-z) > 2e-3*z {
		t.Fatalf("z = %v, closed form %v", res.Z, z)
	}
	if math.Abs(res.Loss-wantLoss) > 1e-4 {
		t.Fatalf("loss = %v, closed form %v", res.Loss, wantLoss)
	}
}

func TestImpatientAgainstSimulation(t *testing.T) {
	cases := []struct {
		name    string
		lambda  float64
		service dist.Distribution
		k       float64
	}{
		{"MM1 moderate", 0.8, dist.NewExponential(1), 2},
		{"MM1 overload", 1.5, dist.NewExponential(1), 2},
		{"MD1", 0.7, dist.NewDeterministic(1), 1.5},
		{"geom+det service", 0.03, dist.NewShifted(dist.NewGeometricLattice(1.5, 1), 25), 60},
	}
	for _, c := range cases {
		q := ImpatientMG1{Lambda: c.lambda, Service: c.service}
		res, err := q.Solve(c.k)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sim := simulateImpatientLoss(c.lambda, c.service, c.k, 400000, 99)
		if math.Abs(res.Loss-sim) > 0.01 {
			t.Fatalf("%s: analytic %v, simulated %v", c.name, res.Loss, sim)
		}
	}
}

func TestImpatientLossMonotoneInK(t *testing.T) {
	q := ImpatientMG1{Lambda: 0.9, Service: dist.NewExponential(1)}
	prev := 1.1
	for _, k := range []float64{0.25, 0.5, 1, 2, 4, 8} {
		res, err := q.Solve(k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Loss > prev+1e-9 {
			t.Fatalf("loss not monotone at K=%v: %v > %v", k, res.Loss, prev)
		}
		prev = res.Loss
	}
}

func TestImpatientValidation(t *testing.T) {
	svc := dist.NewExponential(1)
	cases := []struct {
		q ImpatientMG1
		k float64
	}{
		{ImpatientMG1{Lambda: 0, Service: svc}, 1},
		{ImpatientMG1{Lambda: 1}, 1},
		{ImpatientMG1{Lambda: 1, Service: svc}, 0},
		{ImpatientMG1{Lambda: 1, Service: svc}, math.Inf(1)},
		{ImpatientMG1{Lambda: 1, Service: svc}, math.NaN()},
	}
	for i, c := range cases {
		if _, err := c.q.Solve(c.k); err == nil {
			t.Errorf("case %d: invalid input accepted", i)
		}
	}
}

func TestAcceptedWaitCDF(t *testing.T) {
	q := ImpatientMG1{Lambda: 0.8, Service: dist.NewExponential(1)}
	k := 2.0
	cdf, err := q.AcceptedWaitCDF(k, []float64{0, 0.5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// CDF must be monotone and reach 1 at K.
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1]-1e-9 {
			t.Fatalf("accepted-wait CDF not monotone: %v", cdf)
		}
	}
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
		t.Fatalf("CDF at K = %v, want 1", cdf[len(cdf)-1])
	}
	if _, err := q.AcceptedWaitCDF(k, []float64{3}); err == nil {
		t.Fatal("point beyond K accepted")
	}
}

// --- Plain M/G/1 baselines ---------------------------------------------------

func TestMM1WaitClosedForm(t *testing.T) {
	// M/M/1: P(W <= w) = 1 − ρ·e^{−μ(1−ρ)w}.
	lambda, mu := 0.6, 1.0
	q := MG1{Lambda: lambda, Service: dist.NewExponential(mu)}
	ws := []float64{0, 0.5, 1, 2, 5}
	got := make([]float64, len(ws))
	for i, w := range ws {
		loss, err := q.LossFCFS(w)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = 1 - loss
	}
	rho := lambda / mu
	for i, w := range ws {
		want := 1 - rho*math.Exp(-mu*(1-rho)*w)
		if math.Abs(got[i]-want) > 2e-3 {
			t.Fatalf("W CDF(%v) = %v, closed form %v", w, got[i], want)
		}
	}
}

func TestFCFSLossAgainstSimulation(t *testing.T) {
	lambda := 0.75
	svc := dist.NewExponential(1)
	q := MG1{Lambda: lambda, Service: svc}
	for _, k := range []float64{1, 3, 6} {
		loss, err := q.LossFCFS(k)
		if err != nil {
			t.Fatal(err)
		}
		sim := simulateFCFSWaitTail(lambda, svc, k, 400000, 7)
		if math.Abs(loss-sim) > 0.01 {
			t.Fatalf("K=%v: analytic %v, simulated %v", k, loss, sim)
		}
	}
}

func TestMG1UnstableRejected(t *testing.T) {
	q := MG1{Lambda: 1.2, Service: dist.NewExponential(1)}
	if _, err := q.LossFCFS(1); err == nil {
		t.Fatal("unstable queue accepted by LossFCFS")
	}
	if _, err := q.LossFCFS(-1); err == nil {
		t.Fatal("negative K accepted")
	}
}

// --- LCFS --------------------------------------------------------------------

func TestLCFSAtZeroAndMonotone(t *testing.T) {
	q := MG1{Lambda: 0.6, Service: dist.NewExponential(1)}
	c0, err := q.WaitCDFLCFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c0-0.4) > 1e-9 {
		t.Fatalf("P(W=0) = %v, want 1−ρ", c0)
	}
	prev := c0
	for _, w := range []float64{0.5, 1, 2, 4, 8, 16} {
		c, err := q.WaitCDFLCFS(w)
		if err != nil {
			t.Fatal(err)
		}
		if c < prev-1e-6 {
			t.Fatalf("LCFS CDF not monotone at %v: %v < %v", w, c, prev)
		}
		prev = c
	}
	if prev < 0.97 {
		t.Fatalf("LCFS CDF at 16 only %v", prev)
	}
}

func TestLCFSMeanEqualsFCFSMean(t *testing.T) {
	// Non-preemptive LCFS has the same mean wait as FCFS: the PK mean
	// λ·E[X²]/(2(1−ρ)), which is 1.5 for M/M/1 at λ = 0.6, μ = 1.  The
	// LCFS mean is E[W] = ∫₀^∞ P(W > t) dt over the inverted tail,
	// integrated by the trapezoid rule on [0, 60].
	q := MG1{Lambda: 0.6, Service: dist.NewExponential(1)}
	pk := 0.6 * 2 / (2 * (1 - 0.6))
	const upTo, panels = 60.0, 600
	h := upTo / panels
	lc := q.Rho() / 2 // P(W > 0) = ρ, half-weighted
	for i := 1; i <= panels; i++ {
		cdf, err := q.WaitCDFLCFS(float64(i) * h)
		if err != nil {
			t.Fatal(err)
		}
		w := 1.0
		if i == panels {
			w = 0.5
		}
		lc += w * (1 - cdf)
	}
	lc *= h
	if math.Abs(lc-pk) > 0.02*pk {
		t.Fatalf("LCFS mean %v, PK mean %v", lc, pk)
	}
}

func TestLCFSAgainstSimulation(t *testing.T) {
	lambda := 0.7
	svc := dist.NewExponential(1)
	q := MG1{Lambda: lambda, Service: svc}
	for _, k := range []float64{1, 4, 10} {
		loss, err := q.LossLCFS(k)
		if err != nil {
			t.Fatal(err)
		}
		sim := simulateLCFSWaitTail(lambda, svc, k, 300000, 11)
		if math.Abs(loss-sim) > 0.012 {
			t.Fatalf("K=%v: analytic %v, simulated %v", k, loss, sim)
		}
	}
}

func TestLCFSFCFSCrossover(t *testing.T) {
	// Same mean, larger variance: at tight constraints LCFS wins (a fresh
	// arrival may be served at once), but its busy-period tail eventually
	// makes it lose — the crossover structure of the [Kurose 83] curves.
	// At ρ = 0.8 with exponential service the crossover lies in (8, 15).
	q := MG1{Lambda: 0.8, Service: dist.NewExponential(1)}
	for _, k := range []float64{0.5, 2, 8} {
		f, err := q.LossFCFS(k)
		if err != nil {
			t.Fatal(err)
		}
		l, err := q.LossLCFS(k)
		if err != nil {
			t.Fatal(err)
		}
		if l >= f {
			t.Fatalf("K=%v (tight): LCFS %v should beat FCFS %v", k, l, f)
		}
	}
	for _, k := range []float64{15.0, 25.0, 40.0} {
		f, err := q.LossFCFS(k)
		if err != nil {
			t.Fatal(err)
		}
		l, err := q.LossLCFS(k)
		if err != nil {
			t.Fatal(err)
		}
		if l <= f {
			t.Fatalf("K=%v (loose): LCFS tail %v not heavier than FCFS %v", k, l, f)
		}
	}
}

func TestImpatientBeatsBaselines(t *testing.T) {
	// The controlled queue (sender discard) must lose no more than the
	// uncontrolled FCFS queue at every K — the headline comparison of
	// figure 7.
	lambda := 0.85
	svc := dist.NewExponential(1)
	imp := ImpatientMG1{Lambda: lambda, Service: svc}
	base := MG1{Lambda: lambda, Service: svc}
	for _, k := range []float64{0.5, 1, 2, 4, 8} {
		ri, err := imp.Solve(k)
		if err != nil {
			t.Fatal(err)
		}
		lf, err := base.LossFCFS(k)
		if err != nil {
			t.Fatal(err)
		}
		if ri.Loss > lf+1e-6 {
			t.Fatalf("K=%v: controlled loss %v exceeds FCFS %v", k, ri.Loss, lf)
		}
	}
}

func BenchmarkImpatientSolve(b *testing.B) {
	q := ImpatientMG1{Lambda: 0.03, Service: dist.NewShifted(dist.NewGeometricLattice(1.2, 1), 25)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Solve(75); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLCFSWaitCDF(b *testing.B) {
	q := MG1{Lambda: 0.7, Service: dist.NewExponential(1)}
	for i := 0; i < b.N; i++ {
		if _, err := q.WaitCDFLCFS(3); err != nil {
			b.Fatal(err)
		}
	}
}
