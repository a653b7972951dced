package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"windowctl/internal/metrics"
	"windowctl/internal/rngutil"
)

// A synthetic pump never parks, so the only way it sees a /config POST
// or the drain is the ctrlWaiting poll at its loop head: concurrent swaps
// must all be applied and the drain must finish.
func TestSaturatedPumpServesControl(t *testing.T) {
	o := testOptions()
	o.synthetic = true
	s, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.status.Load().Steps == 0 {
		if time.Now().After(deadline) {
			t.Fatal("synthetic pump published no steps")
		}
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	for _, km := range []int{2, 3, 4, 5} {
		wg.Add(1)
		go func(km int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/config", "application/json", strings.NewReader(fmt.Sprintf(`{"km": %d}`, km)))
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/config POST km=%d on a saturated pump: status %d: %s", km, resp.StatusCode, body)
				return
			}
			var cfg map[string]any
			if err := json.Unmarshal(body, &cfg); err != nil {
				t.Error(err)
				return
			}
			if cfg["k"] == 10.0 {
				t.Errorf("config km=%d did not apply: k is still the initial 10", km)
			}
		}(km)
	}
	wg.Wait()
	if s.ctrlWaiting.Load() != 0 {
		t.Errorf("ctrlWaiting = %d after every handoff returned, want 0", s.ctrlWaiting.Load())
	}

	s.beginDrain()
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		t.Fatal("saturated pump never noticed the drain")
	}
	if fin := s.status.Load().final; fin == nil || fin.err != nil {
		t.Fatalf("drain after swap: %+v", fin)
	}
}

// One pump iteration on a warm engine — absorbing a booked arrival, then
// advancing — allocates nothing.
func TestPumpIterationZeroAlloc(t *testing.T) {
	srv, p := barePump(t, testOptions())
	iter := func() {
		srv.ingested.Add(1)
		p.absorb()
		if err := p.advance(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20000; i++ {
		iter()
	}
	if a := testing.AllocsPerRun(2000, iter); a != 0 {
		t.Errorf("absorb + advance: %v allocs per iteration, want 0", a)
	}
}

// advance's memoised release draw must reproduce, step for step, the loop
// that calls Poisson(λ′·elapsed) afresh each epoch: same clock, same step
// count, same final report, both when synthetic and when the owed ledger
// runs out and clamps the release.
func TestAdvanceMatchesDirectPoisson(t *testing.T) {
	for _, tc := range []struct {
		name      string
		synthetic bool
		owed      int64
	}{
		{"synthetic", true, 0},
		{"owed ledger", false, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 30000
			o := testOptions()
			o.synthetic = tc.synthetic
			_, p := barePump(t, o)
			p.owed = tc.owed
			for i := 0; i < n; i++ {
				if err := p.advance(); err != nil {
					t.Fatal(err)
				}
			}

			st, _, err := o.engine(metrics.NewShared(o.tau, 256))
			if err != nil {
				t.Fatal(err)
			}
			rel := rngutil.New(o.seed ^ 0x6a09e667f3bcc909)
			owed := tc.owed
			for i := 0; i < n; i++ {
				before := st.Now()
				if err := st.Step(); err != nil {
					t.Fatal(err)
				}
				k := int64(rel.Poisson(o.lambda() * (st.Now() - before)))
				if !o.synthetic {
					k = min(k, owed)
					owed -= k
				}
				st.Inject(int(k))
			}
			if !o.synthetic && owed != 0 {
				t.Fatalf("setup: the ledger never ran dry (%d owed), so the clamp went untested", owed)
			}

			if p.steps != n {
				t.Errorf("steps = %d, want %d", p.steps, n)
			}
			if p.st.Now() != st.Now() {
				t.Errorf("Now() = %v, reference loop %v", p.st.Now(), st.Now())
			}
			if p.owed != owed {
				t.Errorf("owed = %d, reference loop %d", p.owed, owed)
			}
			got, err := p.st.Finish()
			if err != nil {
				t.Fatal(err)
			}
			want, err := st.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("report diverged:\n got %+v\nwant %+v", got, want)
			}
			// Knuth draws resynchronise after a shifted start, so equal
			// paths do not prove the streams were in step.
			if a, b := p.rel.Uint64(), rel.Uint64(); a != b {
				t.Errorf("release stream out of step: the pump's next draw is %#x, the reference's %#x", a, b)
			}
		})
	}
}

// release's exp(−mean) table must serve, draw for draw, what Poisson
// computes afresh.  Under overload the epochs alternate between a
// transmission plus a few slots and single idle slots, so the mean
// rarely repeats twice in a row; 97 distinct elapsed times over a
// 64-entry table also force evictions.  A table that returned another
// mean's exp(−mean) would draw from the wrong law, and the first draw it
// got wrong is named.
func TestReleaseMemoMatchesPoisson(t *testing.T) {
	for _, tau := range []float64{1, 0.37} {
		o := figure7Options(tau)
		o.k, o.load = 5000, 2
		_, p := barePump(t, o)
		ref := rngutil.New(o.seed ^ 0x6a09e667f3bcc909)
		pick := rngutil.New(3)
		for i := 0; i < 50000; i++ {
			var slots float64
			switch i % 3 {
			case 0:
				slots = 25 + float64(pick.Uint64()%6) // a success plus j slots
			case 1:
				slots = 1 // an idle slot
			default:
				slots = float64(pick.Uint64() % 97)
			}
			elapsed := slots * tau
			got, want := p.release(elapsed), ref.Poisson(p.lam*elapsed)
			if got != want {
				t.Fatalf("tau=%v: draw %d (elapsed %v, mean %v): release drew %d, Poisson(mean) drew %d",
					tau, i, elapsed, p.lam*elapsed, got, want)
			}
		}
	}
}

// figure7Options is the benchmark's saturation point: K/M = 2, ρ′ = 0.75,
// M = 25, where most decision epochs are idle probes of an empty channel.
func figure7Options(tau float64) options {
	o := testOptions()
	o.tau, o.m, o.km, o.load = tau, 25, 2, 0.75
	return o
}

// The pump's idle runs are an optimisation, not a new path: a reference
// that Steps slot by slot through each run, releasing at the first slot
// that reaches the run's end with the same gap and release draws, and
// Steps and draws Poisson(λ′·elapsed) for every other epoch, all clamped
// to the ledger, must reach the same clock, step count, ledger, report
// and collector.  A step that moved the pump's gap took an idle run.
func TestPumpIdleRunMatchesStepping(t *testing.T) {
	for _, tau := range []float64{1, 0.37} {
		for _, tc := range []struct {
			name      string
			synthetic bool
			owed      int64
		}{
			{"synthetic", true, 0},
			{"owed ledger", false, 1500},
		} {
			t.Run(fmt.Sprintf("tau=%v/%s", tau, tc.name), func(t *testing.T) {
				const n = 60000
				o := figure7Options(tau)
				o.synthetic = tc.synthetic
				srv, p := barePump(t, o)
				p.owed = tc.owed
				type epoch struct {
					slots uint64
					idle  bool
				}
				var epochs []epoch
				runs := 0
				for p.steps < n {
					before, gap := p.steps, p.gap
					if err := p.step(); err != nil {
						t.Fatal(err)
					}
					e := epoch{p.steps - before, p.gap != gap}
					epochs = append(epochs, e)
					if e.slots > 1 {
						runs++
					}
				}
				if runs < 100 {
					t.Fatalf("setup: only %d idle runs of more than one slot were taken", runs)
				}

				ref := metrics.NewShared(o.tau, 256)
				st, _, err := o.engine(ref)
				if err != nil {
					t.Fatal(err)
				}
				rel := rngutil.New(o.seed ^ 0x6a09e667f3bcc909)
				gaps := rel.Spawn()
				gap := gaps.Exp(1)
				lam := o.lambda()
				owed := tc.owed
				inject := func(k int64) {
					if !o.synthetic {
						k = min(k, owed)
						owed -= k
					}
					st.Inject(int(k))
				}
				for i, e := range epochs {
					if !e.idle {
						before := st.Now()
						if err := st.Step(); err != nil {
							t.Fatal(err)
						}
						inject(int64(rel.Poisson(lam * (st.Now() - before))))
						continue
					}
					start := st.Now()
					until := start + gap/lam
					for j := uint64(0); j < e.slots; j++ {
						if err := st.Step(); err != nil {
							t.Fatal(err)
						}
						if now := st.Now(); now >= until {
							if j != e.slots-1 {
								t.Fatalf("epoch %d: the reference reached the run's end after %d slots, the pump's run took %d", i, j+1, e.slots)
							}
							inject(1 + int64(rel.Poisson(lam*(now-until))))
							gap = gaps.Exp(1)
						}
					}
					if st.Now() < until {
						gap -= lam * (st.Now() - start)
					}
				}
				if !o.synthetic && owed != 0 {
					t.Fatalf("setup: the ledger never ran dry (%d owed), so the clamp went untested", owed)
				}

				if p.st.Now() != st.Now() {
					t.Errorf("Now() = %v, reference loop %v", p.st.Now(), st.Now())
				}
				if p.owed != owed {
					t.Errorf("owed = %d, reference loop %d", p.owed, owed)
				}
				if p.gap != gap {
					t.Errorf("gap = %v, reference loop %v", p.gap, gap)
				}
				got, err := p.st.Finish()
				if err != nil {
					t.Fatal(err)
				}
				want, err := st.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("report diverged:\n got %+v\nwant %+v", got, want)
				}
				if gs, ws := srv.shared.Snapshot(), ref.Snapshot(); gs != ws {
					t.Errorf("collector diverged:\n got %+v\nwant %+v", gs, ws)
				}
			})
		}
	}
}

// An idle run must release by the per-slot law: idle slots that each
// release an independent Poisson(λ′τ) count.  From
// any point the pump reaches without looking ahead, the idle slot that
// first releases is then Geometric(1 − e^{−λ′τ}) on {1, 2, ...}, and its
// count zero-truncated Poisson(λ′τ).  Trials start at such points, in
// three kinds: plain runs; runs each cut at the 1024-step boundary after
// 1 to 16 slots; and runs after a /config swap from ρ′ = 0.75 to 0.3,
// made mid-gap after one cut run that released nothing, and counted from
// the swap at the new λ′.  Epochs that are not idle runs release by
// advance's own draw, so their slots are not counted.
func TestIdleRunReleaseLaw(t *testing.T) {
	for _, tau := range []float64{1, 0.37} {
		for _, kind := range []string{"plain", "cut", "swap"} {
			t.Run(fmt.Sprintf("tau=%v/%s", tau, kind), func(t *testing.T) {
				o := figure7Options(tau)
				o.synthetic = true
				swapped := o
				swapped.load = 0.3
				law := o
				if kind == "swap" {
					law = swapped
				}
				_, p := barePump(t, o)
				cuts := rngutil.New(5)
				// run takes the pump's next idle run, cut after cut slots
				// when cut > 0, and returns its slots and the count it
				// released; epochs before it are advances.
				run := func(cut int) (slots, released int) {
					for {
						if p.st.Backlog() == 0 {
							if cut > 0 {
								p.steps += uint64((1024 - cut - int(p.steps&1023)) & 1023)
							}
							before := p.steps
							if p.idleRun() {
								return int(p.steps - before), p.st.Backlog()
							}
						}
						if err := p.advance(); err != nil {
							t.Fatal(err)
						}
					}
				}
				swap := func(to options) {
					reply := make(chan error, 1)
					p.reconfigure(ctrlMsg{opts: to, reply: reply})
					if err := <-reply; err != nil {
						t.Fatal(err)
					}
				}
				mu := law.lambda() * tau
				q := 1 - math.Exp(-mu)
				maxSlots := int(40 / q) // beyond it a trial counts in the tail
				first, count := map[int]int{}, map[int]int{}
				const trials = 6000
				for n := 0; n < trials; {
					if kind == "swap" {
						if _, released := run(1 + cuts.Intn(16)); released > 0 {
							continue // released before the swap: no trial
						}
						swap(swapped)
					}
					total := 0
					for total < maxSlots {
						cut := 0
						if kind == "cut" {
							cut = 1 + cuts.Intn(16)
						}
						slots, released := run(cut)
						total += slots
						if released > 0 {
							count[released]++
							break
						}
					}
					first[min(total, maxSlots)]++
					n++
					if kind == "swap" {
						swap(o)
					}
				}
				chiSquare(t, "first releasing idle slot", first, func(k int) float64 {
					return math.Pow(1-q, float64(k-1)) * q
				})
				chiSquare(t, "its release count", count, func(k int) float64 {
					lg, _ := math.Lgamma(float64(k + 1))
					return math.Exp(float64(k)*math.Log(mu)-mu-lg) / q
				})
			})
		}
	}
}

// chiSquare fails t unless obs, counts of the integers from 1 up, follow
// pmf by Pearson's chi-square test at the 0.1% level.  Consecutive
// integers are pooled into bins expecting at least 20 each, the last bin
// taking the rest of the mass; the failure names each bin's observed and
// expected frequency.
func chiSquare(t *testing.T, what string, obs map[int]int, pmf func(int) float64) {
	t.Helper()
	n, top := 0, 0
	for k, c := range obs {
		n += c
		top = max(top, k)
	}
	if n == 0 {
		t.Errorf("%s: no samples", what)
		return
	}
	var table strings.Builder
	stat, bins := 0.0, 0
	bin := func(label string, o int, e float64) {
		stat += (float64(o) - e) * (float64(o) - e) / e
		bins++
		fmt.Fprintf(&table, "\n  %-9s observed %6d  expected %9.1f", label, o, e)
	}
	lo, o, e, mass := 1, 0, 0.0, 0.0
	for k := 1; ; k++ {
		pk := pmf(k)
		o += obs[k]
		e += float64(n) * pk
		mass += pk
		if rest := float64(n) * max(0, 1-mass); e >= 20 && rest < 20 || k > top && rest <= 1e-9*float64(n) {
			for j := k + 1; j <= top; j++ {
				o += obs[j]
			}
			bin(fmt.Sprintf("%d+", lo), o, e+rest)
			break
		}
		if e >= 20 {
			label := fmt.Sprint(lo)
			if k > lo {
				label = fmt.Sprintf("%d-%d", lo, k)
			}
			bin(label, o, e)
			lo, o, e = k+1, 0, 0
		}
	}
	if bins < 2 {
		t.Errorf("%s: %d samples fill one bin, too few to test:%s", what, n, table.String())
		return
	}
	// Wilson–Hilferty's approximation to the 99.9% point of chi-square.
	df := float64(bins - 1)
	a := 2 / (9 * df)
	crit := df * math.Pow(1-a+3.0902*math.Sqrt(a), 3)
	if stat > crit {
		t.Errorf("%s: chi-square %.1f over %v degrees of freedom, 99.9%% point %.1f (%d samples):%s",
			what, stat, df, crit, n, table.String())
	}
}

// A warm pump iteration that takes an idle run allocates nothing.
func TestPumpIdleRunZeroAlloc(t *testing.T) {
	o := figure7Options(1)
	o.synthetic = true
	_, p := barePump(t, o)
	iter := func() {
		p.absorb()
		if err := p.step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20000; i++ {
		iter()
	}
	before := p.steps
	const runs = 2000
	if a := testing.AllocsPerRun(runs, iter); a != 0 {
		t.Errorf("absorb + step: %v allocs per iteration, want 0", a)
	}
	if per := float64(p.steps-before) / (runs + 1); per < 2 {
		t.Errorf("%.2f steps per iteration: the iterations measured took no idle runs", per)
	}
}

// Idle runs stop at every multiple of 1024 steps, so a running pump still
// publishes its status there and nowhere else.
func TestPublishedStepsOnBoundaries(t *testing.T) {
	o := figure7Options(1)
	o.synthetic = true
	s, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	deadline := time.Now().Add(5 * time.Second)
	for len(seen) < 20 && time.Now().Before(deadline) {
		if st := s.status.Load().Steps; st != 0 && !seen[st] {
			seen[st] = true
			if st%1024 != 0 {
				t.Errorf("published steps = %d, not a multiple of 1024", st)
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	if len(seen) < 2 {
		t.Errorf("saw %d published step counts in 5s, want a running pump", len(seen))
	}
	s.beginDrain()
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not complete")
	}
}

// BenchmarkPumpSaturated runs windowd's pump loop in process — no
// sockets — on a synthetic engine at the figure-7 saturation point and
// reports admission decisions (transmitted or shed) per second.  One
// b.N iteration is one pump iteration; steps/decision counts decision
// epochs and iters/decision the loop iterations that took them.
func BenchmarkPumpSaturated(b *testing.B) {
	o := figure7Options(1)
	o.synthetic = true
	benchPump(b, o)
}

// BenchmarkPumpOverload is BenchmarkPumpSaturated's loop at windowbench's
// svc-overload shape: K = 5000, ρ′ = 2, M = 25.  The engine keeps a
// standing backlog of messages still inside K and sheds the rest
// (element (4)), so every probe searches that backlog; backlog reports
// the engine's backlog when the timer stops.
func BenchmarkPumpOverload(b *testing.B) {
	o := figure7Options(1)
	o.k, o.load = 5000, 2
	o.synthetic = true
	p := benchPump(b, o)
	b.ReportMetric(float64(p.st.Backlog()), "backlog")
}

// benchPump runs b.N iterations of the pump loop on a bare pump built
// from o and reports decisions/s, steps/decision and iters/decision.
func benchPump(b *testing.B, o options) *pumpState {
	srv, p := barePump(b, o)
	decided := func() int64 {
		snap := srv.shared.Snapshot()
		return snap.Transmissions + snap.Discards
	}
	b.ReportAllocs()
	b.ResetTimer()
	d0, s0 := decided(), p.steps
	for i := 0; i < b.N; i++ {
		p.absorb()
		if err := p.step(); err != nil {
			b.Fatal(err)
		}
		if p.steps&1023 == 0 {
			p.publish(p.st.CheckNow())
		}
	}
	b.StopTimer()
	if d := decided() - d0; d > 0 {
		b.ReportMetric(float64(d)/b.Elapsed().Seconds(), "decisions/s")
		b.ReportMetric(float64(p.steps-s0)/float64(d), "steps/decision")
		b.ReportMetric(float64(b.N)/float64(d), "iters/decision")
	}
	return p
}
